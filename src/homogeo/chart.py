"""Coordinate charts and smooth maps between them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from . import expr as ex
from . import parser

__all__ = ["Chart", "SmoothMap", "ChartError"]

_RESERVED = {"r", "s"} | set(parser.FUNCTIONS)


class ChartError(ValueError):
    pass


@dataclass(frozen=True)
class Chart:
    name: str
    coords: Tuple[str, ...]
    constraints: Tuple[ex.Constraint, ...] = ()

    def __post_init__(self):
        if len(set(self.coords)) != len(self.coords):
            raise ChartError(f"chart {self.name!r} has duplicate coordinates")
        bad = set(self.coords) & _RESERVED
        if bad:
            raise ChartError(f"coordinate names {sorted(bad)} are reserved")
        for c in self.constraints:
            if c.name not in self.coords:
                raise ChartError(f"constraint {c} names {c.name!r}, which is "
                                 f"not a coordinate of chart {self.name!r}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def var(self, name: str) -> ex.Expr:
        if name not in self.coords:
            raise ChartError(f"{name!r} is not a coordinate of chart {self.name!r}")
        return ex.var(name)

    def index(self, name: str) -> int:
        return self.coords.index(name)

    def parse(self, text: str) -> ex.Expr:
        return parser.parse(text, chart=self)

    def check_owns(self, e: ex.Expr):
        stray = e.free - set(self.coords) - {"r", "s"}
        if stray:
            raise ChartError(
                f"expression uses {sorted(stray)} which are not coordinates of {self.name!r}")


@dataclass(frozen=True)
class SmoothMap:
    """Map source -> target given by one expression per target coordinate.

    The component expressions may additionally contain the formal action
    parameters r, s (used by the scaling maps).  Functions, forms and
    tensors are pulled back along the map; nothing is pushed forward, so
    no inverse is stored.
    """

    source: Chart
    target: Chart
    comps: Tuple[ex.Expr, ...]

    def __post_init__(self):
        if len(self.comps) != self.target.dim:
            raise ChartError("component count must match target dimension")
        for c in self.comps:
            self.source.check_owns(c)

    def pull_function(self, f: ex.Expr) -> ex.Expr:
        """f on the target composed with the map: an expression on the source."""
        self.target.check_owns(f)
        return ex.subs(f, dict(zip(self.target.coords, self.comps)))

    def jacobian(self):
        """d(comp_i)/d(source_j) as a nested tuple [i][j]."""
        cons = self.source.constraints
        return tuple(tuple(ex.diff(c, v, cons) for v in self.source.coords)
                     for c in self.comps)
