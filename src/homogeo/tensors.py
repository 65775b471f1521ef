"""Coordinate tensor fields on a chart and the exterior/Lie calculus.

Conventions (pinned once, used everywhere):

* wedge has no factorial normalization: for 1-forms
  (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X);
* interior product inserts in the first slot;
* d on 1-forms satisfies d(eta)(X, Y) = X(eta(Y)) - Y(eta(X)) - eta([X, Y]),
  i.e. (d eta)_{ij} = d_i eta_j - d_j eta_i with no 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, Mapping, Sequence, Tuple

from . import expr as ex
from . import symmat
from .chart import Chart, ChartError, SmoothMap

__all__ = ["VectorField", "KForm", "SymTensor2", "Endo11",
           "d", "wedge", "interior", "lie_bracket", "lie_derivative",
           "pullback", "pullback_sym", "pullback_endo",
           "one_form", "zero_form"]

Index = Tuple[int, ...]


def _norm_coeffs(chart: Chart, degree: int, coeffs: Mapping[Index, ex.Expr]) -> Dict[Index, ex.Expr]:
    out: Dict[Index, ex.Expr] = {}
    for idx, c in coeffs.items():
        idx = tuple(idx)
        if len(idx) != degree:
            raise ChartError(f"index {idx} has wrong length for a {degree}-form")
        if any(i < 0 or i >= chart.dim for i in idx):
            raise ChartError(f"index {idx} out of range for chart {chart.name!r}")
        if any(i >= j for i, j in zip(idx, idx[1:])):
            raise ChartError(f"index {idx} is not strictly increasing")
        c = ex._coerce(c)
        chart.check_owns(c)
        if not c.is_zero_literal():
            out[idx] = c
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class VectorField:
    chart: Chart
    comps: Tuple[ex.Expr, ...]

    def __post_init__(self):
        if len(self.comps) != self.chart.dim:
            raise ChartError("component count must equal chart dimension")
        for c in self.comps:
            self.chart.check_owns(c)

    def __call__(self, f: ex.Expr) -> ex.Expr:
        """Directional derivative of a function."""
        cons = self.chart.constraints
        return ex.add(*[ex.mul(c, ex.diff(f, v, cons))
                        for c, v in zip(self.comps, self.chart.coords)])

    def __add__(self, other: "VectorField") -> "VectorField":
        _same_chart(self, other)
        return VectorField(self.chart, tuple(ex.add(a, b) for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other):
        _same_chart(self, other)
        return VectorField(self.chart, tuple(ex.sub(a, b) for a, b in zip(self.comps, other.comps)))

    def scale(self, f) -> "VectorField":
        return VectorField(self.chart, tuple(ex.mul(f, c) for c in self.comps))


@dataclass(frozen=True)
class KForm:
    chart: Chart
    degree: int
    coeffs: Mapping[Index, ex.Expr]

    def __post_init__(self):
        if self.degree < 0:
            raise ChartError("form degree out of range")
        # degrees above the chart dimension are allowed and identically zero
        object.__setattr__(self, "coeffs", _norm_coeffs(self.chart, self.degree, self.coeffs))

    def coeff(self, idx: Index) -> ex.Expr:
        return self.coeffs.get(tuple(idx), ex.ZERO)

    def __add__(self, other: "KForm") -> "KForm":
        _same_chart(self, other)
        if self.degree != other.degree:
            raise ChartError("cannot add forms of different degree")
        keys = set(self.coeffs) | set(other.coeffs)
        return KForm(self.chart, self.degree,
                     {k: ex.add(self.coeff(k), other.coeff(k)) for k in keys})

    def __sub__(self, other: "KForm") -> "KForm":
        return self + other.scale(ex.rat(-1))

    def scale(self, f) -> "KForm":
        return KForm(self.chart, self.degree,
                     {k: ex.mul(f, c) for k, c in self.coeffs.items()})

    def __call__(self, *fields: VectorField) -> ex.Expr:
        if len(fields) != self.degree:
            raise ChartError("wrong number of arguments")
        parts = []
        for idx, c in self.coeffs.items():
            block = [[fields[j].comps[i] for j in range(self.degree)] for i in idx]
            parts.append(ex.mul(c, symmat.det(block)))
        return ex.add(*parts) if parts else ex.ZERO

    def rows(self):
        """The full antisymmetric coefficient matrix W[i][j] = w(d_i, d_j)
        of a 2-form."""
        if self.degree != 2:
            raise ChartError("rows() is defined for 2-forms")
        n = self.chart.dim
        W = [[ex.ZERO] * n for _ in range(n)]
        for (i, j), c in self.coeffs.items():
            W[i][j] = c
            W[j][i] = ex.neg(c)
        return W


def _square_matrix(chart: Chart, mat) -> Tuple[Tuple[ex.Expr, ...], ...]:
    """mat as a tuple of rows of expressions, checked to be dim x dim with
    every entry owned by the chart."""
    n = chart.dim
    m = tuple(tuple(ex._coerce(v) for v in row) for row in mat)
    if len(m) != n or any(len(row) != n for row in m):
        raise ChartError("matrix shape must equal chart dimension")
    for row in m:
        for v in row:
            chart.check_owns(v)
    return m


@dataclass(frozen=True)
class SymTensor2:
    """Symmetric 2-tensor stored as the full coefficient matrix
    T[i][j] = T(d_i, d_j).  Distinct (i, j) and (j, i) nodes are averaged
    for library builders; `scenarios` refuses a metric whose entries differ."""

    chart: Chart
    mat: Tuple[Tuple[ex.Expr, ...], ...]

    def __post_init__(self):
        n = self.chart.dim
        m = _square_matrix(self.chart, self.mat)
        for i in range(n):
            for j in range(i):
                if m[i][j] is not m[j][i]:
                    # symmetrize structurally distinct but equal entries
                    avg = ex.mul(ex.rat(Fraction(1, 2)), ex.add(m[i][j], m[j][i]))
                    m = tuple(tuple(avg if (a, b) in ((i, j), (j, i)) else m[a][b]
                                    for b in range(n)) for a in range(n))
        object.__setattr__(self, "mat", m)

    def __call__(self, X: VectorField, Y: VectorField) -> ex.Expr:
        parts = []
        for i, row in enumerate(self.mat):
            for j, v in enumerate(row):
                if not v.is_zero_literal():
                    parts.append(ex.mul(v, X.comps[i], Y.comps[j]))
        return ex.add(*parts) if parts else ex.ZERO

    def scale(self, f) -> "SymTensor2":
        return SymTensor2(self.chart, tuple(tuple(ex.mul(f, v) for v in row)
                                            for row in self.mat))

    def rows(self):
        return [list(row) for row in self.mat]


@dataclass(frozen=True)
class Endo11:
    """(1,1) tensor: J[i][j] is the i-th component of J(d_j)."""

    chart: Chart
    mat: Tuple[Tuple[ex.Expr, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "mat", _square_matrix(self.chart, self.mat))

    def apply(self, X: VectorField) -> VectorField:
        return VectorField(self.chart, tuple(symmat.mat_vec(self.rows(), list(X.comps))))

    def rows(self):
        return [list(row) for row in self.mat]


def _same_chart(a, b):
    if a.chart is not b.chart and a.chart != b.chart:
        raise ChartError(f"chart mismatch: {a.chart.name!r} vs {b.chart.name!r}")


# ---------------------------------------------------------------------------
# constructors

def zero_form(chart: Chart, degree: int) -> KForm:
    return KForm(chart, degree, {})


def one_form(chart: Chart, comps: Sequence) -> KForm:
    return KForm(chart, 1, {(i,): c for i, c in enumerate(comps)})


def coordinate_field(chart: Chart, i: int) -> VectorField:
    return VectorField(chart, tuple(ex.ONE if j == i else ex.ZERO
                                    for j in range(chart.dim)))


# ---------------------------------------------------------------------------
# exterior calculus

def _sort_sign(seq: Index) -> Tuple[int, Index]:
    """(sign, sorted seq) for the permutation that sorts seq, or (0, ())
    when an index repeats."""
    if len(set(seq)) != len(seq):
        return 0, ()
    inv = sum(a > b for x, a in enumerate(seq) for b in seq[x + 1:])
    return (-1) ** inv, tuple(sorted(seq))


def d(w: KForm) -> KForm:
    chart = w.chart
    if w.degree >= chart.dim:
        return zero_form(chart, w.degree + 1)
    cons = chart.constraints
    out: Dict[Index, ex.Expr] = {}
    for idx, c in w.coeffs.items():
        for i, v in enumerate(chart.coords):
            dc = ex.diff(c, v, cons)
            if dc.is_zero_literal():
                continue
            sign, merged = _sort_sign((i,) + idx)
            if sign == 0:
                continue
            term = dc if sign == 1 else ex.neg(dc)
            out[merged] = ex.add(out.get(merged, ex.ZERO), term)
    return KForm(chart, w.degree + 1, out)


def wedge(a: KForm, b: KForm) -> KForm:
    _same_chart(a, b)
    deg = a.degree + b.degree
    if deg > a.chart.dim:
        return KForm(a.chart, deg, {})
    out: Dict[Index, ex.Expr] = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            sign, merged = _sort_sign(ia + ib)
            if sign == 0:
                continue
            term = ex.mul(ca, cb)
            if sign == -1:
                term = ex.neg(term)
            out[merged] = ex.add(out.get(merged, ex.ZERO), term)
    return KForm(a.chart, deg, out)


def interior(X: VectorField, w: KForm) -> KForm:
    _same_chart(X, w)
    if w.degree == 0:
        raise ChartError("cannot contract a 0-form")
    out: Dict[Index, ex.Expr] = {}
    for idx, c in w.coeffs.items():
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            term = ex.mul(X.comps[i], c)
            if pos % 2:
                term = ex.neg(term)
            out[rest] = ex.add(out.get(rest, ex.ZERO), term)
    return KForm(w.chart, w.degree - 1, out)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    _same_chart(X, Y)
    chart = X.chart
    cons = chart.constraints
    comps = []
    for i in range(chart.dim):
        parts = []
        for j, v in enumerate(chart.coords):
            parts.append(ex.mul(X.comps[j], ex.diff(Y.comps[i], v, cons)))
            parts.append(ex.neg(ex.mul(Y.comps[j], ex.diff(X.comps[i], v, cons))))
        comps.append(ex.add(*parts))
    return VectorField(chart, tuple(comps))


def lie_derivative(X: VectorField, w: KForm) -> KForm:
    """Coordinate formula (independent of the Cartan identity, which is
    verified against this in the tests):
    (L_X w)_I = X(w_I) + sum_a sum_j w_{I[a -> j]} d_{I_a} X^j."""
    _same_chart(X, w)
    chart = w.chart
    cons = chart.constraints

    out: Dict[Index, ex.Expr] = {}
    for idx in combinations(range(chart.dim), w.degree):
        parts = []
        base = w.coeff(idx)
        if not base.is_zero_literal():
            parts.append(X(base))
        for a, ia in enumerate(idx):
            for j in range(chart.dim):
                dXj = ex.diff(X.comps[j], chart.coords[ia], cons)
                if dXj.is_zero_literal():
                    continue
                sign, jdx = _sort_sign(idx[:a] + (j,) + idx[a + 1:])
                cj = w.coeff(jdx) if sign else ex.ZERO
                if cj.is_zero_literal():
                    continue
                parts.append(ex.mul(cj if sign == 1 else ex.neg(cj), dXj))
        if parts:
            out[idx] = ex.add(*parts)
    return KForm(chart, w.degree, out)


# ---------------------------------------------------------------------------
# transport along maps

def pullback(f: SmoothMap, w: KForm) -> KForm:
    if w.chart is not f.target and w.chart != f.target:
        raise ChartError("form does not live on the map's target chart")
    jac = f.jacobian()
    out: Dict[Index, ex.Expr] = {}
    m = f.source.dim
    for idx, c in w.coeffs.items():
        cpull = f.pull_function(c)
        for jdx in combinations(range(m), w.degree):
            block = [[jac[i][j] for j in jdx] for i in idx]
            dmin = symmat.det(block)
            if dmin.is_zero_literal():
                continue
            term = ex.mul(cpull, dmin)
            out[jdx] = ex.add(out.get(jdx, ex.ZERO), term)
    return KForm(f.source, w.degree, out)


def pullback_sym(f: SmoothMap, g: SymTensor2) -> SymTensor2:
    """(f^* g)_ab = sum_ij (g_ij o f) Jac_ia Jac_jb.  Each nonzero g_ij is
    pulled back once; a term with a zero factor is skipped, and the
    [b][a] entry is the node built for [a][b], b >= a."""
    if g.chart is not f.target and g.chart != f.target:
        raise ChartError("tensor does not live on the map's target chart")
    jac = f.jacobian()
    n, m = f.target.dim, f.source.dim
    pulled = [[v if v.is_zero_literal() else f.pull_function(v) for v in row]
              for row in g.mat]
    rows = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            rows[a][b] = rows[b][a] = ex.add(*[
                ex.mul(pulled[i][j], jac[i][a], jac[j][b])
                for i in range(n) if not jac[i][a].is_zero_literal()
                for j in range(n) if not (jac[j][b].is_zero_literal()
                                          or pulled[i][j].is_zero_literal())])
    return SymTensor2(f.source, tuple(map(tuple, rows)))


def pullback_endo(f: SmoothMap, J: Endo11) -> Endo11:
    """Conjugate a (1,1) tensor through the map: Jac^{-1} (J o f) Jac."""
    if J.chart is not f.target and J.chart != f.target:
        raise ChartError("tensor does not live on the map's target chart")
    jac = [list(row) for row in f.jacobian()]
    jac_inv = symmat.inverse(jac)
    pulled = [[f.pull_function(v) for v in row] for row in J.rows()]
    out = symmat.mat_mul(symmat.mat_mul(jac_inv, pulled), jac)
    return Endo11(f.source, tuple(tuple(row) for row in out))
