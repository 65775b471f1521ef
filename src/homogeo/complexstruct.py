"""Trivial-degree complex frame structures and the Nijenhuis obstruction.

A frame with trivial degree coset in N(GL_k(C))/GL_k(C) induces the
fiber-invariant endomorphism

    j = sum_i xi^i (x) Y_i - sum_i eta^i (x) X_i,

i.e. S K S^{-1} with K the standard complex structure on the frame
indices.  Integrability is governed by the Nijenhuis torsion

    N(X, Y) = [jX, jY] - j[jX, Y] - j[X, jY] + j^2 [X, Y],

with the fourth term kept explicitly so the same formula is tensorial for
arbitrary endomorphisms (which the tests exploit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from . import expr as ex
from . import symmat
from .chart import ChartError
from .frames import Frame, require_coset
from .groups import GLC
from .linebundle import DEG0, LineBundleScenario
from .tensors import Endo11, VectorField, coordinate_field, lie_bracket
from .zerotest import ZeroTestPolicy, DEFAULT_POLICY, all_zero

__all__ = ["AlmostComplex", "frame_to_j", "nijenhuis", "nijenhuis_fields",
           "IntegrabilityCReport", "integrability_report_c"]


@dataclass(frozen=True)
class AlmostComplex:
    scenario: LineBundleScenario
    J: Endo11

    def __post_init__(self):
        if self.J.chart != self.scenario.total:
            raise ChartError("endomorphism must live on the total chart")

    def verify(self, policy: ZeroTestPolicy = DEFAULT_POLICY) -> Optional[str]:
        """Check J^2 = -I and fiber invariance; returns a failure note or None."""
        scn = self.scenario
        pol = policy.with_constraints(scn.total.constraints)
        n = scn.total.dim
        sq = symmat.mat_mul(self.J.rows(), self.J.rows())
        ok, bad = all_zero((((i, j), ex.sub(sq[i][j], ex.rat(-1 if i == j else 0)))
                            for i in range(n) for j in range(n)), pol)
        if not ok:
            return "J^2 + I is nonzero at entry ({},{})".format(*bad[0])
        if not scn.is_homogeneous(self.J, DEG0, policy):
            return "J is not fiber-invariant (degree 0)"
        return None


def frame_to_j(frame: Frame, policy: ZeroTestPolicy = DEFAULT_POLICY,
               check_degree: bool = True) -> AlmostComplex:
    scn = frame.scenario
    n1 = scn.total.dim
    if n1 % 2:
        raise ChartError("total dimension must be even")
    k = n1 // 2
    if check_degree:
        require_coset(frame, GLC(k), "GL_k(C)", ex.ONE, 0, "trivial", policy)
    S = frame.matrix()
    K = [[ex.ZERO] * n1 for _ in range(n1)]
    for i in range(k):
        K[k + i][i] = ex.ONE        # X_i -> Y_i
        K[i][k + i] = ex.rat(-1)    # Y_i -> -X_i
    Jrows = symmat.mat_mul(symmat.mat_mul(S, K), symmat.inverse(S))
    Jrows = symmat.simplify_mat(Jrows, scn.total.constraints)
    out = AlmostComplex(scn, Endo11(scn.total, tuple(tuple(r) for r in Jrows)))
    note = out.verify(policy)
    if note:
        raise ValueError(f"induced endomorphism is invalid: {note}")
    return out


def nijenhuis_fields(J: Endo11, X: VectorField, Y: VectorField) -> VectorField:
    """Torsion applied to two arbitrary fields (used for tensoriality checks)."""
    jX, jY = J.apply(X), J.apply(Y)
    t1 = lie_bracket(jX, jY)
    t2 = J.apply(lie_bracket(jX, Y))
    t3 = J.apply(lie_bracket(X, jY))
    t4 = J.apply(J.apply(lie_bracket(X, Y)))
    return t1 - t2 - t3 + t4


def nijenhuis(J: Endo11) -> List[List[List[ex.Expr]]]:
    """Components N[c][a][b] with N(d_a, d_b) = N^c_{ab} d_c."""
    chart = J.chart
    n = chart.dim
    out = [[[ex.ZERO] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            v = nijenhuis_fields(J, coordinate_field(chart, a),
                                 coordinate_field(chart, b))
            for c in range(n):
                out[c][a][b] = v.comps[c]
                out[c][b][a] = ex.neg(v.comps[c])
    return out


@dataclass(frozen=True)
class IntegrabilityCReport:
    torsion_zero: bool
    integrable: bool
    homogeneous_integrable: bool
    falsification: Optional[str]
    witness: Optional[dict]
    note: str = ""


def integrability_report_c(ac: AlmostComplex,
                           policy: ZeroTestPolicy = DEFAULT_POLICY) -> IntegrabilityCReport:
    """Torsion verdict, with the dimension-2 identity as an internal
    consistency check; the chart construction is deliberately not
    attempted, so homogeneous integrability is scored by the torsion
    criterion with a note."""
    scn = ac.scenario
    pol = policy.with_constraints(scn.total.constraints)
    N = nijenhuis(ac.J)
    n = scn.total.dim
    torsion_zero, bad = all_zero((((c, a, b), N[c][a][b]) for c in range(n)
                                  for a in range(n) for b in range(a + 1, n)), pol)
    witness = None
    if not torsion_zero:
        component, rep = bad
        witness = {"component": component, "point": rep.witness,
                   "value": rep.witness_value}

    fals = None
    if n == 2 and not torsion_zero:
        fals = ("dimension-2 identity violated: nonzero torsion on a "
                f"2-dimensional chart, witness {witness}")
    return IntegrabilityCReport(
        torsion_zero=torsion_zero,
        integrable=torsion_zero,
        homogeneous_integrable=torsion_zero,
        falsification=fals,
        witness=witness,
        note=("integrability equated to torsion vanishing; the homogeneous "
              "chart construction is deferred"))
