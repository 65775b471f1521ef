"""Frames on the total chart, their transition matrices under the scaling
action, degree extraction, G-equivalence, and homogeneous chart maps.

A frame is an ordered (n+1)-tuple of vector fields on the total chart,
pointwise independent.  Writing S for the matrix whose columns are the
components, the scaling action moves the frame by

    A(r, eps) = S(h_r eps)^{-1} Dh_r S(eps),

and the frame is homogeneous when A does not depend on the point, for
r > 0 and at r = -1.  The degree data is extracted as the pair
(B, C) = (dA/dr at 1, A(-1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import expr as ex
from . import numtape
from . import symmat
from .chart import ChartError
from .groups import (DegreeHom, GroupId, NotInNormalizerError, member_symbolic,
                     normalizer_p, quotient_symbolic)
from .linebundle import FIBER, LineBundleScenario
from .metric import DegeneracyError
from .tensors import VectorField
from .zerotest import (ZeroTestPolicy, DEFAULT_POLICY, ConfigError, all_zero,
                       is_zero, sample_values)

__all__ = ["Frame", "TransitionResult", "transition", "degree_coset",
           "CosetReport", "CosetError", "require_coset", "frames_G_equivalent",
           "is_homogeneous_chart", "ChartHomReport", "NotHomogeneousError",
           "chart_frame"]


class NotHomogeneousError(ex.InvalidObjectError):
    pass


class CosetError(ex.InvalidObjectError):
    """The frame's degree coset is not the one a structure needs."""


@dataclass(frozen=True)
class Frame:
    scenario: LineBundleScenario
    components: Tuple[VectorField, ...]

    def __post_init__(self):
        total = self.scenario.total
        if len(self.components) != total.dim:
            raise ChartError("frame needs one field per total-chart dimension")
        for X in self.components:
            if X.chart != total:
                raise ChartError("frame fields must live on the total chart")
            for c in X.comps:
                if c.free & {"r", "s"}:
                    raise ChartError("frame components must not use the formal "
                                     "action parameters")

    def matrix(self) -> List[List[ex.Expr]]:
        """S[i][a]: i-th coordinate component of the a-th frame field."""
        n = self.scenario.total.dim
        return [[self.components[a].comps[i] for a in range(n)] for i in range(n)]

    def check_independent(self, policy: ZeroTestPolicy = DEFAULT_POLICY):
        pol = policy.with_constraints(self.scenario.total.constraints)
        if is_zero(symmat.det(self.matrix()), pol):
            raise DegeneracyError("frame is degenerate at the sampled points")

    def translate(self, g) -> "Frame":
        """Right translation by a constant matrix, sigma . g: the right
        action of G on frames that G-equivalence is defined by."""
        S = self.matrix()
        grows = [[ex.rat(v) if not isinstance(v, ex.Expr) else v for v in row]
                 for row in g]
        Sg = symmat.mat_mul(S, grows)
        return frame_from_matrix(self.scenario, Sg)


def frame_from_matrix(scn: LineBundleScenario, S) -> Frame:
    n = scn.total.dim
    comps = []
    for a in range(n):
        comps.append(VectorField(scn.total, tuple(S[i][a] for i in range(n))))
    return Frame(scn, tuple(comps))


def _scaling_jacobian(n: int, factor: ex.Expr) -> List[List[ex.Expr]]:
    out = symmat.identity(n)
    out[n - 1][n - 1] = factor
    return out


def _sample_valid_point(scn: LineBundleScenario, dets, policy: ZeroTestPolicy):
    """The first of 40 points of the total chart, drawn with r > 0 as one
    more coordinate, where every det in `dets` is nonzero and defined
    (zerotest.sample_values); the point is returned without r."""
    names = list(scn.total.coords)
    for point, vals in sample_values(dets, names + ["r"], scn.policy_for(policy),
                                     0x5EED, count=40):
        if all(vals):       # a 0 or a None (undefined) value fails
            return {k: point[k] for k in names}
    raise ConfigError("no valid sample point found for frame transition")


@dataclass(frozen=True)
class TransitionResult:
    homogeneous: bool
    matrix_sym: Optional[List[List[ex.Expr]]] = None   # entries in r only
    hom: Optional[DegreeHom] = None
    failure: Optional[str] = None
    point: Optional[dict] = None   # coordinate -> ex.rat where matrix_sym was read


def _fold_rational(e: ex.Expr, constraints,
                   policy: ZeroTestPolicy = DEFAULT_POLICY) -> Fraction:
    """Collapse a variable-free expression to an exact rational.  When the
    value is only constant through transcendental identities, snap the
    float value to a nearby rational and verify the residual with the
    zero test."""
    e = ex.simplify(e, constraints)
    if isinstance(e, ex.Rat):
        return e.value
    if e.free:
        raise NotHomogeneousError(f"expected a constant, got {ex.to_dsl(e)}")
    val = numtape.eval_tape(numtape.compile_tape(e), [{}])[0]
    if not math.isfinite(val):
        raise NotHomogeneousError(
            f"constant {ex.to_dsl(e)} evaluates to {val} (expression leaves "
            "the chart domain, e.g. under the reflection)")
    snapped = Fraction(val).limit_denominator(10 ** 6)
    if is_zero(ex.sub(e, ex.rat(snapped)), policy.with_constraints(constraints)):
        return snapped
    raise NotHomogeneousError(
        f"constant {ex.to_dsl(e)} = {val} is not a small rational")


def _varies_along(M, coords, constraints):
    """((i, j, coord), dM[i][j]/dcoord) for every entry of M and coordinate."""
    return (((i, j, coord), ex.diff(v, coord, constraints))
            for i, row in enumerate(M) for j, v in enumerate(row) for coord in coords)


def transition(frame: Frame, policy: ZeroTestPolicy = DEFAULT_POLICY) -> TransitionResult:
    """Solve S(h_r eps) A = Dh_r S(eps) for A(r, eps), decide whether A is
    point-independent, and if so extract the degree pair (B, C)."""
    scn = frame.scenario
    frame.check_independent(policy)
    n = scn.total.dim
    r = ex.var("r")
    S = frame.matrix()
    pol = scn.policy_for(policy)
    cons = pol.constraints
    # A(r, eps) for r > 0, then A(-1, eps), the explicit reflection resolved
    # on the branch: neither may depend on the point
    mats = []
    for factor, where in ((r, ""), (ex.rat(-1), "reflection ")):
        Sf = [[ex.subs(v, {FIBER: ex.mul(factor, scn.mu)}) for v in row] for row in S]
        A = symmat.simplify_mat(symmat.mat_mul(
            symmat.mat_mul(symmat.inverse(Sf), _scaling_jacobian(n, factor)), S), cons)
        ok, bad = all_zero(_varies_along(A, scn.total.coords, cons), pol)
        if not ok:
            (i, j, coord), _ = bad
            return TransitionResult(
                False,
                failure=f"{where}entry ({i},{j}) varies along {coord}: "
                        f"d/d{coord} = {ex.to_dsl(ex.diff(A[i][j], coord, cons))}")
        mats.append((Sf, A))
    (Sr, A_pt), (_, A_neg) = mats

    point = _sample_valid_point(scn, [symmat.det(S), symmat.det(Sr)], policy)
    point_map = {k: ex.rat(v) for k, v in point.items()}
    A_sym = [[ex.simplify(ex.subs(v, point_map), cons) for v in row] for row in A_pt]

    # B = dA/dr at r = 1, C = A(-1)
    B = [[_fold_rational(ex.subs(ex.diff(v, "r", cons), {"r": ex.ONE}), cons, policy)
          for v in row] for row in A_sym]
    C = [[_fold_rational(ex.subs(v, point_map), cons, policy) for v in row] for row in A_neg]

    hom = DegreeHom(tuple(tuple(row) for row in B), tuple(tuple(row) for row in C))
    return TransitionResult(True, matrix_sym=A_sym, hom=hom, point=point_map)


def homomorphism_law_holds(tr: TransitionResult,
                           policy: ZeroTestPolicy = DEFAULT_POLICY) -> bool:
    """A(rs) = A(r) A(s) for two formal positive parameters."""
    if not tr.homogeneous:
        return False
    A = tr.matrix_sym
    r, s = ex.var("r"), ex.var("s")
    Ars = [[ex.subs(v, {"r": ex.mul(r, s)}) for v in row] for row in A]
    As = [[ex.subs(v, {"r": s}) for v in row] for row in A]
    prod = symmat.mat_mul(A, As)
    pol = policy.with_constraints((ex.Constraint("r", ">", 0),
                                   ex.Constraint("s", ">", 0)))
    return all_zero((((i, j), ex.sub(Ars[i][j], prod[i][j]))
                     for i in range(len(A)) for j in range(len(A))), pol)[0]


@dataclass(frozen=True)
class CosetReport:
    in_normalizer: bool
    quotient_value: Optional[ex.Expr]       # Expr in r (branch r > 0)
    quotient_value_neg1: Optional[object]   # Fraction or parity at r = -1
    failure: Optional[str] = None


def degree_coset(tr: TransitionResult, G: GroupId,
                 policy: ZeroTestPolicy = DEFAULT_POLICY) -> CosetReport:
    """Verify that a frame's transition A_sigma(r) lies in N(G) for
    symbolic r > 0 and at r = -1, and return the quotient value function.
    Raises ValueError when G has another size than the transition."""
    if not tr.homogeneous:
        raise NotHomogeneousError(tr.failure or "frame is not homogeneous")
    if len(tr.matrix_sym) != G.size:
        raise ValueError(f"a transition of size {len(tr.matrix_sym)} does not "
                         f"match {G} (size {G.size})")
    value, bad = quotient_symbolic(G, tr.matrix_sym, policy)
    if bad is not None:
        i, j = bad
        return CosetReport(
            False, None, None,
            failure=f"defining product entry ({i},{j}) is not "
                    f"{'diagonal-constant' if i == j else 'zero'}")
    if G.family == "gl":
        return CosetReport(True, value, Fraction(1))
    try:
        neg1 = normalizer_p(G, tr.hom.C)
    except NotInNormalizerError as err:
        return CosetReport(False, None, None, failure=str(err))
    return CosetReport(True, value, neg1)


def require_coset(frame: Frame, G: GroupId, group: str, value: ex.Expr, value_neg1,
                  name: str, policy: ZeroTestPolicy = DEFAULT_POLICY) -> None:
    """Raise CosetError unless the frame's transition lies in N(G) with
    quotient value `value` for r > 0 and `value_neg1` at r = -1."""
    rep = degree_coset(transition(frame, policy), G, policy)
    if not rep.in_normalizer:
        raise CosetError(f"frame transition not in N({group}): {rep.failure}")
    pol = policy.with_constraints((ex.Constraint("r", ">", 0),))
    if not is_zero(ex.sub(rep.quotient_value, value), pol) or \
            rep.quotient_value_neg1 != value_neg1:
        raise CosetError(f"frame degree coset is not {name}")


def frames_G_equivalent(f1: Frame, f2: Frame, G: GroupId,
                        policy: ZeroTestPolicy = DEFAULT_POLICY) -> bool:
    """Solve sigma2 = sigma1 . g pointwise and test that g takes values in G."""
    if f1.scenario is not f2.scenario and f1.scenario.total != f2.scenario.total:
        raise ChartError("frames live on different scenarios")
    f1.check_independent(policy)
    f2.check_independent(policy)
    S1, S2 = f1.matrix(), f2.matrix()
    g = symmat.mat_mul(symmat.inverse(S1), S2)
    g = symmat.simplify_mat(g, f1.scenario.total.constraints)
    return member_symbolic(G, g, policy.with_constraints(f1.scenario.total.constraints))


@dataclass(frozen=True)
class ChartHomReport:
    A_sym: List[List[ex.Expr]]   # the chart frame's transition matrix, in r (r > 0)
    b_sym: List[ex.Expr]         # h_r^* chi - A(r) chi at the transition's point
    frame: Frame                 # the chart's coordinate frame


def is_homogeneous_chart(scn: LineBundleScenario, chi: Sequence[ex.Expr],
                         policy: ZeroTestPolicy = DEFAULT_POLICY) -> ChartHomReport:
    """Decide whether h_r^* chi = A(r) chi + b(r) on r > 0 and return the
    affine data.

    A(r) is the transition matrix of the chart's coordinate frame, and
    b(r) = h_r^* chi - A(r) chi is read at the point where that transition
    was read.  Raises NotHomogeneousError when A or b depends on the point
    or the pair violates the homomorphism law
    (A, b)(rs) = (A, b)(r) . (A, b)(s).  At r = -1 only the frame's
    transition A(-1) is checked not to depend on the point; b(-1) is not
    read."""
    n = scn.total.dim
    chi = tuple(ex._coerce(c) for c in chi)
    if len(chi) != n:
        raise ChartError("chart map needs one component per dimension")
    for c in chi:
        scn.total.check_owns(c)
    pol = scn.policy_for(policy)
    cons = pol.constraints

    jac = [[ex.diff(c, v, cons) for v in scn.total.coords] for c in chi]
    if is_zero(symmat.det(jac), pol):
        raise DegeneracyError("chart map has a degenerate Jacobian")

    frame = chart_frame(scn, chi)
    tr = transition(frame, policy)
    if not tr.homogeneous:
        raise NotHomogeneousError(f"no affine relation: A {tr.failure}")
    if not homomorphism_law_holds(tr, policy):
        raise NotHomogeneousError("affine data violates A(rs) = A(r)A(s)")
    A = tr.matrix_sym

    r = ex.var("r")
    b_pt = [ex.simplify(ex.sub(ex.subs(chi[i], {FIBER: ex.mul(r, scn.mu)}),
                               ex.add(*[ex.mul(A[i][j], chi[j]) for j in range(n)])),
                        cons) for i in range(n)]
    ok, bad = all_zero(_varies_along([b_pt], scn.total.coords, cons), pol)
    if not ok:
        (_, i, coord), _ = bad
        raise NotHomogeneousError(
            f"no affine relation: b entry {i} varies along {coord}")
    b = [ex.simplify(ex.subs(v, tr.point), cons) for v in b_pt]

    s = ex.var("s")
    bs = [ex.subs(v, {"r": s}) for v in b]
    law = ((i, ex.sub(ex.subs(b[i], {"r": ex.mul(r, s)}),
                      ex.add(ex.add(*[ex.mul(A[i][j], bs[j]) for j in range(n)]), b[i])))
           for i in range(n))
    if not all_zero(law, pol.with_constraints((ex.Constraint("s", ">", 0),)))[0]:
        raise NotHomogeneousError("affine data violates b(rs) = A(r)b(s) + b(r)")
    return ChartHomReport(A, b, frame)


def chart_frame(scn: LineBundleScenario, chi: Sequence[ex.Expr]) -> Frame:
    """The coordinate frame of a chart map: columns of the inverse Jacobian."""
    cons = scn.total.constraints
    jac = [[ex.diff(c, v, cons) for v in scn.total.coords] for c in chi]
    return frame_from_matrix(scn, symmat.simplify_mat(symmat.inverse(jac), cons))
