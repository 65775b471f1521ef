"""Frames on the total chart, their transition matrices under the scaling
action, degree extraction, G-equivalence, and homogeneous chart maps.

A frame is an ordered (n+1)-tuple of vector fields on the total chart,
pointwise independent.  Writing S for the matrix whose columns are the
components, the scaling action moves the frame by

    A(r, eps) = S(h_r eps)^{-1} Dh_r S(eps),

and the frame is homogeneous when A does not depend on the point.  The
degree data is extracted as the pair (B, C) = (dA/dr at 1, A(-1)).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import expr as ex
from . import numtape
from . import ratmat as rm
from . import symmat
from .chart import ChartError
from .groups import (DegreeHom, GroupId, NotInNormalizerError,
                     defining_product_symbolic, hom_eval_symbolic_full,
                     member_symbolic, normalizer_p, scalar_mismatch)
from .linebundle import FIBER, LineBundleScenario
from .metric import DegeneracyError
from .tensors import VectorField
from .zerotest import (ZeroTestPolicy, DEFAULT_POLICY, ConfigError, all_zero,
                       is_zero, sample_points)

__all__ = ["Frame", "TransitionResult", "transition", "build_frame",
           "degree_coset", "CosetReport", "require_coset", "frames_G_equivalent",
           "is_homogeneous_chart", "ChartHomReport", "NotHomogeneousError",
           "chart_frame"]


class NotHomogeneousError(ValueError):
    pass


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
        """Right translation by a constant matrix: sigma . g."""
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
    """A sample point of the total chart where every det in `dets` is nonzero."""
    pol = policy.with_constraints(scn.total.constraints)
    rng = random.Random(pol.seed ^ 0x5EED)
    names = list(scn.total.coords)
    for point in sample_points(names, pol.with_constraints(()), rng, count=40):
        ok = True
        for d in dets:
            try:
                probe = ex.subs(d, {k: ex.rat(v) for k, v in point.items()})
                if isinstance(probe, ex.Rat):
                    ok = probe.value != 0
                else:
                    # may still involve r; check at a generic positive r
                    val = float(numtape.eval_points(probe, [{"r": 1.7320508}])[0])
                    ok = math.isfinite(val) and abs(val) > 1e-12
            except (ZeroDivisionError, ValueError, OverflowError):
                ok = False
            if not ok:
                break
        if ok:
            return point
    raise ConfigError("no valid sample point found for frame transition")


@dataclass(frozen=True)
class TransitionResult:
    matrix_pointwise: List[List[ex.Expr]]   # entries in (r, coordinates)
    homogeneous: bool
    matrix_sym: Optional[List[List[ex.Expr]]] = None   # entries in r only
    hom: Optional[DegreeHom] = None
    failure: Optional[str] = None


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
    val = float(numtape.eval_points(e, [{}])[0])
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
    Sr = [[ex.subs(v, {FIBER: ex.mul(r, scn.mu)}) for v in row] for row in S]
    detSr = symmat.det(Sr)
    A_pt = symmat.mat_mul(symmat.mat_mul(symmat.inverse(Sr, detSr),
                                         _scaling_jacobian(n, r)), S)
    pol = scn.policy_for(policy)
    cons = pol.constraints
    A_pt = symmat.simplify_mat(A_pt, cons)

    ok, bad = all_zero(_varies_along(A_pt, scn.total.coords, cons), pol)
    if not ok:
        (i, j, coord), _ = bad
        return TransitionResult(
            A_pt, False,
            failure=f"entry ({i},{j}) varies along {coord}: "
                    f"d/d{coord} = {ex.to_dsl(ex.diff(A_pt[i][j], coord, cons))}")

    point = _sample_valid_point(scn, [symmat.det(S), detSr], policy)
    point_map = {k: ex.rat(v) for k, v in point.items()}
    A_sym = [[ex.simplify(ex.subs(v, point_map), cons) for v in row] for row in A_pt]

    # B = dA/dr at r = 1
    B = [[_fold_rational(ex.subs(ex.diff(v, "r", cons), {"r": ex.ONE}), cons, policy)
          for v in row] for row in A_sym]

    # C = A(-1, eps): explicit reflection, resolved on the branch
    Sneg = [[ex.subs(v, {FIBER: ex.neg(scn.mu)}) for v in row] for row in S]
    A_neg = symmat.mat_mul(symmat.mat_mul(symmat.inverse(Sneg),
                                          _scaling_jacobian(n, ex.rat(-1))), S)
    C = [[_fold_rational(ex.subs(v, point_map), cons, policy) for v in row] for row in A_neg]

    hom = DegreeHom(tuple(tuple(row) for row in B), tuple(tuple(row) for row in C))
    return TransitionResult(A_pt, True, matrix_sym=A_sym, hom=hom)


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


def build_frame(scn: LineBundleScenario, sigma0: Frame, section_value: ex.Expr,
                hom: DegreeHom) -> Frame:
    """Homogeneous frame generated from a reference frame along a section.

    The section is x -> (x, s(x)) with s positive; writing
    r(eps) = mu / s(x), the new frame at eps is
    Dh_{r(eps)} . sigma0(section(x)) . hom(r(eps))^{-1}.  The hom inverse
    is substituted in its full-domain form (|r| and sign(r) expressed
    through the fiber coordinate), so the result is reflection-safe."""
    scn.base.check_owns(section_value)
    if ex.sign_of(section_value, scn.base.constraints) != 1:
        raise ChartError("section value must be positive on the base domain")
    n = scn.total.dim
    r_of_eps = ex.div(scn.mu, section_value)
    S0 = [[ex.subs(v, {FIBER: section_value}) for v in row] for row in sigma0.matrix()]
    abs_r = ex.div(ex.abs_(scn.mu), section_value)
    sign_r = ex.sign_(scn.mu)
    Ainv_eps = hom_eval_symbolic_full(hom, abs_r, sign_r, invert=True)
    S = symmat.mat_mul(symmat.mat_mul(_scaling_jacobian(n, r_of_eps), S0), Ainv_eps)
    S = symmat.simplify_mat(S, scn.base.constraints)
    return frame_from_matrix(scn, S)


@dataclass(frozen=True)
class CosetReport:
    group: GroupId
    in_normalizer: bool
    quotient_value: Optional[ex.Expr]       # Expr in r (branch r > 0)
    quotient_value_neg1: Optional[object]   # Fraction or parity at r = -1
    hom: Optional[DegreeHom]
    failure: Optional[str] = None


def degree_coset(frame: Frame, G: GroupId,
                 policy: ZeroTestPolicy = DEFAULT_POLICY) -> CosetReport:
    """Verify A_sigma(r) lies in N(G) for symbolic r > 0 and at r = -1,
    and return the quotient value function."""
    tr = transition(frame, policy)
    if not tr.homogeneous:
        raise NotHomogeneousError(tr.failure or "frame is not homogeneous")
    pol = policy.with_constraints((ex.Constraint("r", ">", 0),))
    if G.family == "gl":
        return CosetReport(G, True, ex.ONE, Fraction(1), tr.hom)
    P = defining_product_symbolic(G, tr.matrix_sym)

    diag = ex.simplify(P[0][0], pol.constraints)
    bad = scalar_mismatch(P, diag, pol)
    if bad is not None:
        i, j = bad
        return CosetReport(
            G, False, None, None, tr.hom,
            failure=f"defining product entry ({i},{j}) is not "
                    f"{'diagonal-constant' if i == j else 'zero'}")

    try:
        neg1 = normalizer_p(G, tr.hom.C)
    except NotInNormalizerError as err:
        return CosetReport(G, False, None, None, tr.hom, failure=str(err))
    return CosetReport(G, True, diag, neg1, tr.hom)


def require_coset(frame: Frame, G: GroupId, group: str, value: ex.Expr, value_neg1,
                  name: str, policy: ZeroTestPolicy = DEFAULT_POLICY) -> None:
    """Raise ValueError unless the frame's transition lies in N(G) with
    quotient value `value` for r > 0 and `value_neg1` at r = -1."""
    rep = degree_coset(frame, G, policy)
    if not rep.in_normalizer:
        raise ValueError(f"frame transition not in N({group}): {rep.failure}")
    pol = policy.with_constraints((ex.Constraint("r", ">", 0),))
    if not is_zero(ex.sub(rep.quotient_value, value), pol) or \
            rep.quotient_value_neg1 != value_neg1:
        raise ValueError(f"frame degree coset is not {name}")


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
    A_sym: List[List[ex.Expr]]   # entries in r (branch r > 0)
    b_sym: List[ex.Expr]
    frame: Frame
    # reflection data; None when the chart domain is not invariant under
    # the reflection (e.g. a log chart defined only on the positive branch)
    A_neg1: Optional[rm.Mat] = None
    b_neg1: Optional[Tuple[Fraction, ...]] = None


def is_homogeneous_chart(scn: LineBundleScenario, chi: Sequence[ex.Expr],
                         policy: ZeroTestPolicy = DEFAULT_POLICY) -> ChartHomReport:
    """Decide whether h_r^* chi = A(r) chi + b(r) and return the affine data.

    Raises NotHomogeneousError when no affine relation with point-free
    coefficients exists.  Also verifies the homomorphism law
    (A, b)(rs) = (A, b)(r) . (A, b)(s) and that A agrees with the
    transition matrix of the chart frame on r > 0."""
    n = scn.total.dim
    chi = tuple(ex._coerce(c) for c in chi)
    if len(chi) != n:
        raise ChartError("chart map needs one component per dimension")
    for c in chi:
        scn.total.check_owns(c)
    pol = scn.policy_for(policy)
    cons = pol.constraints

    jac = [[ex.diff(c, v, cons) for v in scn.total.coords] for c in chi]
    detj = symmat.det(jac)
    if is_zero(detj, pol):
        raise DegeneracyError("chart map has a degenerate Jacobian")
    jinv = symmat.inverse(jac, detj)

    r = ex.var("r")
    hchi = [ex.subs(c, {FIBER: ex.mul(r, scn.mu)}) for c in chi]
    dh = [[ex.diff(c, v, cons) for v in scn.total.coords] for c in hchi]
    A_pt = symmat.simplify_mat(symmat.mat_mul(dh, jinv), cons)

    ok, bad = all_zero(_varies_along(A_pt, scn.total.coords, cons), pol)
    if not ok:
        (i, j, coord), _ = bad
        raise NotHomogeneousError(
            f"no affine relation: A entry ({i},{j}) varies along {coord}")

    b_pt = [ex.simplify(ex.sub(hchi[i],
                               ex.add(*[ex.mul(A_pt[i][j], chi[j]) for j in range(n)])),
                        cons) for i in range(n)]
    ok, bad = all_zero(_varies_along([b_pt], scn.total.coords, cons), pol)
    if not ok:
        (_, i, coord), _ = bad
        raise NotHomogeneousError(
            f"no affine relation: b entry {i} varies along {coord}")

    point = _sample_valid_point(scn, [detj], policy)
    point_map = {k: ex.rat(v) for k, v in point.items()}
    A_sym = [[ex.simplify(ex.subs(v, point_map), cons) for v in row] for row in A_pt]
    b_sym = [ex.simplify(ex.subs(v, point_map), cons) for v in b_pt]

    # homomorphism law for the affine pair
    s = ex.var("s")
    pol2 = pol.with_constraints((ex.Constraint("s", ">", 0),))
    As = [[ex.subs(v, {"r": s}) for v in row] for row in A_sym]
    bs = [ex.subs(v, {"r": s}) for v in b_sym]
    Ars = [[ex.subs(v, {"r": ex.mul(r, s)}) for v in row] for row in A_sym]
    brs = [ex.subs(v, {"r": ex.mul(r, s)}) for v in b_sym]
    prod = symmat.mat_mul(A_sym, As)

    def law_residuals():
        for i in range(n):
            for j in range(n):
                yield "A(rs) = A(r)A(s)", ex.sub(Ars[i][j], prod[i][j])
            rhs = ex.add(ex.add(*[ex.mul(A_sym[i][j], bs[j]) for j in range(n)]), b_sym[i])
            yield "b(rs) = A(r)b(s) + b(r)", ex.sub(brs[i], rhs)

    ok, bad = all_zero(law_residuals(), pol2)
    if not ok:
        raise NotHomogeneousError(f"affine data violates {bad[0]}")

    # agreement with the chart frame's transition on r > 0
    frame = chart_frame(scn, chi, jinv=jinv)
    tr = transition(frame, policy)
    if not tr.homogeneous:
        raise NotHomogeneousError("chart frame transition is not point-independent")
    if not all_zero((((i, j), ex.sub(tr.matrix_sym[i][j], A_sym[i][j]))
                     for i in range(n) for j in range(n)), pol)[0]:
        raise NotHomogeneousError("chart frame transition disagrees with the affine matrix")

    # reflection data (absent when h_{-1} leaves the chart domain)
    A_neg1 = b_neg1 = None
    try:
        chin = [ex.subs(c, {FIBER: ex.neg(scn.mu)}) for c in chi]
        dhn = [[ex.diff(c, v, cons) for v in scn.total.coords] for c in chin]
        A_negpt = symmat.mat_mul(dhn, jinv)
        A_neg1 = tuple(tuple(_fold_rational(ex.subs(v, point_map), cons, policy) for v in row)
                       for row in A_negpt)
        b_negpt = [ex.sub(chin[i], ex.add(*[ex.mul(A_negpt[i][j], chi[j])
                                            for j in range(n)])) for i in range(n)]
        b_neg1 = tuple(_fold_rational(ex.subs(v, point_map), cons, policy) for v in b_negpt)
    except (ex.DomainError, NotHomogeneousError, ZeroDivisionError):
        A_neg1 = b_neg1 = None

    return ChartHomReport(A_sym, b_sym, frame, A_neg1, b_neg1)


def chart_frame(scn: LineBundleScenario, chi: Sequence[ex.Expr], jinv=None) -> Frame:
    """The coordinate frame of a chart map: columns of the inverse Jacobian."""
    cons = scn.total.constraints
    if jinv is None:
        jac = [[ex.diff(c, v, cons) for v in scn.total.coords] for c in chi]
        jinv = symmat.inverse(jac)
    jinv = symmat.simplify_mat(jinv, cons)
    return frame_from_matrix(scn, jinv)
