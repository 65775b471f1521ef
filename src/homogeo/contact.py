"""Identity-degree symplectic frame structures and their base dictionary.

A pair (theta, upsilon) of bundle-valued forms on the base (a nowhere-zero
1-form and a 2-form) corresponds to a degree-1 homogeneous nondegenerate
2-form upstairs via

    omega = d(mu * theta) + mu * upsilon,

with inverse theta = descend(i_E omega), upsilon = descend(i_E d omega).
The three integrability notions (closedness upstairs, vanishing upsilon
with nondegenerate kernel curvature, existence of a homogeneous Darboux
chart) are computed independently; the asserted equivalence is checked,
and a disagreement is a falsification event, never silently repaired.

Both Sp degree cosets share two pieces kept here: `symplectic_basis`, the
package's one symplectic Gram-Schmidt (the Sp frame of omega here, the flat
chart of a constant cosymplectic pair), and `settle_integrability`, the one
rule that turns a kind's verdicts and chart attempt into its
`IntegrabilityReport`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import expr as ex
from . import symmat
from .chart import ChartError
from .frames import Frame, is_homogeneous_chart, require_coset
from .groups import SP, std_J
from .linebundle import DEG1, DegreeError, LineBundleScenario
from .metric import DegeneracyError
from .tensors import (KForm, VectorField, coordinate_field, d, interior,
                      lie_bracket, one_form, wedge, zero_form)
from .zerotest import ZeroTestPolicy, DEFAULT_POLICY, all_zero, is_zero, sample_values

__all__ = ["ContactPair", "InvalidPairError", "PairReport", "pair_to_omega",
           "omega_to_pair", "check_pair", "symplectic_basis", "sp_frame_from_omega",
           "frame_to_omega", "IntegrabilityReport", "settle_integrability",
           "integrability_report", "standard_darboux_pair"]


class InvalidPairError(ex.InvalidObjectError):
    pass


@dataclass(frozen=True)
class ContactPair:
    scenario: LineBundleScenario
    theta: KForm      # degree-1 form on the base, coefficients wrt lambda_0
    upsilon: KForm    # degree-2 form on the base

    def __post_init__(self):
        if self.theta.chart != self.scenario.base or self.theta.degree != 1:
            raise ChartError("theta must be a 1-form on the base chart")
        if self.upsilon.chart != self.scenario.base or self.upsilon.degree != 2:
            raise ChartError("upsilon must be a 2-form on the base chart")


def pair_to_omega(pair: ContactPair) -> KForm:
    """omega = d(mu theta) + mu upsilon, a degree-1 2-form upstairs."""
    scn = pair.scenario
    theta_up = scn.include_form(pair.theta).scale(scn.mu)
    ups_up = scn.include_form(pair.upsilon).scale(scn.mu)
    return d(theta_up) + ups_up


def omega_to_pair(scn: LineBundleScenario, omega: KForm,
                  policy: ZeroTestPolicy = DEFAULT_POLICY) -> ContactPair:
    """theta = descend(i_E omega), upsilon = descend(i_E d omega)."""
    if not scn.is_homogeneous(omega, DEG1, policy):
        raise DegreeError("form is not homogeneous of degree 1")
    E = scn.euler()
    theta = scn.descend_form(interior(E, omega), DEG1, policy)
    upsilon = scn.descend_form(interior(E, d(omega)), DEG1, policy)
    return ContactPair(scn, theta, upsilon)


def _theta_pivot(pair: ContactPair, policy: ZeroTestPolicy) -> int:
    """Pivot coordinate for solving ker(theta): the coefficient whose least
    |value| at the points of zerotest.sample_values (undefined: 0) is
    largest; a point where every coefficient is 0 invalidates the pair."""
    scn = pair.scenario
    pol = policy.with_constraints(scn.base.constraints)
    n = scn.base.dim
    rows = []
    for p, vals in sample_values([pair.theta.coeff((i,)) for i in range(n)],
                                 list(scn.base.coords), pol, 0x7E7A):
        if all(v == 0 for v in vals):
            raise InvalidPairError("theta vanishes at sample point "
                                   + ", ".join(f"{k}={v}" for k, v in p.items()))
        rows.append([0 if v is None else abs(v) for v in vals])
    scores = [min(col) for col in zip(*rows)]
    best = max(range(n), key=lambda i: (scores[i], -i))
    if scores[best] == 0:
        # fall back: first coefficient that is not identically zero
        zero, bad = all_zero(((i, pair.theta.coeff((i,))) for i in range(n)), pol)
        if zero:
            raise InvalidPairError("theta is identically zero")
        return bad[0]
    return best


def kernel_basis(pair: ContactPair, policy: ZeroTestPolicy = DEFAULT_POLICY
                 ) -> Tuple[int, List[VectorField]]:
    """Basis of ker(theta): for each non-pivot coordinate i,
    E_i = d_i - (theta_i / theta_pivot) d_pivot."""
    scn = pair.scenario
    piv = _theta_pivot(pair, policy)
    fpiv = pair.theta.coeff((piv,))
    basis = []
    for i in range(scn.base.dim):
        if i == piv:
            continue
        comps = [ex.ZERO] * scn.base.dim
        comps[i] = ex.ONE
        comps[piv] = ex.neg(ex.div(pair.theta.coeff((i,)), fpiv))
        basis.append(VectorField(scn.base, tuple(comps)))
    return piv, basis


@dataclass(frozen=True)
class PairReport:
    pivot: int
    nondeg_on_H: bool
    omega_nondegenerate: bool
    equivalence_consistent: bool      # theorem (i) <-> (ii)
    curvature_routes_agree: bool      # bracket-mod-H vs -d(theta)|_H
    gram: List[List[ex.Expr]]
    omega: KForm                      # pair_to_omega(pair), built once


def check_pair(pair: ContactPair, policy: ZeroTestPolicy = DEFAULT_POLICY) -> PairReport:
    scn = pair.scenario
    pol = policy.with_constraints(scn.base.constraints)
    piv, basis = kernel_basis(pair, policy)   # raises on vanishing theta

    dtheta = d(pair.theta)
    m = len(basis)
    # curvature via bracket mod H: theta([X, Y])
    brackets = {(a, b): pair.theta(lie_bracket(basis[a], basis[b]))
                for a in range(m) for b in range(m) if a != b}
    routes_agree, _ = all_zero(
        (((a, b), ex.sub(br, ex.neg(dtheta(basis[a], basis[b]))))
         for (a, b), br in brackets.items()), pol)
    gram = [[ex.ZERO] * m for _ in range(m)]
    for (a, b), br in brackets.items():
        gram[a][b] = ex.sub(pair.upsilon(basis[a], basis[b]), br)

    nondeg_on_H = not is_zero(symmat.det(gram), pol) if m else True

    omega = pair_to_omega(pair)
    omega_nondeg = not is_zero(symmat.det(omega.rows()),
                               policy.with_constraints(scn.total.constraints))

    return PairReport(
        pivot=piv,
        nondeg_on_H=nondeg_on_H,
        omega_nondegenerate=omega_nondeg,
        equivalence_consistent=(nondeg_on_H == omega_nondeg),
        curvature_routes_agree=routes_agree,
        gram=gram,
        omega=omega,
    )


def symplectic_basis(W, policy: ZeroTestPolicy) -> Tuple[List[tuple], List[tuple]]:
    """Symplectic Gram-Schmidt on an antisymmetric matrix W of ex.Expr
    entries: coefficient vectors x_1..x_k, y_1..y_k with
    W(x_i, y_j) = delta_ij and W(x_i, x_j) = W(y_i, y_j) = 0.  Each x is
    the first remaining vector and its partner y the first remaining one
    it pairs with nonzero (all_zero under `policy`, whose constraints also
    simplify the pairings); DegeneracyError when there is none."""
    n = len(W)
    cons = policy.constraints

    def pairing(u, v):
        parts = [ex.mul(u[a], v[b], W[a][b]) for a in range(n) for b in range(n)
                 if not W[a][b].is_zero_literal()]
        return ex.simplify(ex.add(*parts) if parts else ex.ZERO, cons)

    xs, ys = [], []
    remaining = [tuple(ex.ONE if i == a else ex.ZERO for i in range(n)) for a in range(n)]
    while remaining:
        u = remaining.pop(0)
        degenerate, bad = all_zero(((idx, pairing(u, v)) for idx, v in enumerate(remaining)),
                                   policy)
        if degenerate:
            raise DegeneracyError("pairing is degenerate: no symplectic partner")
        v = remaining.pop(bad[0])
        norm = pairing(u, v)
        v = tuple(ex.div(c, norm) for c in v)
        fixed = []
        for w in remaining:
            a, b = pairing(w, v), pairing(w, u)
            fixed.append(tuple(ex.simplify(ex.add(w[i], ex.neg(ex.mul(a, u[i])),
                                                  ex.mul(b, v[i])), cons)
                               for i in range(n)))
        remaining = fixed
        xs.append(u)
        ys.append(v)
    return xs, ys


def sp_frame_from_omega(scn: LineBundleScenario, omega: KForm,
                        policy: ZeroTestPolicy = DEFAULT_POLICY) -> Frame:
    """symplectic_basis of the fiberwise pairing of omega on the promoted
    derivation basis; returns a frame whose transition is diag(I_k, r I_k)
    and which reconstructs omega.  DegreeError unless omega is homogeneous
    of degree 1, so that the pairing is fiber-constant."""
    total = scn.total
    n1 = total.dim
    if n1 % 2:
        raise ChartError("total dimension must be even")
    if not scn.is_homogeneous(omega, DEG1, policy):
        raise DegreeError("form is not homogeneous of degree 1")

    # degree-0 derivation basis upstairs: coordinate lifts then the Euler field
    ders = [coordinate_field(total, i) for i in range(scn.base.dim)] + [scn.euler()]
    W = [[ex.simplify(ex.div(omega(ders[a], ders[b]), scn.mu), total.constraints)
          for b in range(n1)] for a in range(n1)]
    x_vecs, y_vecs = symplectic_basis(W, policy.with_constraints(total.constraints))

    def to_field(coeffs) -> VectorField:
        out = VectorField(total, (ex.ZERO,) * n1)
        for der, c in zip(ders, coeffs):
            if not c.is_zero_literal():
                out = out + der.scale(c)
        return out

    comps = [to_field(u) for u in x_vecs]
    muinv = ex.pw(scn.mu, Fraction(-1))
    comps += [to_field(v).scale(muinv) for v in y_vecs]
    frame = Frame(scn, tuple(comps))
    frame.check_independent(policy)
    return frame


def frame_to_omega(frame: Frame, policy: ZeroTestPolicy = DEFAULT_POLICY,
                   quotient: str = "identity") -> KForm:
    """Sum of coframe wedges xi^i ^ eta_i for a frame whose degree coset in
    N(Sp_k)/Sp_k is the identity map (quotient='identity', the contact
    case) or trivial (quotient='trivial', the cosymplectic case)."""
    scn = frame.scenario
    n1 = scn.total.dim
    if n1 % 2:
        raise ChartError("total dimension must be even")
    k = n1 // 2
    identity = quotient == "identity"
    require_coset(frame, SP(k), "Sp", ex.var("r") if identity else ex.ONE,
                  Fraction(-1 if identity else 1), f"the {quotient} map", policy)
    co = symmat.simplify_mat(symmat.inverse(frame.matrix()), scn.total.constraints)
    out = zero_form(scn.total, 2)
    for i in range(k):
        xi = one_form(scn.total, co[i])
        eta = one_form(scn.total, co[k + i])
        out = out + wedge(xi, eta)
    return out


@dataclass(frozen=True)
class IntegrabilityReport:
    """The integrability verdicts of a contact or cosymplectic pair."""
    integrable: bool                 # omega nondegenerate and d(omega) = 0
    base: bool                       # the kind's base-side criterion
    homogeneous_integrable: bool
    falsification: Optional[str]     # set when the verdicts disagree
    witness_chart: Optional[Tuple[ex.Expr, ...]]
    chart_constructed: bool
    note: str = ""


def settle_integrability(verdicts: Dict[str, bool], base: str,
                         attempt: Optional[Callable[[], Optional[tuple]]],
                         fallback: Tuple[bool, str]) -> IntegrabilityReport:
    """The report of a pair whose kind computed `verdicts` (named, in the
    order of its equivalence: `integrable` and the base-side criterion
    named `base`).  homogeneous_integrable is False when `attempt` is None
    (the kind's gate is shut); else attempt() builds and verifies a chart,
    (chi, ok, why), or is None outside the constructive case, where the
    verdict of `fallback` (verdict, reason) is scored instead.  Disagreeing
    verdicts, homogeneous_integrable last, are a falsification."""
    witness, constructed, note, hom_int = None, False, "", False
    if attempt is not None:
        built = attempt()
        if built is None:
            hom_int, why = fallback
            note = (f"{why}; homogeneous integrability scored through the "
                    "integrability equivalence")
        else:
            witness, constructed, note = built
            hom_int = constructed
    verdicts = {**verdicts, "homogeneous_integrable": hom_int}
    fals = None
    if len(set(verdicts.values())) > 1:
        fals = ("theorem equivalence violated: " +
                ", ".join(f"{k}={v}" for k, v in verdicts.items()))
    return IntegrabilityReport(verdicts["integrable"], verdicts[base], hom_int, fals,
                               witness, constructed, note)


def integrability_report(pair: ContactPair, rep: PairReport,
                         policy: ZeroTestPolicy = DEFAULT_POLICY) -> IntegrabilityReport:
    """The three integrability verdicts of `pair`, whose check_pair report
    is `rep`; its base-side criterion is `contact`, and the Darboux chart is
    attempted when omega is nondegenerate and upsilon = 0."""
    scn = pair.scenario
    closed, _ = all_zero(d(rep.omega).coeffs.items(),
                         policy.with_constraints(scn.total.constraints))
    ups_zero, _ = all_zero(pair.upsilon.coeffs.items(),
                           policy.with_constraints(scn.base.constraints))
    contact = ups_zero and rep.nondeg_on_H
    return settle_integrability(
        {"integrable": rep.omega_nondegenerate and closed, "contact": contact},
        "contact",
        (lambda: _try_darboux_chart(pair, rep.omega, policy))
        if rep.omega_nondegenerate and ups_zero else None,
        (contact, "base coordinates are not Darboux for theta"))


def _try_darboux_chart(pair: ContactPair, omega: KForm, policy: ZeroTestPolicy):
    """When the base coordinates are Darboux for theta
    (theta = f (du - sum p_i dx^i) in some coordinate assignment), build the
    homogeneous chart (u, x^i, -mu f, mu f p_i) and verify it against
    omega = pair_to_omega(pair).  Every coordinate is tried as the
    u-candidate."""
    scn = pair.scenario
    pol = policy.with_constraints(scn.base.constraints)
    n = scn.base.dim
    for piv in range(n):
        f = pair.theta.coeff((piv,))
        if f.is_zero_literal() or is_zero(f, pol):
            continue
        p_set, x_pairs = [], {}
        for i in range(n):
            if i == piv:
                continue
            c = ex.simplify(ex.neg(ex.div(pair.theta.coeff((i,)), f)),
                            scn.base.constraints)
            if is_zero(c, pol):
                p_set.append(i)
            else:
                x_pairs[i] = c
        # each x coordinate must pair with a distinct p coordinate variable
        pairing = {}
        ok = True
        for i, c in x_pairs.items():
            match = None
            for j in p_set:
                if j not in pairing.values() and \
                        is_zero(ex.sub(c, scn.base.var(scn.base.coords[j])), pol):
                    match = j
                    break
            if match is None:
                ok = False
                break
            pairing[i] = match
        if not ok or len(pairing) != len(p_set):
            continue

        mu = scn.mu
        lam = ex.mul(mu, f)
        chi = [scn.base.var(scn.base.coords[piv])]
        chi += [scn.base.var(scn.base.coords[i]) for i in sorted(pairing)]
        chi.append(ex.neg(lam))
        chi += [ex.mul(lam, scn.base.var(scn.base.coords[pairing[i]]))
                for i in sorted(pairing)]
        chi = tuple(chi)
        ok, why = _verify_darboux_chart(scn, chi, omega, policy)
        return chi, ok, why
    return None


def _verify_darboux_chart(scn: LineBundleScenario, chi, omega: KForm,
                          policy: ZeroTestPolicy) -> Tuple[bool, str]:
    """The chart must be homogeneous with A = diag(I_k, r I_k), b = 0, and
    its coordinate frame must be a symplectic frame of omega."""
    def affine_residuals(rep):
        n1 = len(rep.b_sym)
        r = ex.var("r")
        for i in range(n1):
            for j in range(n1):
                want = (ex.ONE if i < n1 // 2 else r) if i == j else ex.ZERO
                yield (f"chart matrix is not diag(I_k, r I_k) at ({i},{j})",
                       ex.sub(rep.A_sym[i][j], want))
            yield f"chart translation part b[{i}] is nonzero", rep.b_sym[i]

    return _verify_symplectic_chart(scn, chi, omega, affine_residuals, policy,
                                    "homogeneous Darboux chart constructed and verified")


def _verify_symplectic_chart(scn: LineBundleScenario, chi, omega: KForm, affine_residuals,
                             policy: ZeroTestPolicy, verified: str) -> Tuple[bool, str]:
    """(True, verified) when chi is a homogeneous chart, each (failure note,
    residual) of affine_residuals(report) vanishes and the coordinate frame
    is symplectic for omega; otherwise (False, the first failure note)."""
    try:
        rep = is_homogeneous_chart(scn, chi, policy)
    except ex.InvalidObjectError as err:
        return False, f"chart verification failed: {err}"
    frame = rep.frame.components
    n1 = len(frame)
    J = symmat.mat(std_J(n1 // 2))
    ok, bad = all_zero(itertools.chain(
        affine_residuals(rep),
        ((f"coordinate frame is not symplectic at ({a},{b})",
          ex.sub(omega(frame[a], frame[b]), J[a][b]))
         for a in range(n1) for b in range(n1))), scn.policy_for(policy))
    return (True, verified) if ok else (False, bad[0])


def standard_darboux_pair(k: int) -> ContactPair:
    """theta = du - sum p_i dx^i, upsilon = 0 on base coordinates
    (u, x1..x_{k-1}, p1..p_{k-1})."""
    if k < 1:
        raise ValueError("k must be positive")
    coords = ["u"] + [f"x{i}" for i in range(1, k)] + [f"p{i}" for i in range(1, k)]
    scn = LineBundleScenario(f"darboux_k{k}", tuple(coords))
    coeffs = {(0,): ex.ONE}
    for i in range(1, k):
        coeffs[(i,)] = ex.neg(scn.base.var(f"p{i}"))
    theta = KForm(scn.base, 1, coeffs)
    return ContactPair(scn, theta, zero_form(scn.base, 2))
