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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from . import expr as ex
from . import numtape
from . import symmat
from .chart import ChartError
from .frames import Frame, is_homogeneous_chart, require_coset
from .groups import SP, std_J
from .linebundle import DEG1, LineBundleScenario
from .metric import DegeneracyError
from .tensors import (KForm, VectorField, coordinate_field, d, interior,
                      lie_bracket, one_form, wedge, zero_form)
from .zerotest import ZeroTestPolicy, DEFAULT_POLICY, all_zero, is_zero, sample_points

__all__ = ["ContactPair", "InvalidPairError", "PairReport", "pair_to_omega",
           "omega_to_pair", "check_pair", "sp_frame_from_omega",
           "frame_to_omega", "IntegrabilityReport", "integrability_report",
           "darboux_homogeneous_chart", "DarbouxChart", "standard_darboux_pair"]


class InvalidPairError(ValueError):
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
        raise ValueError("form is not homogeneous of degree 1")
    E = scn.euler()
    theta = scn.descend_form(interior(E, omega), DEG1, policy)
    upsilon = scn.descend_form(interior(E, d(omega)), DEG1, policy)
    return ContactPair(scn, theta, upsilon)


def _theta_pivot(pair: ContactPair, policy: ZeroTestPolicy) -> int:
    """Pivot coordinate for solving ker(theta): the coefficient with the
    largest magnitude across the sample points; a point where all
    coefficients vanish invalidates the pair."""
    scn = pair.scenario
    import random
    pol = policy.with_constraints(scn.base.constraints)
    rng = random.Random(pol.seed ^ 0x7E7A)
    names = list(scn.base.coords)
    pts = sample_points(names, pol, rng)
    n = scn.base.dim
    cols = [[0.0] * len(pts) if c.is_zero_literal()
            else [float(v) for v in numtape.eval_points(c, pts)]
            for c in (pair.theta.coeff((i,)) for i in range(n))]
    scores = [min(abs(v) for v in col) for col in cols]
    for j, p in enumerate(pts):
        if max(abs(col[j]) for col in cols) <= policy.tolerance:
            raise InvalidPairError(f"theta vanishes at sample point {p}")
    best = max(range(n), key=lambda i: (scores[i], -i))
    if scores[best] == 0.0:
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
    theta_nowhere_zero: bool
    pivot: int
    nondeg_on_H: bool
    omega_nondegenerate: bool
    equivalence_consistent: bool      # theorem (i) <-> (ii)
    curvature_routes_agree: bool      # bracket-mod-H vs -d(theta)|_H
    gram: List[List[ex.Expr]]


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
    W = _form_matrix(omega)
    omega_nondeg = not is_zero(symmat.det(W),
                               policy.with_constraints(scn.total.constraints))

    return PairReport(
        theta_nowhere_zero=True,
        pivot=piv,
        nondeg_on_H=nondeg_on_H,
        omega_nondegenerate=omega_nondeg,
        equivalence_consistent=(nondeg_on_H == omega_nondeg),
        curvature_routes_agree=routes_agree,
        gram=gram,
    )


def _form_matrix(omega: KForm) -> List[List[ex.Expr]]:
    """Full antisymmetric coefficient matrix of a 2-form."""
    n = omega.chart.dim
    W = [[ex.ZERO] * n for _ in range(n)]
    for (i, j), c in omega.coeffs.items():
        W[i][j] = c
        W[j][i] = ex.neg(c)
    return W


def sp_frame_from_omega(scn: LineBundleScenario, omega: KForm,
                        policy: ZeroTestPolicy = DEFAULT_POLICY) -> Frame:
    """Symplectic Gram-Schmidt on the promoted derivation basis against the
    fiberwise pairing of omega; returns a frame whose transition is
    diag(I_k, r I_k) and which reconstructs omega."""
    total = scn.total
    n1 = total.dim
    if n1 % 2:
        raise ChartError("total dimension must be even")
    k = n1 // 2
    pol = policy.with_constraints(total.constraints)

    # degree-0 derivation basis upstairs: coordinate lifts then the Euler field
    ders = [coordinate_field(total, i) for i in range(scn.base.dim)] + [scn.euler()]
    Wfun = [[ex.simplify(ex.div(omega(ders[a], ders[b]), scn.mu), total.constraints)
             for b in range(n1)] for a in range(n1)]

    # pairing must be fiber-constant for a degree-1 form: certified by caller
    vecs = [tuple(ex.ONE if i == a else ex.ZERO for i in range(n1)) for a in range(n1)]

    def pairing(u, v):
        parts = []
        for a in range(n1):
            for b in range(n1):
                if Wfun[a][b].is_zero_literal():
                    continue
                parts.append(ex.mul(u[a], v[b], Wfun[a][b]))
        return ex.simplify(ex.add(*parts) if parts else ex.ZERO, total.constraints)

    x_vecs, y_vecs = [], []
    remaining = list(vecs)
    while remaining:
        u = remaining.pop(0)
        degenerate, bad = all_zero(((idx, pairing(u, v)) for idx, v in enumerate(remaining)), pol)
        if degenerate:
            raise DegeneracyError("pairing is degenerate: no symplectic partner")
        v = remaining.pop(bad[0])
        norm = pairing(u, v)
        v = tuple(ex.div(c, norm) for c in v)
        fixed = []
        for w in remaining:
            a = pairing(w, v)
            b = pairing(w, u)
            w2 = tuple(ex.simplify(ex.add(w[i], ex.neg(ex.mul(a, u[i])),
                                          ex.mul(b, v[i])), total.constraints)
                       for i in range(n1))
            fixed.append(w2)
        remaining = fixed
        x_vecs.append(u)
        y_vecs.append(v)

    def to_field(coeffs) -> VectorField:
        comps = [ex.ZERO] * n1
        out = None
        for a, c in enumerate(coeffs):
            if c.is_zero_literal():
                continue
            piece = ders[a].scale(c)
            out = piece if out is None else out + piece
        return out if out is not None else VectorField(total, tuple(comps))

    comps = [to_field(u) for u in x_vecs]
    muinv = ex.pw(scn.mu, Fraction(-1))
    comps += [to_field(v).scale(muinv) for v in y_vecs]
    frame = Frame(scn, tuple(comps))
    frame.check_independent(policy)
    return frame


def frame_to_omega(frame: Frame, policy: ZeroTestPolicy = DEFAULT_POLICY,
                   quotient: str = "identity") -> KForm:
    """Sum of coframe wedges xi^i ^ eta_i for a frame whose degree coset in
    N(Sp_k)/Sp_k is the identity map (contact case) or trivial
    (cosymplectic case); pass quotient='any' to skip the degree check."""
    scn = frame.scenario
    n1 = scn.total.dim
    if n1 % 2:
        raise ChartError("total dimension must be even")
    k = n1 // 2
    if quotient != "any":
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
    integrable: bool                 # omega nondegenerate and d(omega) = 0
    contact: bool                    # upsilon = 0 and kernel curvature nondeg
    homogeneous_integrable: bool
    falsification: Optional[str]     # set when the three verdicts disagree
    witness_chart: Optional[Tuple[ex.Expr, ...]]
    chart_constructed: bool
    note: str = ""


def integrability_report(pair: ContactPair,
                         policy: ZeroTestPolicy = DEFAULT_POLICY) -> IntegrabilityReport:
    scn = pair.scenario
    pol_base = policy.with_constraints(scn.base.constraints)
    pol_tot = policy.with_constraints(scn.total.constraints)
    rep = check_pair(pair, policy)

    omega = pair_to_omega(pair)
    domega = d(omega)
    closed, _ = all_zero(domega.coeffs.items(), pol_tot)
    integrable = rep.omega_nondegenerate and closed

    ups_zero, _ = all_zero(pair.upsilon.coeffs.items(), pol_base)
    contact = ups_zero and rep.nondeg_on_H

    witness = None
    constructed = False
    note = ""
    hom_int = False
    if rep.omega_nondegenerate and ups_zero:
        built = _try_darboux_chart(pair, policy)
        if built is not None:
            witness, ok, why = built
            constructed = ok
            hom_int = ok
            note = why
        else:
            hom_int = contact
            note = ("base coordinates are not Darboux for theta; homogeneous "
                    "integrability scored through the integrability equivalence")

    fals = None
    verdicts = {"integrable": integrable, "contact": contact,
                "homogeneous_integrable": hom_int}
    if len(set(verdicts.values())) > 1:
        fals = ("theorem equivalence violated: " +
                ", ".join(f"{k}={v}" for k, v in verdicts.items()))
    return IntegrabilityReport(integrable, contact, hom_int, fals, witness,
                               constructed, note)


def _try_darboux_chart(pair: ContactPair, policy: ZeroTestPolicy):
    """When the base coordinates are Darboux for theta
    (theta = f (du - sum p_i dx^i) in some coordinate assignment), build the
    homogeneous chart (u, x^i, -mu f, mu f p_i) and verify it.  Every
    coordinate is tried as the u-candidate."""
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
        ok, why = _verify_darboux_chart(scn, chi, pair_to_omega(pair), policy)
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
    except Exception as err:
        return False, f"chart verification failed: {err}"
    frame = rep.frame.components
    n1 = len(frame)
    J = std_J(n1 // 2)
    ok, bad = all_zero(itertools.chain(
        affine_residuals(rep),
        ((f"coordinate frame is not symplectic at ({a},{b})",
          ex.sub(omega(frame[a], frame[b]), ex.rat(J[a][b])))
         for a in range(n1) for b in range(n1))), scn.policy_for(policy))
    return (True, verified) if ok else (False, bad[0])


@dataclass(frozen=True)
class DarbouxChart:
    scenario: LineBundleScenario
    pair: ContactPair
    omega: KForm
    chi: Tuple[ex.Expr, ...]
    verified: bool
    detail: str


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


def darboux_homogeneous_chart(k: int, policy: ZeroTestPolicy = DEFAULT_POLICY
                              ) -> DarbouxChart:
    """The model chart (u, x^i, -mu, mu p_i) for the standard pair, with
    full verification of the affine data and the symplectic frame property."""
    pair = standard_darboux_pair(k)
    scn = pair.scenario
    built = _try_darboux_chart(pair, policy)
    if built is None:
        raise RuntimeError("standard pair unexpectedly not recognized")
    chi, ok, why = built
    return DarbouxChart(scn, pair, pair_to_omega(pair), chi, ok, why)
