"""Trivial-degree symplectic frame structures: the (Omega, eta) dictionary.

On a trivialized bundle a fiber-invariant nondegenerate 2-form upstairs
identifies with a pair (Omega, eta) of a 2-form and a 1-form on the base
through

    omega = Omega + (dmu / mu) ^ eta,

pinned so that the fiber contraction i_E omega equals eta.  Nondegeneracy
of omega is equivalent to eta ^ Omega^{k-1} being a volume form, and
closedness to dOmega = deta = 0; both equivalences are computed on both
sides and compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from . import expr as ex
from . import ratmat as rm
from . import symmat
from .chart import ChartError
from .contact import _form_matrix, _verify_symplectic_chart
from .linebundle import LineBundleScenario
from .tensors import KForm, d, one_form, wedge
from .zerotest import ZeroTestPolicy, DEFAULT_POLICY, all_zero, is_zero

__all__ = ["CosymplecticPair", "pair_to_omega0", "check_cosymplectic",
           "CosymplecticReport", "integrability_report0",
           "Integrability0Report", "standard_cosymplectic_pair"]


@dataclass(frozen=True)
class CosymplecticPair:
    scenario: LineBundleScenario
    Omega: KForm    # 2-form on the base
    eta: KForm      # 1-form on the base

    def __post_init__(self):
        if self.Omega.chart != self.scenario.base or self.Omega.degree != 2:
            raise ChartError("Omega must be a 2-form on the base chart")
        if self.eta.chart != self.scenario.base or self.eta.degree != 1:
            raise ChartError("eta must be a 1-form on the base chart")


def pair_to_omega0(pair: CosymplecticPair) -> KForm:
    """omega = Omega + (dmu/mu) ^ eta, fiber-invariant upstairs."""
    scn = pair.scenario
    n = scn.base.dim
    dlog_mu = one_form(scn.total, [ex.ZERO] * n + [ex.pw(scn.mu, Fraction(-1))])
    return scn.include_form(pair.Omega) + wedge(dlog_mu, scn.include_form(pair.eta))


@dataclass(frozen=True)
class CosymplecticReport:
    volume: bool                 # eta ^ Omega^{k-1} is a volume form
    dOmega_zero: bool
    deta_zero: bool
    cocycle: bool                # both closed
    omega_nondegenerate: bool
    omega_closed: bool
    nondegeneracy_consistent: bool   # volume <-> omega nondegenerate
    closure_consistent: bool         # cocycle <-> omega closed


def check_cosymplectic(pair: CosymplecticPair, k: int,
                       policy: ZeroTestPolicy = DEFAULT_POLICY) -> CosymplecticReport:
    scn = pair.scenario
    if scn.base.dim != 2 * k - 1:
        raise ChartError(f"base dimension {scn.base.dim} does not match k={k}")
    pol_b = policy.with_constraints(scn.base.constraints)
    pol_t = policy.with_constraints(scn.total.constraints)

    top = pair.eta
    for _ in range(k - 1):
        top = wedge(top, pair.Omega)
    vol_coeff = top.coeff(tuple(range(scn.base.dim)))
    volume = not is_zero(vol_coeff, pol_b)

    dOm = d(pair.Omega)
    deta = d(pair.eta)
    dOmega_zero, _ = all_zero(dOm.coeffs.items(), pol_b)
    deta_zero, _ = all_zero(deta.coeffs.items(), pol_b)

    omega = pair_to_omega0(pair)
    omega_nondeg = not is_zero(symmat.det(_form_matrix(omega)), pol_t)
    domega = d(omega)
    omega_closed, _ = all_zero(domega.coeffs.items(), pol_t)

    return CosymplecticReport(
        volume=volume,
        dOmega_zero=dOmega_zero,
        deta_zero=deta_zero,
        cocycle=dOmega_zero and deta_zero,
        omega_nondegenerate=omega_nondeg,
        omega_closed=omega_closed,
        nondegeneracy_consistent=(volume == omega_nondeg),
        closure_consistent=((dOmega_zero and deta_zero) == omega_closed),
    )


@dataclass(frozen=True)
class Integrability0Report:
    cocycle: bool
    integrable: bool
    homogeneous_integrable: bool
    falsification: Optional[str]
    witness_chart: Optional[Tuple[ex.Expr, ...]]
    chart_constructed: bool
    note: str = ""


def integrability_report0(pair: CosymplecticPair, k: int,
                          policy: ZeroTestPolicy = DEFAULT_POLICY) -> Integrability0Report:
    scn = pair.scenario
    rep = check_cosymplectic(pair, k, policy)
    cocycle = rep.omega_closed
    integrable = rep.omega_nondegenerate and cocycle

    witness = None
    constructed = False
    note = ""
    hom_int = False
    if rep.omega_nondegenerate and cocycle:
        chi = _flat_chart_for_constant_pair(pair, policy)
        if chi is not None:
            ok, why = _verify_flat_chart(scn, chi, pair, policy)
            witness, constructed, hom_int, note = chi, ok, ok, why
        else:
            hom_int = integrable
            note = ("pair has non-constant coefficients; homogeneous "
                    "integrability scored through the integrability equivalence")

    fals = None
    verdicts = {"cocycle_and_nondeg": integrable, "integrable": integrable,
                "homogeneous_integrable": hom_int}
    if len(set(verdicts.values())) > 1:
        fals = ("theorem equivalence violated: " +
                ", ".join(f"{key}={v}" for key, v in verdicts.items()))
    return Integrability0Report(cocycle, integrable, hom_int, fals, witness,
                                constructed, note)


def _constant_value(e: ex.Expr) -> Optional[Fraction]:
    e = ex.simplify(e)
    if isinstance(e, ex.Rat):
        return e.value
    return None


def _flat_chart_for_constant_pair(pair: CosymplecticPair,
                                  policy: ZeroTestPolicy):
    """For a constant-coefficient nondegenerate pair, run exact linear
    symplectic reduction on the pairing of (Euler, coordinate lifts) and
    emit the dual chart in (log mu, x) coordinates."""
    scn = pair.scenario
    n = scn.base.dim
    W = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for j in range(n):
        v = _constant_value(pair.eta.coeff((j,)))
        if v is None:
            return None
        W[0][j + 1] = v
        W[j + 1][0] = -v
    for (i, j), c in pair.Omega.coeffs.items():
        v = _constant_value(c)
        if v is None:
            return None
        W[i + 1][j + 1] = v
        W[j + 1][i + 1] = -v

    m = n + 1
    basis = [tuple(Fraction(int(i == a)) for i in range(m)) for a in range(m)]

    def pairing(u, v):
        return sum(u[a] * W[a][b] * v[b] for a in range(m) for b in range(m))

    xs, ys = [], []
    remaining = list(basis)
    while remaining:
        u = remaining.pop(0)
        idx = next((i for i, v in enumerate(remaining) if pairing(u, v) != 0), None)
        if idx is None:
            return None  # degenerate
        v = remaining.pop(idx)
        nrm = pairing(u, v)
        v = tuple(c / nrm for c in v)
        remaining = [tuple(w[i] - pairing(w, v) * u[i] + pairing(w, u) * v[i]
                           for i in range(m)) for w in remaining]
        xs.append(u)
        ys.append(v)

    T = [[(xs + ys)[a][i] for a in range(m)] for i in range(m)]  # columns = basis
    Tinv = rm.rinv(rm.rmat(T))
    zeta = [ex.log_(scn.mu)] + [scn.base.var(c) for c in scn.base.coords]
    chi = tuple(ex.add(*[ex.mul(ex.rat(Tinv[a][b]), zeta[b]) for b in range(m)])
                for a in range(m))
    return chi


def _verify_flat_chart(scn: LineBundleScenario, chi, pair: CosymplecticPair,
                       policy: ZeroTestPolicy) -> Tuple[bool, str]:
    """Chart must be homogeneous with A = I and constant b(r) proportional
    to log r, and its frame must be a symplectic frame of omega."""
    def affine_residuals(rep):
        n1 = len(rep.b_sym)
        for i in range(n1):
            for j in range(n1):
                yield ("chart matrix is not the identity",
                       ex.sub(rep.A_sym[i][j], ex.ONE if i == j else ex.ZERO))
            # b entries must be multiples of log r
            b = rep.b_sym[i]
            yield (f"chart translation b[{i}] is not a multiple of log r",
                   ex.ZERO if b.is_zero_literal() else
                   ex.diff(ex.div(b, ex.log_(ex.var("r"))), "r", (ex.Constraint("r", ">", 0),)))

    return _verify_symplectic_chart(scn, chi, pair_to_omega0(pair), affine_residuals, policy,
                                    "homogeneous flat chart constructed and verified")


def standard_cosymplectic_pair(k: int) -> CosymplecticPair:
    """Omega = sum dx_i ^ dy_i, eta = dz on base (z, x1, y1, ...)."""
    coords = ["z"]
    for i in range(1, k):
        coords += [f"x{i}", f"y{i}"]
    scn = LineBundleScenario(f"cosymplectic_k{k}", tuple(coords))
    om = {}
    for i in range(1, k):
        om[(2 * i - 1, 2 * i)] = ex.ONE
    Omega = KForm(scn.base, 2, om)
    eta = KForm(scn.base, 1, {(0,): ex.ONE})
    return CosymplecticPair(scn, Omega, eta)
