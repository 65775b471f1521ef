"""Trivial-degree symplectic frame structures: the (Omega, eta) dictionary.

On a trivialized bundle a fiber-invariant nondegenerate 2-form upstairs
identifies with a pair (Omega, eta) of a 2-form and a 1-form on the base
through

    omega = Omega + (dmu / mu) ^ eta,

pinned so that the fiber contraction i_E omega equals eta.  Nondegeneracy
of omega is equivalent to eta ^ Omega^{k-1} being a volume form, and
closedness to dOmega = deta = 0; both equivalences are computed on both
sides and compared.  A constant-coefficient pair gets its flat chart from
contact.symplectic_basis, the Gram-Schmidt of the identity coset too, and
its verdicts are settled by contact.settle_integrability into the
IntegrabilityReport both Sp cosets share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from . import expr as ex
from . import symmat
from .chart import ChartError
from .contact import (IntegrabilityReport, _verify_symplectic_chart,
                      settle_integrability, symplectic_basis)
from .linebundle import LineBundleScenario
from .tensors import KForm, d, one_form, wedge
from .zerotest import ZeroTestPolicy, DEFAULT_POLICY, all_zero, is_zero

__all__ = ["CosymplecticPair", "pair_to_omega0", "check_cosymplectic",
           "CosymplecticReport", "integrability_report0",
           "standard_cosymplectic_pair"]


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
        if self.scenario.base.dim % 2 != 1:
            raise ChartError(f"base dimension {self.scenario.base.dim} is not odd")


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
    omega: KForm                     # pair_to_omega0(pair), built once


def check_cosymplectic(pair: CosymplecticPair,
                       policy: ZeroTestPolicy = DEFAULT_POLICY) -> CosymplecticReport:
    scn = pair.scenario
    k = (scn.base.dim + 1) // 2
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
    omega_nondeg = not is_zero(symmat.det(omega.rows()), pol_t)
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
        omega=omega,
    )


def integrability_report0(pair: CosymplecticPair, rep: CosymplecticReport,
                          policy: ZeroTestPolicy = DEFAULT_POLICY) -> IntegrabilityReport:
    """The integrability verdicts of `pair`, whose check_cosymplectic
    report is `rep`; its base-side criterion is `cocycle_and_nondeg`, and
    the flat chart is attempted when omega is integrable."""
    integrable = rep.omega_nondegenerate and rep.omega_closed
    return settle_integrability(
        {"cocycle_and_nondeg": rep.cocycle and rep.volume, "integrable": integrable},
        "cocycle_and_nondeg",
        (lambda: _flat_chart_for_constant_pair(pair, rep.omega, policy))
        if integrable else None,
        (integrable, "pair has non-constant coefficients"))


def _flat_chart_for_constant_pair(pair: CosymplecticPair, omega: KForm,
                                  policy: ZeroTestPolicy):
    """For a constant-coefficient pair with nondegenerate omega =
    pair_to_omega0(pair), take the symplectic_basis of its pairing on
    (Euler, coordinate lifts), emit the dual chart in (log mu, x)
    coordinates and verify it: (chi, ok, why); None for a non-constant
    pair."""
    scn = pair.scenario
    n = scn.base.dim
    W = [[ex.ZERO] * (n + 1) for _ in range(n + 1)]
    entries = [((0, j + 1), pair.eta.coeff((j,))) for j in range(n)]
    entries += [((i + 1, j + 1), c) for (i, j), c in pair.Omega.coeffs.items()]
    for (a, b), c in entries:
        c = ex.simplify(c)
        if not isinstance(c, ex.Rat):
            return None
        W[a][b], W[b][a] = c, ex.neg(c)

    xs, ys = symplectic_basis(W, policy)
    Tinv = symmat.inverse(symmat.transpose(xs + ys))   # columns = basis
    zeta = [ex.log_(scn.mu)] + [scn.base.var(c) for c in scn.base.coords]
    chi = tuple(ex.add(*[ex.mul(t, z) for t, z in zip(row, zeta)]) for row in Tinv)
    return (chi, *_verify_flat_chart(scn, chi, omega, policy))


def _verify_flat_chart(scn: LineBundleScenario, chi, omega: KForm,
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

    return _verify_symplectic_chart(scn, chi, omega, affine_residuals, policy,
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
