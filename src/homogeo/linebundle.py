"""Trivialized line bundle chart and the promotion dictionary.

Everything lives on a single trivialized patch: base chart U with
coordinates (x^1..x^n) and total chart U x R^x with the extra fiber
coordinate mu (constraint mu != 0, working branch mu > 0).  The scaling
maps h_r act by (x, mu) -> (x, r mu).  Base-level data (sections,
derivations, forms) is promoted to homogeneous objects upstairs: each
promotion returns the upstairs function, field or form itself, and the
derivation-complex operators of the paper are the upstairs ones, d_D = d
and i_I = interior(euler(), .); `homogeneity_report` checks a degree
claim.  Descent inverts the promotion, and
`LineBundleScenario.descend_function` is its one implementation: divide
by the degree phi(mu), check that the quotient does not depend on mu,
and set mu = 1.  Fields and forms descend by calling it on each
component.  Homogeneity of degree phi means h_r^* obj = phi(r) obj for
symbolic r > 0 together with the reflection r = -1, which is checked by
explicit substitution mu -> -mu with abs/sign resolved on the branch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from . import expr as ex
from .chart import Chart, ChartError, SmoothMap
from .tensors import (Endo11, KForm, SymTensor2, VectorField, d, interior,
                      pullback, pullback_endo, pullback_sym, wedge)
from .zerotest import ZeroTestPolicy, DEFAULT_POLICY, all_zero

__all__ = ["ScalarDegree", "DEG0", "DEG1", "DEG_ABS", "DEG_SQRT_ABS",
           "LineBundleScenario", "DegreeError", "NotBasicError",
           "FIBER"]

FIBER = "mu"

GeomObject = Union[ex.Expr, VectorField, KForm, SymTensor2, Endo11]


class DegreeError(ex.InvalidObjectError):
    """A claimed homogeneity degree failed verification."""


class NotBasicError(ValueError):
    """A form that should be basic (no fiber contraction) is not."""


@dataclass(frozen=True)
class ScalarDegree:
    """Scalar degree homomorphism R^x -> R^x encoded as
    phi(r) = |r|^exponent (even) or |r|^exponent * sign(r) (odd)."""

    exponent: Fraction
    parity: str = "even"

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")
        object.__setattr__(self, "exponent", Fraction(self.exponent))

    def __mul__(self, other: "ScalarDegree") -> "ScalarDegree":
        parity = "odd" if (self.parity == "odd") != (other.parity == "odd") else "even"
        return ScalarDegree(self.exponent + other.exponent, parity)

    def factor_pos(self) -> ex.Expr:
        """phi(r) as an expression, valid on the branch r > 0."""
        return ex.pw(ex.var("r"), self.exponent)

    def factor_neg1(self) -> ex.Expr:
        return ex.rat(-1 if self.parity == "odd" else 1)

    def fiber_factor(self) -> ex.Expr:
        """phi(mu) as an expression on the total chart (any branch)."""
        if self.exponent == 1 and self.parity == "odd":
            return ex.var(FIBER)
        out = ex.pw(ex.abs_(ex.var(FIBER)), self.exponent)
        if self.parity == "odd":
            out = ex.mul(out, ex.sign_(ex.var(FIBER)))
        return out


DEG0 = ScalarDegree(0, "even")
DEG1 = ScalarDegree(1, "odd")
DEG_ABS = ScalarDegree(1, "even")
DEG_SQRT_ABS = ScalarDegree(Fraction(1, 2), "even")


class LineBundleScenario:
    """Base chart plus total chart with the fiber coordinate and scaling maps."""

    def __init__(self, name: str, base_coords: Sequence[str],
                 constraints: Sequence[ex.Constraint] = ()):
        if FIBER in base_coords:
            raise ChartError(f"{FIBER!r} is reserved for the fiber coordinate")
        constraints = tuple(constraints)
        self.base = Chart(name, tuple(base_coords), constraints)
        self.total = Chart(name + "~", tuple(base_coords) + (FIBER,),
                           constraints + (ex.Constraint(FIBER, ">", 0),))
        self.name = name

    # -- geometry of the action -----------------------------------------
    @property
    def n(self) -> int:
        return self.base.dim

    @property
    def mu(self) -> ex.Expr:
        return ex.var(FIBER)

    def euler(self) -> VectorField:
        """Infinitesimal generator of the scaling action: mu d_mu."""
        comps = [ex.ZERO] * self.n + [self.mu]
        return VectorField(self.total, tuple(comps))

    def h_scaling(self, factor: ex.Expr) -> SmoothMap:
        comps = tuple(ex.var(c) for c in self.base.coords) + (ex.mul(factor, self.mu),)
        return SmoothMap(self.total, self.total, comps)

    def h_sym(self) -> SmoothMap:
        """The scaling map with the formal positive parameter r."""
        return self.h_scaling(ex.var("r"))

    @property
    def reflection(self) -> SmoothMap:
        return self.h_scaling(ex.rat(-1))

    def policy_for(self, policy: ZeroTestPolicy) -> ZeroTestPolicy:
        """`policy` under the total chart's constraints and r > 0."""
        return policy.with_constraints(self.total.constraints
                                       + (ex.Constraint("r", ">", 0),))

    # -- promotion / descent --------------------------------------------
    def include_form(self, w: KForm) -> KForm:
        """A base form read on the total chart (pullback along the projection)."""
        if w.chart != self.base:
            raise ChartError("form must live on the base chart")
        return KForm(self.total, w.degree, dict(w.coeffs))

    def descend_function(self, f: ex.Expr, degree: ScalarDegree = DEG1,
                         policy: ZeroTestPolicy = DEFAULT_POLICY) -> ex.Expr:
        """Inverse of the promotion of a section s * lambda_0 of the degree
        bundle to the homogeneous function phi(mu) s upstairs: recover the
        base coefficient f / phi(mu) at mu = 1, after checking that it does
        not depend on mu (DegreeError naming the residual otherwise).  Every descent to the
        base goes through here."""
        s = ex.simplify(ex.div(f, degree.fiber_factor()), self.total.constraints)
        pol = self.policy_for(policy)
        ok, bad = all_zero([(FIBER, ex.diff(s, FIBER, self.total.constraints))], pol)
        if not ok:
            raise DegreeError(f"function is not homogeneous of the claimed degree: "
                              f"residual {bad[1].witness_fields(str)}")
        return ex.simplify(ex.subs(s, {FIBER: ex.ONE}), self.base.constraints)

    def promote_derivation(self, X: VectorField, f: ex.Expr) -> VectorField:
        """Derivation with symbol X and zero-order part f -> the degree-0
        field X + f * Euler upstairs."""
        if X.chart != self.base:
            raise ChartError("symbol must live on the base chart")
        self.base.check_owns(f)
        return VectorField(self.total, tuple(X.comps) + (ex.mul(f, self.mu),))

    def descend_derivation(self, V: VectorField,
                           policy: ZeroTestPolicy = DEFAULT_POLICY):
        """Inverse of promote_derivation: (base field, zero-order part).
        With promote_derivation it states the paper's correspondence between
        derivations of the line bundle and degree-0 homogeneous fields:
        each base component descends with degree 0, the fiber component
        with degree 1."""
        *base_comps, f = (self.descend_function(c, DEG0 if i < self.n else DEG1, policy)
                          for i, c in enumerate(V.comps))
        return VectorField(self.base, tuple(base_comps)), f

    def promote_atiyah_form(self, beta: KForm, gamma: KForm,
                            degree: ScalarDegree = DEG1) -> KForm:
        """Pair (k-form beta, (k-1)-form gamma) on the base -> homogeneous
        k-form phi(mu) * beta + d(phi(mu)) ^ gamma upstairs: the paper's
        correspondence between forms of the derivation complex and
        homogeneous forms on the total chart, under which d_D is d and i_I
        is interior(euler(), .)."""
        if beta.chart != self.base or gamma.chart != self.base:
            raise ChartError("forms must live on the base chart")
        if gamma.degree != beta.degree - 1:
            raise ChartError("second component must have degree one less")
        fac = degree.fiber_factor()
        first = self.include_form(beta).scale(fac)
        dfac = d(KForm(self.total, 0, {(): fac}))
        return first + wedge(dfac, self.include_form(gamma))

    def descend_form(self, w: KForm, degree: ScalarDegree = DEG1,
                     policy: ZeroTestPolicy = DEFAULT_POLICY) -> KForm:
        """Descend a homogeneous form with zero fiber contraction to the base."""
        pol = self.policy_for(policy)
        contracted = interior(self.euler(), w)
        ok, bad = all_zero(contracted.coeffs.items(), pol)
        if not ok:
            key, rep = bad
            raise NotBasicError(
                f"fiber contraction is nonzero: coefficient {key} = "
                f"{ex.to_dsl(contracted.coeffs[key])}")
        nidx = self.total.dim - 1
        out = {}
        for idx, c in w.coeffs.items():
            if nidx in idx:
                # certified zero by the contraction check
                continue
            base_c = self.descend_function(c, degree, policy)
            out[idx] = base_c
        return KForm(self.base, w.degree, out)

    # -- homogeneity ------------------------------------------------------
    def homogeneity_report(self, obj: GeomObject, degree: ScalarDegree,
                           policy: ZeroTestPolicy = DEFAULT_POLICY):
        """Check h_r^* obj = phi(r) obj for symbolic r > 0 and at r = -1.
        A vector field X is homogeneous when (h_r)_* X = phi(r) X.  The
        Jacobian of h_r is diag(1, ..., 1, r), so that reads, component by
        component, phi(r) X^i o h_r = (dh_r)_ii X^i: each base component is
        homogeneous of degree 1/phi(r), the fiber one of degree r/phi(r)."""
        pol = self.policy_for(policy)
        hr = self.h_sym()
        href = self.reflection

        def residuals(mp: SmoothMap, factor: ex.Expr):
            if isinstance(obj, ex.Expr):
                lhs = mp.pull_function(obj)
                yield ("function", ex.sub(lhs, ex.mul(factor, obj)))
            elif isinstance(obj, VectorField):
                if obj.chart != self.total:
                    raise ChartError("field does not live on the total chart")
                jac = mp.jacobian()
                for i, c in enumerate(obj.comps):
                    yield (f"component {i}", ex.sub(ex.mul(factor, mp.pull_function(c)),
                                                    ex.mul(jac[i][i], c)))
            elif isinstance(obj, KForm):
                lhs = pullback(mp, obj)
                keys = set(lhs.coeffs) | set(obj.coeffs)
                for k in sorted(keys):
                    yield (f"coefficient {k}",
                           ex.sub(lhs.coeff(k), ex.mul(factor, obj.coeff(k))))
            elif isinstance(obj, (SymTensor2, Endo11)):
                sym = isinstance(obj, SymTensor2)
                lhs = (pullback_sym if sym else pullback_endo)(mp, obj)
                for i in range(obj.chart.dim):
                    for j in range(i if sym else 0, obj.chart.dim):
                        yield (f"entry ({i},{j})",
                               ex.sub(lhs.mat[i][j], ex.mul(factor, obj.mat[i][j])))
            else:
                raise TypeError(f"unsupported object {type(obj).__name__}")

        return all_zero(itertools.chain(
            ((f"r>0 branch, {where}", res)
             for where, res in residuals(hr, degree.factor_pos())),
            ((f"r=-1 reflection, {where}", res)
             for where, res in residuals(href, degree.factor_neg1()))), pol)

    def is_homogeneous(self, obj: GeomObject, degree: ScalarDegree,
                       policy: ZeroTestPolicy = DEFAULT_POLICY) -> bool:
        ok, _ = self.homogeneity_report(obj, degree, policy)
        return ok

