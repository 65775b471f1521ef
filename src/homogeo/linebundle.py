"""Trivialized line bundle chart and the promotion dictionary.

Everything lives on a single trivialized patch: base chart U with
coordinates (x^1..x^n) and total chart U x R^x with the extra fiber
coordinate mu (constraint mu != 0, working branch mu > 0).  The scaling
maps h_r act by (x, mu) -> (x, r mu).  Base-level data (sections,
derivations, forms) is promoted to homogeneous objects upstairs; descent
inverts the promotion.  Homogeneity of degree phi means
h_r^* obj = phi(r) obj for symbolic r > 0 together with the reflection
r = -1, which is checked by explicit substitution mu -> -mu with
abs/sign resolved on the branch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from . import expr as ex
from .chart import Chart, ChartError, SmoothMap
from .tensors import (Endo11, KForm, SymTensor2, VectorField, d, interior,
                      pullback, pullback_endo, pullback_sym, pushforward)
from .zerotest import ZeroTestPolicy, DEFAULT_POLICY, all_zero, zero_report

__all__ = ["ScalarDegree", "DEG0", "DEG1", "DEG_ABS", "DEG_SQRT_ABS",
           "LineBundleScenario", "AtiyahObject", "DegreeError", "NotBasicError",
           "FIBER"]

FIBER = "mu"

GeomObject = Union[ex.Expr, VectorField, KForm, SymTensor2, Endo11]


class DegreeError(ValueError):
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

    def factor_pos(self, param: str = "r") -> ex.Expr:
        """phi(r) as an expression, valid on the branch r > 0."""
        return ex.pw(ex.var(param), self.exponent)

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
        inv = tuple(ex.var(c) for c in self.base.coords) + (ex.div(self.mu, factor),)
        return SmoothMap(self.total, self.total, comps, inv)

    def h_sym(self, param: str = "r") -> SmoothMap:
        """The scaling map with a formal positive parameter."""
        return self.h_scaling(ex.var(param))

    def h_at(self, q) -> SmoothMap:
        q = Fraction(q)
        if q == 0:
            raise ValueError("scaling factor must be nonzero")
        return self.h_scaling(ex.rat(q))

    @property
    def reflection(self) -> SmoothMap:
        return self.h_at(-1)

    def bundle_projection(self) -> SmoothMap:
        return SmoothMap(self.total, self.base, tuple(ex.var(c) for c in self.base.coords))

    def section(self, value: ex.Expr) -> SmoothMap:
        """Section U -> total chart, x -> (x, value(x)) with value nowhere zero."""
        self.base.check_owns(value)
        comps = tuple(ex.var(c) for c in self.base.coords) + (value,)
        return SmoothMap(self.base, self.total, comps)

    def policy_for(self, policy: ZeroTestPolicy, with_params=("r",)) -> ZeroTestPolicy:
        extra = list(self.total.constraints)
        for p in with_params:
            extra.append(ex.Constraint(p, ">", 0))
        return policy.with_constraints(extra)

    # -- promotion / descent --------------------------------------------
    def include_form(self, w: KForm) -> KForm:
        """A base form read on the total chart (pullback along the projection)."""
        if w.chart != self.base:
            raise ChartError("form must live on the base chart")
        return KForm(self.total, w.degree, dict(w.coeffs))

    def promote_section(self, s: ex.Expr, degree: ScalarDegree = DEG1) -> "AtiyahObject":
        """Section s * lambda_0 of the degree bundle -> homogeneous function."""
        self.base.check_owns(s)
        return AtiyahObject(self, ex.mul(degree.fiber_factor(), s), degree,
                            verified=True)

    def descend_function(self, f: ex.Expr, degree: ScalarDegree = DEG1,
                         policy: ZeroTestPolicy = DEFAULT_POLICY) -> ex.Expr:
        """Inverse of promote_section: recover the base coefficient."""
        s = ex.simplify(ex.div(f, degree.fiber_factor()), self.total.constraints)
        pol = self.policy_for(policy)
        rep = zero_report(ex.diff(s, FIBER, self.total.constraints), pol)
        if not rep.is_zero:
            raise DegreeError(f"function is not homogeneous of the claimed degree: "
                              f"residual {rep.witness_value} at {rep.witness}")
        return ex.simplify(ex.subs(s, {FIBER: ex.ONE}), self.base.constraints)

    def promote_derivation(self, X: VectorField, f: ex.Expr) -> "AtiyahObject":
        """Derivation with symbol X and zero-order part f -> degree-0 field
        X + f * Euler."""
        if X.chart != self.base:
            raise ChartError("symbol must live on the base chart")
        self.base.check_owns(f)
        comps = tuple(X.comps) + (ex.mul(f, self.mu),)
        return AtiyahObject(self, VectorField(self.total, comps), DEG0, verified=True)

    def descend_derivation(self, V: VectorField,
                           policy: ZeroTestPolicy = DEFAULT_POLICY):
        """Inverse of promote_derivation: (base field, zero-order part)."""
        cons = self.total.constraints
        comps = V.comps[:-1] + (ex.simplify(ex.div(V.comps[-1], self.mu), cons),)
        if not all_zero(((i, ex.diff(c, FIBER, cons)) for i, c in enumerate(comps)),
                        self.policy_for(policy))[0]:
            raise DegreeError("field is not a promoted derivation")
        *base_comps, f = (ex.subs(c, {FIBER: ex.ONE}) for c in comps)
        return VectorField(self.base, tuple(base_comps)), f

    def promote_atiyah_form(self, beta: KForm, gamma: KForm,
                            degree: ScalarDegree = DEG1) -> "AtiyahObject":
        """Pair (k-form beta, (k-1)-form gamma) on the base -> homogeneous
        k-form phi(mu) * beta + d(phi(mu)) ^ gamma upstairs."""
        if beta.chart != self.base or gamma.chart != self.base:
            raise ChartError("forms must live on the base chart")
        if gamma.degree != beta.degree - 1:
            raise ChartError("second component must have degree one less")
        fac = degree.fiber_factor()
        first = self.include_form(beta).scale(fac)
        dfac = d(KForm(self.total, 0, {(): fac}))
        from .tensors import wedge
        second = wedge(dfac, self.include_form(gamma))
        return AtiyahObject(self, first + second, degree, verified=True)

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
                           policy: ZeroTestPolicy = DEFAULT_POLICY,
                           param: str = "r"):
        """Check h_r^* obj = phi(r) obj for symbolic r > 0 and at r = -1.
        Vector fields use the pushforward convention (h_r)_* X = phi(r) X."""
        pol = self.policy_for(policy, with_params=(param,))
        hr = self.h_sym(param)
        href = self.reflection

        def residuals(mp: SmoothMap, factor: ex.Expr):
            if isinstance(obj, ex.Expr):
                lhs = mp.pull_function(obj)
                yield ("function", ex.sub(lhs, ex.mul(factor, obj)))
            elif isinstance(obj, VectorField):
                lhs = pushforward(mp, obj)
                for i, (a, b) in enumerate(zip(lhs.comps, obj.comps)):
                    yield (f"component {i}", ex.sub(a, ex.mul(factor, b)))
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
             for where, res in residuals(hr, degree.factor_pos(param))),
            ((f"r=-1 reflection, {where}", res)
             for where, res in residuals(href, degree.factor_neg1()))), pol)

    def is_homogeneous(self, obj: GeomObject, degree: ScalarDegree,
                       policy: ZeroTestPolicy = DEFAULT_POLICY) -> bool:
        ok, _ = self.homogeneity_report(obj, degree, policy)
        return ok


@dataclass(frozen=True)
class AtiyahObject:
    """A geometric object on the total chart with a verified homogeneity claim."""

    scenario: LineBundleScenario
    obj: GeomObject
    degree: ScalarDegree
    verified: bool = False

    def __post_init__(self):
        if not self.verified:
            ok, bad = self.scenario.homogeneity_report(self.obj, self.degree)
            if not ok:
                where, rep = bad
                raise DegreeError(f"homogeneity claim fails: {where}, "
                                  f"residual {rep.witness_value} at {rep.witness}")
            object.__setattr__(self, "verified", True)


def d_D(a: AtiyahObject) -> AtiyahObject:
    """The differential of the derivation complex, computed upstairs as d."""
    if not isinstance(a.obj, KForm):
        raise TypeError("d_D acts on forms")
    return AtiyahObject(a.scenario, d(a.obj), a.degree, verified=True)


def i_I(a: AtiyahObject) -> AtiyahObject:
    """Insertion of the identity derivation, computed upstairs as the
    contraction with the Euler field."""
    if not isinstance(a.obj, KForm):
        raise TypeError("i_I acts on forms")
    return AtiyahObject(a.scenario, interior(a.scenario.euler(), a.obj),
                        a.degree, verified=True)
