"""Shared generators and independent numeric oracles for the test suite.

Everything random is driven by explicitly seeded random.Random instances,
so failures reproduce exactly.
"""

from __future__ import annotations

import dataclasses
import os
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from homogeo import expr as ex
from homogeo import numtape
from homogeo import riemannian
from homogeo import zerotest
from homogeo.tensors import VectorField
from homogeo.zerotest import ZeroTestPolicy


def frac(rng: random.Random, lo=-3, hi=3, den=4) -> Fraction:
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_poly(rng: random.Random, names, degree=2, terms=4,
              coeff_den=6) -> ex.Expr:
    """Random sparse polynomial with small rational coefficients."""
    parts = [ex.rat(Fraction(rng.randint(-3, 3), coeff_den))]
    for _ in range(terms):
        c = Fraction(rng.randint(-3, 3), coeff_den)
        if c == 0:
            continue
        term = [ex.rat(c)]
        for _ in range(rng.randint(1, degree)):
            term.append(ex.var(rng.choice(list(names))))
        parts.append(ex.mul(*term))
    return ex.add(*parts)


def rand_expr(rng: random.Random, names, depth=4) -> ex.Expr:
    """Random expression tree exercising every node kind; arguments of
    log/sqrt are kept positive by construction."""
    if depth == 0 or rng.random() < 0.25:
        choice = rng.random()
        if choice < 0.4:
            return ex.var(rng.choice(list(names)))
        return ex.rat(frac(rng))
    op = rng.choice(["add", "mul", "pow", "sin", "cos", "exp", "log", "sqrt", "abs"])
    a = rand_expr(rng, names, depth - 1)
    if op == "add":
        return ex.add(a, rand_expr(rng, names, depth - 1))
    if op == "mul":
        return ex.mul(a, rand_expr(rng, names, depth - 1))
    if op == "pow":
        if rng.random() < 0.4:
            return ex.pw(_positivize(a), Fraction(1, 2))
        return ex.pw(a, rng.choice([2, 3, -1]))
    if op in ("sin", "cos", "exp"):
        return {"sin": ex.sin_, "cos": ex.cos_, "exp": ex.exp_}[op](_shrink(a))
    if op == "log":
        return ex.log_(_positivize(a))
    if op == "sqrt":
        return ex.sqrt_(_positivize(a))
    return ex.abs_(_positivize(a))


def _positivize(a: ex.Expr) -> ex.Expr:
    return ex.add(ex.ONE, ex.mul(a, a))


def _shrink(a: ex.Expr) -> ex.Expr:
    # keep transcendental arguments moderate to avoid float overflow
    return ex.mul(ex.rat(Fraction(1, 4)), a)


def curvature(triple, policy=zerotest.DEFAULT_POLICY):
    """(tensors_ABCD, curvature_RD) of a metric triple, built once in the
    order a riemannian scenario builds them, for verify_rd_formulas and
    flatness_report."""
    RD = riemannian.curvature_RD(riemannian.koszul_connection(
        riemannian.triple_to_G(triple), policy))
    return riemannian.tensors_ABCD(triple, policy), RD


def rand_point(rng: random.Random, names, lo=-2, hi=2):
    return {n: frac(rng, lo, hi) for n in names}


def float_value(e: ex.Expr, point) -> float:
    """Float value of `e` at one point (a mapping of names to numbers);
    nan or an infinity outside the expression's domain."""
    return numtape.eval_tape(numtape.compile_tape(e), [point])[0]


def finite_difference(e: ex.Expr, v: str, point, h=1e-6) -> float:
    """Independent derivative oracle: central difference of the float
    evaluation."""
    up = {k: float(x) for k, x in point.items()}
    dn = dict(up)
    up[v] += h
    dn[v] -= h
    lo, hi = numtape.eval_tape(numtape.compile_tape(e), [dn, up])
    return (hi - lo) / (2 * h)


def vf_apply_numeric(X: VectorField, f: ex.Expr, point, h=1e-6) -> float:
    """Numeric directional derivative (oracle for bracket tests)."""
    total = 0.0
    for comp, name in zip(X.comps, X.chart.coords):
        total += float_value(comp, point) * finite_difference(f, name, point, h)
    return total


# -- hypothesis strategies: rational DSL text and exact points -----------------

# 20-digit numerators and denominators; negative powers put poles on the
# sampled domain (their points are redrawn)
_LEAVES = st.sampled_from(
    ["x", "y", "x", "y", "1/2", "-1/3", "12345678901234567890",
     "98765432109876543211/10000000000000000019",
     "-31415926535897932384/27182818284590452353"])

RATIONAL_TERMS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        st.tuples(inner, st.sampled_from([-2, -1, 2, 3])).map(
            lambda t: f"({t[0]})^({t[1]})")),
    max_leaves=6)

# (a + b)*c - a*c - b*c is zero, but simplify leaves it to the sampler;
# adding a term / 10^40 makes it nonzero and tiny
_IDENTITIES = st.tuples(*[RATIONAL_TERMS] * 3).map(
    lambda t: "({0} + {1})*({2}) - ({0})*({2}) - ({1})*({2})".format(*t))
RATIONAL_DSL = st.one_of(
    RATIONAL_TERMS, _IDENTITIES,
    st.tuples(_IDENTITIES, RATIONAL_TERMS).map(lambda t: f"{t[0]} + ({t[1]})/10^40"))

def function_dsl(leaves) -> st.SearchStrategy:
    """DSL text over `leaves` with every function head, with sqrt and
    fractional powers; arguments of log/sqrt may be negative and arguments
    of abs/sign zero, so a caller evaluating these at a point must allow
    for values off the real domain."""
    return st.recursive(
        st.sampled_from(list(leaves)),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(
                lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
            st.tuples(st.sampled_from(["exp", "log", "sqrt", "abs", "sign", "sin",
                                       "cos"]),
                      inner).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(inner, st.sampled_from(["-1", "2", "3", "1/2", "-3/2"])).map(
                lambda t: f"({t[0]})^({t[1]})")),
        max_leaves=6)


FUNCTION_DSL = function_dsl(["x", "y", "x", "y", "1/2", "-1/3", "2", "7/5"])


ORACLE_POINT = st.fixed_dictionaries({
    v: st.fractions(min_value=-3, max_value=3, max_denominator=6) for v in "xy"})


@pytest.fixture
def policy():
    return ZeroTestPolicy()


CERTIFICATE_NOTE = ("nonzero residue 5 mod p = 2305843009213693951 at a uniform "
                    "point; no rational sample is a witness")


@pytest.fixture
def certificate_verdicts(monkeypatch):
    """`all_zero` sees every nonzero verdict that has a witness as a
    certificate with none, the form zero_report returns when no rational
    sample is a witness; yields that certificate's note."""
    real = zerotest.zero_report

    def certify(e, policy=zerotest.DEFAULT_POLICY):
        rep = real(e, policy)
        if rep.is_zero or rep.witness is None:
            return rep
        return dataclasses.replace(rep, witness=None, witness_value=None,
                                   note=CERTIFICATE_NOTE)

    monkeypatch.setattr(zerotest, "zero_report", certify)
    yield CERTIFICATE_NOTE


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_path():
    """Child processes (`python -m homogeo.cli`) import the package from
    src/, as pytest's `pythonpath` setting makes this process do."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield
