import contextlib
import dataclasses
import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from homogeo import expr as ex
from homogeo import numtape
from homogeo import zerotest as zt
from homogeo.chart import Chart
from homogeo.expr import MAX_CONSTANT_BITS
from homogeo.parser import (MAX_DEPTH, MAX_EXPONENT, ParseError, UnknownIdentifierError,
                            parse)
from homogeo.zerotest import ConfigError, ZeroTestPolicy, is_zero, zero_report

from conftest import (FUNCTION_DSL, ORACLE_POINT, RATIONAL_DSL, RATIONAL_TERMS,
                      finite_difference, float_value, rand_expr, rand_point)

CHART = Chart("m", ("x", "u", "p", "mu"), (ex.Constraint("mu", ">", 0),))


def leaves(e):
    if isinstance(e, (ex.Rat, ex.Var)):
        return [e]
    if isinstance(e, ex.Sum):
        return sum((leaves(t) for t in e.terms), [])
    if isinstance(e, ex.Prod):
        return sum((leaves(f) for f in e.factors), [])
    if isinstance(e, ex.Pow):
        return leaves(e.base)
    return leaves(e.arg)


# -- parsing ----------------------------------------------------------------

def test_parse_product_tree():
    e = parse("mu * (u - p*x)", chart=CHART)
    names = sorted(v.name for v in leaves(e) if isinstance(v, ex.Var))
    assert names == ["mu", "p", "u", "x"]
    # round trip through the printer
    assert parse(ex.to_dsl(e), chart=CHART) is e


def test_parse_sqrt_abs():
    e = parse("sqrt(abs(mu))", chart=CHART)
    assert isinstance(e, ex.Pow) and e.exponent == Fraction(1, 2)
    assert isinstance(e.base, ex.Fun) and e.base.name == "abs"
    assert ex.to_dsl(e) == "sqrt(abs(mu))"


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse("x + * y", chart=CHART)
    assert err.value.pos == 4


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as err:
        parse("x + q", chart=CHART)
    assert "q" in str(err.value)


def test_parse_rational_literals():
    assert parse("3/2", chart=CHART) is ex.rat(Fraction(3, 2))
    assert parse("1.25", chart=CHART) is ex.rat(Fraction(5, 4))
    assert parse("x^(1/2)", chart=CHART) is ex.sqrt_(ex.var("x"))
    assert parse("x^-2", chart=CHART) is ex.pw(ex.var("x"), -2)


def _nested_sin(depth: int) -> str:
    text = "x"
    for _ in range(depth):
        text = f"sin({text})"
    return text


def test_parse_nesting_limit():
    deep = parse(_nested_sin(MAX_DEPTH), names=["x"])
    assert ex.to_dsl(deep) == _nested_sin(MAX_DEPTH)
    assert parse("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH, names=["x"]) is ex.var("x")
    with pytest.raises(ParseError) as err:
        parse(_nested_sin(MAX_DEPTH + 1), names=["x"])
    assert err.value.pos == 4 * (MAX_DEPTH + 1) - 1   # the innermost "("
    with pytest.raises(ParseError) as err:
        parse("(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1), names=["x"])
    assert err.value.pos == MAX_DEPTH


def test_parse_exponent_limit():
    x = ex.var("x")
    assert parse(f"x^{MAX_EXPONENT}", names=["x"]) is ex.pw(x, MAX_EXPONENT)
    assert parse(f"x^(-{3 * MAX_EXPONENT}/3)", names=["x"]) is ex.pw(x, -MAX_EXPONENT)
    # the position is that of the exponent's sign or first digit
    for text, pos in ((f"x^{MAX_EXPONENT + 1}", 2), (f"x^-{MAX_EXPONENT + 1}", 2),
                      (f"x^({2 * MAX_EXPONENT + 1}/2)", 3), ("1 + x^1000003", 6)):
        with pytest.raises(ParseError) as err:
            parse(text, names=["x"])
        assert "exceeds" in str(err.value) and err.value.pos == pos


def test_parse_folded_exponent_limit():
    # each literal is within the cap, but nested powers multiply their
    # exponents and a product collects equal bases; substituting a point
    # into the folded power takes minutes, as for a huge literal
    x = ex.var("x")
    for text in ("(x^10000)^10000", "((x^100)^100)^(-2)", "x^6000*x^6000",
                 "x^6000/x^(-6000)", "sin((x^5001)^2) + 1", "((x^(1/2))^101)^200"):
        with pytest.raises(ParseError) as err:
            parse(text, names=["x"])
        assert "exceeds" in str(err.value), text
    # at the cap, and within it after the folding
    assert parse("(x^100)^100", names=["x"]) is ex.pw(x, MAX_EXPONENT)
    assert parse("x^6000*x^6000/x^6000", names=["x"]) is ex.pw(x, 6000)
    assert parse("(x^(-5000))^2", names=["x"]) is ex.pw(x, -MAX_EXPONENT)
    # a constant raised to a folded power is refused before it is computed;
    # the first two once ran past a 10 s timeout, the next two for seconds
    for text in ("(10^10000)^10000", "((3*x)^10000)^10000", "(10^400)^10000",
                 "(3^10000)^1000", "1/(2^10000)^(-105)", "x*(2^10000)^105"):
        t0 = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse(text, names=["x"])
        assert f"exceeds {MAX_CONSTANT_BITS} bits" in str(err.value), text
        assert time.perf_counter() - t0 < 1, text
    # within the bit budget, so the power is computed, but too long to print
    digits = sys.get_int_max_str_digits()
    with pytest.raises(ParseError) as err:
        parse("(2^10000)^104", names=[])
    assert f"folded constant has more than {digits} digits" in str(err.value)
    assert parse("(2^100)^140", names=[]) is ex.rat(2 ** 14000)
    # a constant the zero test could not print is refused: a number token,
    # an exponent, and a folded constant, coefficient or sum constant
    long = "1" * (digits + 1)
    for text, message in ((long, "number has"), ("x + 0." + long, "number has"),
                          ("x^" + long, "number has"), ("x^(1/" + long + ")", "number has"),
                          (f"10^{digits}", "folded constant has"),
                          (f"x*10^{digits}", "folded constant has"),
                          (f"x*10^{digits // 2}*10^{digits // 2 + 1}", "folded constant has"),
                          (f"x/10^{digits}", "folded constant has"),
                          (f"x + 10^{digits}", "folded constant has"),
                          (f"sin(3*10^{digits})", "folded constant has"),
                          (f"(2*10^{digits})^(1/2)", "folded constant has")):
        with pytest.raises(ParseError) as err:
            parse(text, names=["x"])
        assert f"{message} more than {digits} digits" in str(err.value), text[:40]
    # at the limit
    assert parse(f"x*10^{digits - 1}", names=["x"]) is ex.mul(ex.rat(10 ** (digits - 1)), x)
    assert parse("9" * digits, names=[]) is ex.rat(10 ** digits - 1)


def _check_folded(e: ex.Expr, digits: int) -> None:
    """The reference for `parse`'s checks of its result: the DAG walk the
    parser once made of its own.  Raise ParseError for a power whose
    exponent, as nested powers and products folded it, exceeds MAX_EXPONENT
    in absolute value, or for a constant, coefficient or sum constant with
    more than `digits` digits in its numerator or denominator (no limit
    when `digits` is 0).  Each shared node is visited once."""
    bound = 10 ** digits if digits else None
    seen = set()
    stack = [e]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        const = None
        if isinstance(x, ex.Rat):
            const = x.value
        elif isinstance(x, ex.Pow):
            if abs(x.exponent) > MAX_EXPONENT:
                raise ParseError(f"folded exponent {x.exponent} exceeds {MAX_EXPONENT} "
                                 f"in absolute value", 0)
            stack.append(x.base)
        elif isinstance(x, ex.Sum):
            const = x.const
            stack.extend(x.terms)
        elif isinstance(x, ex.Prod):
            const = x.coeff
            stack.extend(x.factors)
        elif isinstance(x, ex.Fun):
            stack.append(x.arg)
        if bound is not None and const is not None and \
                max(abs(const.numerator), const.denominator) >= bound:
            raise ParseError(f"folded constant has more than {digits} digits", 0)


def _pw(b, q):
    return ex.pw(b, Fraction(q))


_X, _Y = ex.var("x"), ex.var("y")
_DIGITS = sys.get_int_max_str_digits()
# (template, wrap): DSL around an expression's text, and the constructor
# calls `parse` makes on it, applied to that expression's node
_WRAPS = [("({}) + x", lambda e: ex.add(e, _X)),
          ("x - ({})", lambda e: ex.add(_X, ex.neg(e))),
          ("({})*y", lambda e: ex.mul(e, _Y)),
          ("7*({})", lambda e: ex.mul(ex.rat(7), e)),
          ("x/({})", lambda e: ex.div(_X, e)),
          ("({}) + 1/3", lambda e: ex.add(e, ex.div(ex.ONE, ex.rat(3)))),
          ("sin({})", ex.sin_), ("exp({})", ex.exp_),
          ("({})^2", lambda e: _pw(e, 2)), ("({})^-1", lambda e: _pw(e, -1)),
          ("({})^(1/2)", lambda e: _pw(e, Fraction(1, 2)))]
_BASES = [("x", _X), ("x + y", ex.add(_X, _Y)), ("sin(y)", ex.sin_(_Y))]
_EXPONENT = st.one_of(st.integers(-MAX_EXPONENT, MAX_EXPONENT),
                      st.sampled_from([100, 101, 5000, 5001, -5001, 9999, 10000, -10000]))


@st.composite
def _folding_dsl(draw):
    """(text, build): one site near a limit inside up to five wrappers;
    `build` makes the node with the constructor calls `parse` makes on the
    text.  The site is a power with a folded exponent, or a constant near
    the digit limit; only small exponents and constants surround it.  So
    an input has no fault, folded constants only, or one folded power,
    and the reference and `parse` have one message to agree on."""
    if draw(st.booleans()):
        btxt, b = draw(st.sampled_from(_BASES))
        a, c = draw(_EXPONENT), draw(_EXPONENT)
        text, build = draw(st.sampled_from([
            (f"({btxt})^{a}", lambda: _pw(b, a)),
            (f"(({btxt})^{a})^{c}", lambda: _pw(_pw(b, a), c)),
            (f"({btxt})^{a}*({btxt})^{c}", lambda: ex.mul(_pw(b, a), _pw(b, c))),
            (f"({btxt})^{a}/({btxt})^{c}", lambda: ex.div(_pw(b, a), _pw(b, c)))]))
    else:
        k, m = draw(st.integers(_DIGITS - 3, _DIGITS + 2)), draw(st.integers(2, 12))
        half = st.integers(_DIGITS // 2 - 2, _DIGITS // 2 + 2)
        h, j = draw(half), draw(half)
        a, c = draw(st.integers(1, 3000)), draw(st.integers(1, 400))
        ten, nines = ex.rat(10), "9" * _DIGITS
        text, build = draw(st.sampled_from([
            (f"10^{k}", lambda: _pw(ten, k)),
            (f"{m}*10^{k}*x", lambda: ex.mul(ex.mul(ex.rat(m), _pw(ten, k)), _X)),
            (f"x/10^{k}", lambda: ex.div(_X, _pw(ten, k))),
            (f"10^{h}*10^{j}*x", lambda: ex.mul(ex.mul(_pw(ten, h), _pw(ten, j)), _X)),
            (f"x + 10^{k}", lambda: ex.add(_X, _pw(ten, k))),
            (f"(2^{a})^{c}", lambda: _pw(_pw(ex.rat(2), a), c)),
            (f"{nines}*x", lambda: ex.mul(ex.rat(int(nines)), _X))]))
    for template, wrap in draw(st.lists(st.sampled_from(_WRAPS), max_size=5)):
        text, build = template.format(text), (lambda inner, w: lambda: w(inner()))(build, wrap)
    return text, build


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_folding_dsl())
def test_parse_refuses_what_the_reference_walk_refuses(case):
    """`parse` checks its result by printing it once and reading the
    exponents off its tape; it raises the reference's ParseError, or
    returns the node when the reference raises none."""
    text, build = case
    try:
        e = build()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            parse(text, names=["x", "y"])
        return
    except ex.ConstantTooLargeError as err:     # refused while folding
        with pytest.raises(ParseError) as got:
            parse(text, names=["x", "y"])
        assert str(got.value) == f"{err} (at position 0)"
        return
    try:
        _check_folded(e, _DIGITS)
    except ParseError as want:
        with pytest.raises(ParseError) as got:
            parse(text, names=["x", "y"])
        assert str(got.value) == str(want), text[:80]
    else:
        assert parse(text, names=["x", "y"]) is e, text[:80]


def test_printable_constants_follow_the_digit_limit():
    """One rule decides whether a rational prints, read when it is asked:
    the printer, `parse` and the zero test's literal witness follow it."""
    x = ex.var("x")
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (limit, 640):
            sys.set_int_max_str_digits(digits)
            big = 10 ** digits
            assert [ex.unprintable(q) for q in (big - 1, 1 - big, Fraction(1, big - 1),
                                                big, -big, Fraction(1, big))] == \
                [0, 0, 0, digits, digits, digits]
            with pytest.raises(ex.ConstantTooLargeError) as err:
                ex.to_dsl(ex.mul(ex.rat(big), x))
            assert str(err.value) == f"constant has more than {digits} digits, too many to print"
            with pytest.raises(ParseError) as err:
                parse(f"x/10^{digits}", names=["x"])
            assert str(err.value) == (f"folded constant has more than {digits} digits "
                                      "(at position 0)")
            # a literal constant is its own witness only when it prints
            assert zero_report(ex.rat(big)).witness_fields() == \
                {"note": "literal nonzero constant"}
            assert zero_report(ex.rat(big - 1)).witness_fields() == \
                {"point": {}, "value": big - 1}
        sys.set_int_max_str_digits(0)
        assert ex.unprintable(ex.rat(10 ** 5000).value) == 0
        assert parse("x*10^5000", names=["x"]) is ex.mul(ex.rat(10 ** 5000), x)
    finally:
        sys.set_int_max_str_digits(limit)


def test_unprintable_draw_is_no_witness(monkeypatch):
    # x^5000*y at the first rational draw has more digits than Python
    # prints; it was taken as the witness and the report could not print it
    real, answers = ex.unprintable, []

    def spy(q):
        answers.append(real(q))
        return answers[-1]

    monkeypatch.setattr(ex, "unprintable", spy)
    rep = zero_report(ex.mul(ex.pw(ex.var("x"), 5000), ex.var("y")))
    assert not rep.is_zero and rep.exact and rep.samples > 1
    # the query prints, so the value refused was a draw's
    assert any(answers) and real(rep.witness_value) == 0
    str(rep.witness_fields(str))


def test_rational_powers_fold_exactly_at_any_size():
    # the cube root of 2^300 used to be estimated in floats, which left
    # (2^300)^(1/3) unevaluated and this identity a float-decided nonzero
    rep = zero_report(parse("(2^300)^(1/3) - 2^100", names=[]))
    assert rep.is_zero and rep.exact
    # above 1e308 the float estimate raised OverflowError; 10^400 has no
    # rational cube root, so the power stays unevaluated
    e = parse("(10^400)^(1/3)", names=[])
    assert isinstance(e, ex.Pow) and e.base is ex.rat(10 ** 400)
    assert parse("(10^402)^(1/3)", names=[]) is ex.rat(10 ** 134)


def test_parse_totality_on_printer_output():
    rng = random.Random(11)
    names = ("x", "u", "p")
    for _ in range(100):
        e = rand_expr(rng, names, depth=6)
        back = parse(ex.to_dsl(e), names=names)
        assert is_zero(ex.sub(back, e))


# -- differentiation ---------------------------------------------------------

def test_diff_power_rule():
    x, mu = ex.var("x"), ex.var("mu")
    assert ex.diff(ex.mul(x, x, mu), "x") is ex.mul(ex.rat(2), x, mu)


def test_diff_log():
    mu = ex.var("mu")
    assert ex.diff(ex.log_(mu), "mu", CHART.constraints) is ex.pw(mu, -1)


def test_diff_abs_on_branch():
    mu = ex.var("mu")
    assert ex.diff(ex.abs_(mu), "mu", CHART.constraints) is ex.ONE
    with pytest.raises(ex.DomainError):
        ex.diff(ex.abs_(ex.var("x")), "x", CHART.constraints)
    with pytest.raises(ex.DomainError):
        ex.diff(ex.sign_(ex.var("x")), "x")


def test_diff_matches_finite_differences():
    rng = random.Random(7)
    names = ("x", "u")
    checked = 0
    for _ in range(40):
        e = rand_expr(rng, names, depth=3)
        v = rng.choice(names)
        try:
            de = ex.diff(e, v, ())
        except ex.DomainError:
            continue
        for _ in range(10):
            point = rand_point(rng, names)
            got = float_value(de, point)
            want = finite_difference(e, v, point)
            if not (math.isfinite(got) and math.isfinite(want)):
                continue    # outside the domain of e or of its derivative
            if abs(want) > 1e6:  # too steep for a stable difference quotient
                continue
            assert got == pytest.approx(want, rel=1e-3, abs=1e-4)
            checked += 1
    assert checked > 50


# -- zero testing -------------------------------------------------------------

def test_is_zero_algebraic_identity():
    x, mu = ex.var("x"), ex.var("mu")
    e = ex.sub(ex.pw(ex.add(x, mu), 2),
               ex.add(ex.pw(x, 2), ex.mul(ex.rat(2), x, mu), ex.pw(mu, 2)))
    assert is_zero(e)


def test_is_zero_pythagorean():
    x = ex.var("x")
    assert is_zero(ex.sub(ex.add(ex.pw(ex.sin_(x), 2), ex.pw(ex.cos_(x), 2)),
                          ex.ONE))


def test_is_zero_reports_witness():
    mu, x = ex.var("mu"), ex.var("x")
    rep = zero_report(ex.sub(mu, x))
    assert not rep.is_zero
    assert rep.exact
    assert rep.witness is not None
    assert rep.witness["mu"] - rep.witness["x"] == rep.witness_value


def test_is_zero_deterministic_per_seed():
    mu, x = ex.var("mu"), ex.var("x")
    e = ex.sub(ex.mul(mu, x), ex.sin_(x))
    a = zero_report(e, ZeroTestPolicy(seed=3))
    b = zero_report(e, ZeroTestPolicy(seed=3))
    assert (a.is_zero, a.witness, a.witness_value) == (b.is_zero, b.witness, b.witness_value)
    c = zero_report(e, ZeroTestPolicy(seed=4))
    assert not c.is_zero  # verdict stable across seeds even if witness moves


def test_constraints_respected_in_sampling():
    mu = ex.var("mu")
    pol = ZeroTestPolicy(constraints=(ex.Constraint("mu", ">", 0),))
    rep = zero_report(ex.sub(ex.abs_(mu), mu), pol)
    assert rep.is_zero  # |mu| = mu on the positive branch


_SAMPLED_DOMAINS = {
    "x < -1": ((ex.Constraint("x", "<", -1),), lambda x: x < -1, None),
    "x != 0": ((ex.Constraint("x", "!=", 0),), lambda x: x != 0, Fraction(0)),
    "0 < x < 1, x != 1/2": ((ex.Constraint("x", ">", 0), ex.Constraint("x", "<", 1),
                             ex.Constraint("x", "!=", Fraction(1, 2))),
                            lambda x: 0 < x < 1 and x != Fraction(1, 2), Fraction(1, 2)),
}


@pytest.mark.parametrize("domain", list(_SAMPLED_DOMAINS))
def test_sampled_points_satisfy_constraints(domain):
    # an upper bound alone, and a value excluded by != that the draws hit
    # and draw again
    constraints, holds, excluded = _SAMPLED_DOMAINS[domain]

    def stream(seed, cons=constraints):
        return list(itertools.islice(zt._points(["x"], cons, seed), 200))

    points = stream(7)
    assert all(holds(pt["x"]) for pt in points)
    assert points == stream(7) and points != stream(8)
    if excluded is not None:
        bounds = tuple(c for c in constraints if c.op != "!=")
        assert {"x": excluded} in stream(7, bounds)
    pol = ZeroTestPolicy(sample_count=50, seed=7, constraints=constraints)
    values = list(zt.sample_values([ex.var("x")], ["x"], pol, 0))
    assert values == [(pt, [pt["x"]]) for pt in points[:50]]


def test_float_witness_lies_in_an_upper_bounded_domain():
    x = ex.var("x")
    pol = ZeroTestPolicy(constraints=(ex.Constraint("x", "<", -1),))
    rep = zero_report(ex.sub(ex.exp_(x), ex.ONE), pol)
    assert not rep.is_zero and not rep.exact
    assert rep.witness["x"] < -1
    assert rep.witness_value == pytest.approx(math.exp(rep.witness["x"]) - 1, rel=1e-12)
    assert rep == zero_report(ex.sub(ex.exp_(x), ex.ONE), pol)


def test_unsatisfiable_constraints():
    pol = ZeroTestPolicy(constraints=(ex.Constraint("x", ">", 1),
                                      ex.Constraint("x", "<", 0)))
    with pytest.raises(ConfigError):
        zero_report(ex.var("x"), pol)


def test_unsatisfiable_constraints_raise_on_a_zero_query():
    # GF(p) decides this query zero without a rational point, yet its
    # constraints are read and refused as for any other query
    pol = ZeroTestPolicy(constraints=(ex.Constraint("x", ">", 1),
                                      ex.Constraint("x", "<", 0)))
    e = parse("(x+1)^2 - x^2 - 2*x - 1", names=["x"])
    assert not isinstance(ex.simplify(e, pol.constraints), ex.Rat)
    assert zero_report(e).is_zero
    with pytest.raises(ConfigError, match="constraints on x are unsatisfiable"):
        zero_report(e, pol)


def test_policy_validation():
    with pytest.raises(ConfigError):
        ZeroTestPolicy(sample_count=0)
    with pytest.raises(ConfigError):
        ZeroTestPolicy(tolerance=0.0)


def test_policy_sample_count_within_draw_budget():
    # a query draws at most MAX_SAMPLES points, so a larger count was a
    # ConfigError blaming the expression ("may be singular")
    with pytest.raises(ConfigError, match="sample_count must be from 1 to 201"):
        ZeroTestPolicy(sample_count=zt.MAX_SAMPLES + 1)
    assert zero_report(ex.sin_(ex.var("x")),
                       ZeroTestPolicy(sample_count=zt.MAX_SAMPLES)).samples == 201


def test_exact_path_is_exact():
    # 1e-30 is way below tolerance but the rational path must flag it
    e = ex.rat(Fraction(1, 10 ** 30))
    assert not is_zero(e)
    x = ex.var("x")
    tiny = ex.mul(ex.rat(Fraction(1, 10 ** 30)), x)
    assert not is_zero(tiny)


def _reference_report(e, policy):
    """The zero test one point at a time, with every exact value computed
    whole (expr.eval_exact, which test_numtape checks against sympy): the
    rule zero_report's GF(p) and float evaluation must reproduce.  A
    rational query reduces the exact value at its point
    mod the fixed prime P0 = 2^61 - 1, and when that is not a nonzero
    residue, at each uniform point mod p (a pole mod p is replaced by the
    next draw); it looks for the witness of a nonzero residue among the
    rational draws in order, all keyed by the node's digest; a float
    query's draws are keyed by its printed text.
    There is no bit budget, so it suits small inputs only.  Returns the
    verdict fields and the number of rational draws."""
    e = ex.simplify(e, policy.constraints)
    names = sorted(e.free)
    seed = policy.seed * 0x9E3779B97F4A7C15
    rng = random.Random((zt._digest if e.rational else zt._fingerprint)(e, policy) ^ seed)
    lo, hi, excl = zt._bounds(policy.constraints, set(names))
    tape = numtape.compile_tape(e, names)

    def exact(point):
        try:
            return ex.eval_exact(e, point)
        except ZeroDivisionError:
            return None

    if e.rational:
        def residue(rng, p):
            v = exact({n: Fraction(rng.randrange(p)) for n in names})
            if v is None or v.denominator % p == 0:
                return None
            return v.numerator * pow(v.denominator, -1, p) % p

        key = zt._digest(e, policy) ^ seed
        if not residue(random.Random(f"P0:{key}"), 2 ** 61 - 1):
            prime_rng = random.Random(f"prime:{key}")
            p = 0
            while not zt._is_prime(p) or any(c.denominator % p == 0 for c in tape.exact):
                p = prime_rng.getrandbits(61) | (1 << 61) | 1
            degree = numtape.degree_bound(tape)
            k = next(k for k in itertools.count(1) if degree ** k << 40 <= p ** k)
            residues = [residue(prime_rng, p) for _ in range(k)]
            redraws = 0
            while None in residues and not any(residues):
                if redraws == zt._MAX_REDRAWS:
                    raise ConfigError("could not find enough valid sample points")
                redraws += 1
                residues[residues.index(None)] = residue(prime_rng, p)
            if not any(residues):
                return (True, True, None, None, k), 0
        for draws in range(1, policy.sample_count + 1):
            point = {n: zt._draw(rng, lo, hi, excl, n) for n in names}
            val = exact(point)
            if val:
                return (False, True, point, val, draws), draws
        return (False, True, None, None, policy.sample_count), policy.sample_count
    points, floats, draws = [], [], 0
    while len(points) < policy.sample_count:
        if draws > zt._MAX_REDRAWS:
            raise ConfigError("could not find enough valid sample points")
        draws += 1
        point = {n: zt._draw(rng, lo, hi, excl, n) for n in names}
        v = numtape.eval_tape(tape, [point])[0]
        if math.isfinite(v):
            points.append(point)
            floats.append(v)
    n = len(points)
    worst = max(range(n), key=lambda i: abs(floats[i]))
    if abs(floats[worst]) > policy.tolerance:
        return (False, False, points[worst], floats[worst], n), draws
    return (True, False, None, None, n), draws


@contextlib.contextmanager
def _tape_calls():
    """Record each float (`eval_tape`) and GF(p) (`eval_tape_mod`) tape
    evaluation as ("float" | "mod", number of points)."""
    calls = []
    real_float, real_mod = numtape.eval_tape, numtape.eval_tape_mod

    def float_spy(tape, values):
        calls.append(("float", len(values)))
        return real_float(tape, values)

    def mod_spy(tape, points, p):
        calls.append(("mod", len(points)))
        return real_mod(tape, points, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numtape, "eval_tape", float_spy)
        mp.setattr(numtape, "eval_tape_mod", mod_spy)
        yield calls


def _report_matching_reference(e, pol, want, label):
    """zero_report against the one-point-at-a-time reference: verdict, exact
    flag, witness and value agree, and so does `samples` on a nonzero
    verdict.  A rational query makes no float call, and a zero one is
    evaluated at the fixed prime's point, then decided at one uniform point
    of GF(p)^n: two eval_tape_mod calls."""
    with _tape_calls() as calls:
        rep = zero_report(e, pol)
    assert (rep.is_zero, rep.exact, rep.witness, rep.witness_value) == want[:4], label
    if rep.exact:
        assert all(kind == "mod" for kind, _ in calls), label
    if rep.is_zero and rep.exact:
        assert rep.samples == 1 and calls == [("mod", 1)] * 2, label
    else:
        assert rep.samples == want[4], label
    return rep


def test_zero_report_matches_fraction_reference():
    # log(x - 5/2) is finite on about 1 draw in 9, so the 201-draw limit
    # ends some of its queries and not others
    exprs = ["1/x", "sqrt(x)", "log(x)", "1/(x - y) + x",
             "(x^2 - y^2)/(x - y) - x - y", "abs(x)/x - sign(x)", "log(x - 5/2)"]
    redraws = limits = uniform = 0
    for text in exprs:
        e = parse(text, names=["x", "y"])
        for seed in range(6):
            pol = ZeroTestPolicy(seed=seed)
            try:
                want, draws = _reference_report(e, pol)
            except ConfigError:
                limits += 1
                with pytest.raises(ConfigError):
                    zero_report(e, pol)
                continue
            rep = _report_matching_reference(e, pol, want, (text, seed))
            if rep.is_zero and rep.exact:
                uniform += 1        # no rational point drawn
            else:
                redraws += draws - rep.samples
    # redraws, the limit and the uniform-point rule all occur
    assert redraws > 100 and 0 < limits < 6 and uniform == 6


def test_sampling_nowhere_finite_raises():
    with pytest.raises(ConfigError):
        zero_report(parse("log(-1 - x^2)", names=["x"]))


def test_all_zero_stops_at_first_nonzero_pair(monkeypatch):
    # (key, expression) pairs are tested in order; the sweep returns the
    # first nonzero pair's key and report and leaves the rest untouched
    x = ex.var("x")
    tested = []
    real = zt.zero_report

    def spy(e, policy=zt.DEFAULT_POLICY):
        tested.append(e)
        return real(e, policy)

    monkeypatch.setattr(zt, "zero_report", spy)
    pairs = iter([("a", ex.sub(x, x)), ("b", ex.sub(ex.pw(x, 2), ex.mul(x, x))),
                  ("c", ex.sub(x, 1)), ("d", x)])
    ok, (key, rep) = zt.all_zero(pairs)
    assert not ok and key == "c"
    assert not rep.is_zero and rep.exact and rep.witness_value == rep.witness["x"] - 1
    assert tested == [ex.ZERO, ex.ZERO, ex.sub(x, 1)]
    assert next(pairs) == ("d", x)
    # a list of pairs is one such iterable, never read as enumerate()
    ok, (key, _) = zt.all_zero([((0, 1), ex.ZERO), ((1, 0), x)])
    assert not ok and key == (1, 0)
    assert zt.all_zero([("p", ex.ZERO), ("q", ex.sub(x, x))]) == (True, None)
    assert zt.all_zero(iter(())) == (True, None)


def test_all_zero_tests_each_residual_once_up_to_sign(monkeypatch):
    # a residual decided zero over GF(p) decides its negation too; float
    # zeros and literals are tested every time, and nothing outlives a sweep
    tested = []
    real = zt.zero_report

    def spy(e, policy=zt.DEFAULT_POLICY):
        tested.append(e)
        return real(e, policy)

    monkeypatch.setattr(zt, "zero_report", spy)
    r = parse("(x + y)*(x - y) - x*(x - y) - y*(x - y)", names=["x", "y"])
    assert not isinstance(ex.simplify(r), ex.Rat) and r.rational
    pairs = [("a", r), ("b", ex.neg(r)), ("c", r), ("d", ex.ZERO), ("e", ex.ZERO)]
    assert zt.all_zero(pairs) == (True, None)
    assert tested == [r, ex.ZERO, ex.ZERO]
    tested.clear()
    assert zt.all_zero(pairs) == (True, None)
    assert tested == [r, ex.ZERO, ex.ZERO]

    tested.clear()
    f = parse("sin(x)^2 + cos(x)^2 - 1", names=["x"])
    assert zt.all_zero([("f", f), ("-f", ex.neg(f))]) == (True, None)
    assert tested == [f, ex.neg(f)] and not zero_report(f).exact

    tested.clear()
    x = ex.var("x")
    ok, (key, rep) = zt.all_zero(iter([("a", r), ("b", ex.neg(r)), ("c", ex.sub(x, 1)),
                                       ("d", ex.sub(1, x))]))
    assert not ok and key == "c" and not rep.is_zero
    assert tested == [r, ex.sub(x, 1)]
    # after the first GF(p) zero the rest is decided at one shared point: a
    # zero there makes no query, and the first nonzero residual gets the
    # query and report it gets alone, after the queries before it
    tested.clear()
    q = parse("(x + 1)^2 - x^2 - 2*x - 1", names=["x"])
    ok, (key, rep) = zt.all_zero([("a", r), ("q", q), ("0", ex.ZERO), ("-q", ex.neg(q)),
                                  ("c", ex.sub(x, 1)), ("r", r), ("d", ex.sub(1, x))])
    assert not ok and key == "c"
    assert tested == [r, ex.ZERO, ex.sub(x, 1)]
    assert rep == zero_report(ex.sub(x, 1))

    # a pair whose construction raises is built before the shared point;
    # the error waits for the pairs before it, and a failure among them wins
    def raising(*pairs):
        yield from pairs
        raise ZeroDivisionError("built after the rest")

    ok, (key, _) = zt.all_zero(raising(("a", r), ("q", q), ("c", ex.sub(x, 1))))
    assert not ok and key == "c"
    with pytest.raises(ZeroDivisionError, match="built after the rest"):
        zt.all_zero(raising(("a", r), ("q", q), ("-r", ex.neg(r))))


def test_all_zero_singular_residual_at_a_shared_point(monkeypatch):
    # a residual defined nowhere makes the shared point raise ConfigError,
    # so each residual is queried alone and that one raises, as alone
    tested = []
    real = zt.zero_report

    def spy(e, policy=zt.DEFAULT_POLICY):
        tested.append(e)
        return real(e, policy)

    monkeypatch.setattr(zt, "zero_report", spy)
    r = parse("(x + y)*(x - y) - x*(x - y) - y*(x - y)", names=["x", "y"])
    q = parse("(x + 1)^2 - x^2 - 2*x - 1", names=["x"])
    nowhere = parse("1/((x+1)^2 - x^2 - 2*x - 1)", names=["x"])
    with pytest.raises(ConfigError) as alone:
        real(nowhere)
    with pytest.raises(ConfigError) as swept:
        zt.all_zero([("a", r), ("q", q), ("n", nowhere), ("y", ex.var("y"))])
    assert str(swept.value) == str(alone.value)
    assert "singular on the whole domain" in str(alone.value)
    assert tested == [r, q, nowhere]


def test_shared_point_key_of_one_root_is_its_own():
    # the shared point's key is _digest of the roots in order; one root's
    # is the expression's own, so it draws the prime and points a query
    # of that expression alone draws
    pol = ZeroTestPolicy(seed=3, constraints=(ex.Constraint("x", ">", 0),))
    e = parse("(x + y)^2 - x^2 - 2*x*y - y^2 + x/7", names=["x", "y"])
    f = parse("x*y - 1", names=["x", "y"])
    assert zt._digest((e,), pol) == zt._digest(e, pol)
    assert len({zt._digest(e, pol), zt._digest((e, f), pol),
                zt._digest((f, e), pol)}) == 3
    key = zt._digest(e, pol) ^ pol.seed * zt._SEED_SCALE
    assert zt._uniform_residue(numtape.compile_tape((e,)), key, pol) == \
        zt._uniform_residue(numtape.compile_tape(e, ["x", "y"]), key, pol)
    # two roots: each gets the residue it has at the shared points
    both = numtape.compile_tape((e, f))
    (re_, rf), p, k = zt._uniform_residue(
        both, zt._digest((e, f), pol) ^ pol.seed * zt._SEED_SCALE, pol)
    assert re_ and rf and k == 1 and both.varnames == ("x", "y")


def _reference_sweep(pairs, policy):
    """all_zero's (ok, key) by a plain loop that tests every pair."""
    for key, e in pairs:
        if not zero_report(e, policy).is_zero:
            return False, key
    return True, None


def test_all_zero_matches_reference_loop(monkeypatch):
    # a zero residual z that simplify leaves to the sampler, -z and z, then
    # r, -r, q, -q and -z in any order; the rest after z is decided at a
    # shared point, which meets a nonzero residual first and second
    nonzero_at = set()
    real = zt._uniform_residue

    def spy(tape, key, policy):
        residues, p, k = real(tape, key, policy)
        if len(tape.roots) > 1:
            nonzero_at.update(i for i, v in enumerate(residues) if v)
        return residues, p, k

    monkeypatch.setattr(zt, "_uniform_residue", spy)

    @settings(derandomize=True, max_examples=80, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(RATIONAL_DSL, RATIONAL_DSL, st.permutations(range(3, 8)))
    def check(a, b, tail):
        try:
            r, q = parse(a, names=["x", "y"]), parse(b, names=["x", "y"])
            z = parse(f"(({a}) + ({b}))*({b}) - ({a})*({b}) - ({b})*({b})", names=["x", "y"])
        except ZeroDivisionError:
            return      # a literal division by zero never reaches the zero test
        exprs = [z, ex.neg(z), z, r, ex.neg(r), q, ex.neg(q), ex.neg(z)]
        pairs = [(i, exprs[i]) for i in (0, 1, 2, *tail)]
        try:
            want = _reference_sweep(pairs, zt.DEFAULT_POLICY)
        except ConfigError:
            with pytest.raises(ConfigError):
                zt.all_zero(pairs)
            return
        ok, bad = zt.all_zero(pairs)
        assert (ok, bad and bad[0]) == want, (a, b, tail)

    check()
    assert nonzero_at == {0, 1}


def test_exact_confirmation_once_per_point(monkeypatch):
    calls = []
    real = numtape.eval_tape_exact

    def counting(tape, point, budget=None):
        calls.append(point)
        return real(tape, point, budget)

    monkeypatch.setattr(numtape, "eval_tape_exact", counting)
    x, y = ex.var("x"), ex.var("y")
    square = ex.pw(ex.add(x, y), 2)
    # a zero residue at the fixed prime's point, then one at a uniform
    # point of GF(p)^2, decide a zero verdict, with no float pass and no
    # rational point
    with _tape_calls() as tape_calls:
        rep = zero_report(ex.sub(square, ex.add(ex.pw(x, 2), ex.mul(ex.rat(2), x, y),
                                                ex.pw(y, 2))))
    assert rep.is_zero and rep.exact and rep.samples == 1
    assert tape_calls == [("mod", 1)] * 2
    assert calls == []
    # a nonzero verdict evaluates its witness exactly, and nothing else
    rep = zero_report(ex.sub(square, ex.add(ex.pw(x, 2), ex.pw(y, 2))))
    assert not rep.is_zero and rep.exact
    assert calls == [rep.witness]
    assert rep.witness_value == 2 * rep.witness["x"] * rep.witness["y"]
    assert type(rep.witness_value) is Fraction


@settings(derandomize=True, max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(RATIONAL_DSL, st.integers(0, 3))
def test_modular_confirmation_matches_fraction_reference(text, seed):
    try:
        e = parse(text, names=["x", "y"])
    except ZeroDivisionError:
        return      # a literal division by zero never reaches the zero test
    assume(not isinstance(ex.simplify(e), ex.Rat))
    pol = ZeroTestPolicy(seed=seed)
    try:
        want, _ = _reference_report(e, pol)
    except ConfigError:
        with pytest.raises(ConfigError):
            zero_report(e, pol)
        return
    _report_matching_reference(e, pol, want, text)


@settings(derandomize=True, max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(RATIONAL_DSL, RATIONAL_DSL)
def test_rational_verdicts_match_sympy(a, b):
    # independent oracle: a - b is zero iff sympy cancels it to 0, and a
    # witness value is sympy's exact value of the cancelled form there
    sympy = pytest.importorskip("sympy")
    try:
        e = ex.sub(parse(a, names=["x", "y"]), parse(b, names=["x", "y"]))
    except ZeroDivisionError:
        return      # a literal division by zero never reaches the zero test
    X, Y = sympy.symbols("x y")
    want = sympy.cancel(sympy.sympify(f"({a}) - ({b})".replace("^", "**")))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numtape, "eval_tape", None)     # no float pass may run
        rep = zero_report(e)
    assert rep.exact and rep.is_zero == (want == 0), (a, b)
    if rep.witness is not None:
        point = {X: rep.witness.get("x", 0), Y: rep.witness.get("y", 0)}
        assert sympy.Rational(rep.witness_value) == want.subs(point), (a, b)


_MERSENNE_61 = 2 ** 61 - 1
# primes in [2^61, 2^62), the range the per-query prime is drawn from
_BIG_PRIMES = (2 ** 61 + 15, 2 ** 61 + 21, 2 ** 61 + 57)


@pytest.mark.parametrize("gap", [_MERSENNE_61, math.prod(_BIG_PRIMES)])
def test_modular_confirmation_sees_multiples_of_large_primes(gap):
    # A*(x+1)^2 - B*(x^2+2*x+1) = (A - B)*(x+1)^2: every value is a multiple
    # of A - B, so a modulus dividing A - B would read it as zero everywhere
    x = ex.var("x")
    b = Fraction(3, 7)
    e = ex.sub(ex.mul(ex.rat(gap + b), ex.pw(ex.add(x, ex.ONE), 2)),
               ex.mul(ex.rat(b), ex.add(ex.pw(x, 2), ex.mul(ex.rat(2), x), ex.ONE)))
    assert not isinstance(ex.simplify(e), ex.Rat)
    if gap == _MERSENNE_61:
        tape = numtape.compile_tape(ex.simplify(e), ["x"])
        points = [{"x": Fraction(k, 5)} for k in range(1, 6)]
        assert numtape.eval_tape_mod(tape, points, _MERSENNE_61) == [0] * 5
    for seed in range(4):
        rep = zero_report(e, ZeroTestPolicy(seed=seed))
        assert not rep.is_zero and rep.exact
        assert rep.witness_value == gap * (rep.witness["x"] + 1) ** 2
        assert type(rep.witness_value) is Fraction


@pytest.mark.parametrize("case", ["denominator-p0", "zero-residue-mod-p0"])
def test_fixed_prime_decides_only_nonzero_residues(case, monkeypatch):
    # a nonzero residue mod P0 = 2^61 - 1 is a nonzero verdict; a query with
    # none there (P0 divides a denominator, or its value at the fixed point
    # is 0 mod P0) goes on to a drawn prime, the only rule that gives a zero
    # verdict, and is nonzero there
    x = ex.var("x")
    if case == "denominator-p0":
        c = Fraction(1, _MERSENNE_61)
        e, want = ex.add(x, ex.rat(c)), lambda pt: pt["x"] + c
    else:
        monkeypatch.setattr(zt, "_fixed_point", lambda names, key: {"x": 5 + _MERSENNE_61})
        e, want = ex.mul(ex.sub(x, ex.rat(5)), ex.add(x, ex.ONE)), \
            lambda pt: (pt["x"] - 5) * (pt["x"] + 1)
    primes = []
    real_mod = numtape.eval_tape_mod

    def mod_spy(tape, points, q):
        residues = real_mod(tape, points, q)
        primes.append((q, residues[0]))
        return residues

    monkeypatch.setattr(numtape, "eval_tape_mod", mod_spy)
    rep = zero_report(e)
    assert not rep.is_zero and rep.exact
    p, _ = zt._query_prime(zt._digest(ex.simplify(e), zt.DEFAULT_POLICY))
    assert [q for q, _ in primes] == [_MERSENNE_61, p]
    assert primes[0][1] == (None if case == "denominator-p0" else 0) and primes[1][1]
    assert rep.witness_value == want(rep.witness) != 0


def test_modular_evaluator_falls_back():
    p = _BIG_PRIMES[0]
    x = ex.var("x")
    tape = numtape.compile_tape(ex.add(x, ex.rat(Fraction(1, p))), ["x"])
    assert numtape.eval_tape_mod(tape, [{"x": Fraction(1, 2)}], p) == [None]
    q = _BIG_PRIMES[1]
    v = Fraction(1, 2) + Fraction(1, p)
    assert numtape.eval_tape_mod(tape, [{"x": Fraction(1, 2)}], q) == [
        v.numerator * pow(v.denominator, -1, q) % q]
    # an exact pole falls back at its point only
    e = ex.add(ex.pw(ex.sub(x, ex.rat(Fraction(1, 2))), -1), x)
    tape = numtape.compile_tape(e, ["x"])
    points = [{"x": Fraction(1, 2)}, {"x": Fraction(3, 2)}, {"x": Fraction(1, p)}]
    assert numtape.eval_tape_mod(tape, points, p) == [None, 5 * pow(2, -1, p) % p, None]


def test_zero_report_falls_back_to_fractions(monkeypatch):
    # when the query's first prime divides a constant's denominator, no
    # residue exists mod that prime; the next prime the same RNG draws
    # decides the query at its uniform point instead.  Each query here has
    # no nonzero residue at the fixed prime P0 (a denominator P0 divides,
    # or a zero), so it reaches the drawn primes
    p = _BIG_PRIMES[0]
    monkeypatch.setattr(zt, "_query_prime", lambda key: (p, random.Random(key)))
    primes = []
    real_mod = numtape.eval_tape_mod

    def mod_spy(tape, points, q):
        primes.append(q)
        return real_mod(tape, points, q)

    monkeypatch.setattr(numtape, "eval_tape_mod", mod_spy)
    x = ex.var("x")
    c = Fraction(1, p * _MERSENNE_61)
    rep = zero_report(ex.add(ex.pw(x, 2), ex.rat(c)))
    assert not rep.is_zero and rep.exact and rep.samples == 1
    assert rep.witness_value == rep.witness["x"] ** 2 + c
    e = ex.sub(ex.pw(ex.add(x, ex.rat(Fraction(1, p))), 2),
               ex.add(ex.pw(x, 2), ex.mul(ex.rat(Fraction(2, p)), x),
                      ex.rat(Fraction(1, p * p))))
    assert not isinstance(ex.simplify(e), ex.Rat)
    with _tape_calls() as calls:
        rep = zero_report(e)
    assert rep.is_zero and rep.exact and rep.samples == 1
    assert calls == [("mod", 1)] * 2
    # each query's prime is the one its RNG, keyed by the node's digest,
    # draws after p, never p itself
    key = zt._digest(ex.simplify(e), zt.DEFAULT_POLICY)
    assert primes[-1] == zt._next_prime(random.Random(key)) != p
    assert primes[0] == primes[2] == _MERSENNE_61
    assert len(set(primes)) == 3 and p not in primes


def _fixed_point_residue(e, pol):
    """The query's residue at its point of GF(P0)^n, P0 = 2^61 - 1, drawn
    as zero_report draws it (keyed by the node's digest) and evaluated in
    Fractions."""
    s = ex.simplify(e, pol.constraints)
    key = zt._digest(s, pol) ^ (pol.seed * 0x9E3779B97F4A7C15)
    v = ex.eval_exact(s, zt._fixed_point(sorted(s.free), key))
    return v.numerator * pow(v.denominator, -1, _MERSENNE_61) % _MERSENNE_61


# every value _draw can produce on 0 < x < 1: k/d with 2 <= d <= 13
_DRAWABLE_ON_UNIT_INTERVAL = sorted({Fraction(k, d) for d in range(2, 14)
                                     for k in range(1, d)})


@pytest.mark.parametrize("case", ["no-finite-sample", "every-sample-a-root"])
def test_nonzero_proof_without_rational_witness(case):
    # a nonzero residue at the fixed prime's point proves the query nonzero
    # even when no rational draw is a witness: here the polynomial vanishes on
    # every point _draw can give.  No float is evaluated on the way, so a
    # query whose every float value is infinite (10^400*x - 1) has an
    # exact witness at its first draw, and no certificate
    x = ex.var("x")
    t0 = time.perf_counter()
    if case == "no-finite-sample":
        with _tape_calls() as calls:
            rep = zero_report(parse("10^400*x - 1", names=["x"]))
        assert time.perf_counter() - t0 < 1
        assert not rep.is_zero and rep.exact and rep.samples == 1
        assert rep.witness_value == 10 ** 400 * rep.witness["x"] - 1
        assert calls == [("mod", 1)]
        return
    assert len(_DRAWABLE_ON_UNIT_INTERVAL) == 57
    e = ex.mul(*[ex.sub(x, ex.rat(q)) for q in _DRAWABLE_ON_UNIT_INTERVAL])
    pol = ZeroTestPolicy(constraints=(ex.Constraint("x", ">", 0),
                                      ex.Constraint("x", "<", 1)))
    rep = zero_report(e, pol)
    assert time.perf_counter() - t0 < 1
    assert not rep.is_zero and rep.exact and rep.samples == 20
    assert rep.witness is None and rep.witness_value is None
    r = _fixed_point_residue(e, pol)
    assert r != 0
    assert rep.note == (f"nonzero residue {r} mod p = {_MERSENNE_61} at a uniform "
                        "point; no rational sample is a witness")
    assert rep.witness_fields() == {"note": rep.note}


@pytest.mark.parametrize("d", [20, 24])
def test_nested_squares_over_bit_budget_give_a_certificate(d):
    # the bit bound of (1 + x*(... x)^2)^2, d squares deep, read from the
    # tape is past MAX_CONSTANT_BITS at every rational draw (even at 0, where
    # the value is 1), so no draw is evaluated and the residue is the
    # certificate; an exact value at 13/8 would have millions of bits.  The
    # exact evaluator reads the root None under the budget, and 1 without
    e = parse("(1 + x*" * d + "x" + ")^2" * d, names=["x"])
    t0 = time.perf_counter()
    rep = zero_report(e)
    assert time.perf_counter() - t0 < 1
    assert not rep.is_zero and rep.exact and rep.witness is None
    assert rep.samples == 20 and rep.note.startswith("nonzero residue ")
    tape = numtape.compile_tape(ex.simplify(e), ["x"])
    for k in (-3, 0, 1):
        assert numtape.eval_tape_exact(tape, {"x": Fraction(k)}, MAX_CONSTANT_BITS) == [None]
    assert numtape.eval_tape_exact(tape, {"x": Fraction(0)}) == [1]


def test_nowhere_defined_rational_query_is_a_config_error():
    # (x+1)^2 - x^2 - 2*x - 1 is 0 at every point, so 1/(...) is a pole at
    # the fixed prime's point and at every uniform point: redrawn until the
    # redraws run out, never a verdict (the rational points once counted
    # such poles as zeros)
    with _tape_calls() as calls:
        with pytest.raises(ConfigError, match=r"^could not find enough valid sample "
                           r"points \(expression may be singular on the whole "
                           r"domain\)$"):
            zero_report(parse("1/((x+1)^2 - x^2 - 2*x - 1)", names=["x"]))
    assert calls == [("mod", 1)] * (zt._MAX_REDRAWS + 2)


@pytest.mark.parametrize("text", [
    "1/((x+1)^2 - x^2 - 2*x - 1)", "10^400*x - 1", "(x + y)^2 - x^2 - 2*x*y - y^2",
    "(x^2 - y^2)/(x - y) - x - y", "1/x - 1/(x + 10^-400)", "x*y - 1/3",
    "(1 + x*(1 + x*(1 + x*x)^2)^2)^2 - 1"])
def test_rational_query_never_evaluates_floats(text, monkeypatch):
    def no_float(tape, points):
        raise AssertionError("float evaluation of a rational query")

    monkeypatch.setattr(numtape, "eval_tape", no_float)
    e = parse(text, names=["x", "y"])
    assert ex.simplify(e).rational
    for seed in range(3):
        try:
            zero_report(e, ZeroTestPolicy(seed=seed))
        except ConfigError as err:
            assert "singular on the whole domain" in str(err)


def test_constant_beyond_float_range_named_in_config_error():
    # every float sample is non-finite because a constant is, not because
    # of the domain, and a non-rational query has no exact fallback
    with pytest.raises(ConfigError, match=r"^could not find enough valid sample "
                       r"points \(a constant is outside the float range\)$"):
        zero_report(parse("10^400*sin(x) - 1", names=["x"]))
    with pytest.raises(ConfigError, match="singular on the whole domain"):
        zero_report(parse("log(-x^2 - 1)", names=["x"]))


def _nested_squares(d):
    """(1 + x*(1 + x*(... x)^2)^2)^2, d squares deep: a tape of a few
    hundred nodes with numerator degree about 2^(d + 2)."""
    x = g = ex.var("x")
    for _ in range(d):
        g = ex.pw(ex.add(ex.ONE, ex.mul(x, g)), 2)
    return g


def _square_identity(g):
    """(g + 1)^2 - g^2 - 2g - 1, zero but not a literal zero."""
    return ex.sub(ex.pw(ex.add(g, ex.ONE), 2),
                  ex.add(ex.pw(g, 2), ex.mul(ex.rat(2), g), ex.ONE))


def test_zero_verdict_past_one_uniform_point():
    # with D ~ 2^22.6 one point has error D/p > 2^-40, so two uniform points
    # decide the identity, after its zero residue at the fixed prime's point
    e = _square_identity(_nested_squares(20))
    s = ex.simplify(e)
    assert numtape.degree_bound(numtape.compile_tape(s, ["x"])) == 6291452
    with _tape_calls() as calls:
        rep = zero_report(e)
    assert rep.is_zero and rep.exact and rep.samples == 2
    assert calls == [("mod", 1)] * 3
    # past p/2 no number of points reaches 2^-40: a query that may be zero
    # (a zero residue mod P0) raises, while a nonzero residue mod P0 decides
    # a query of that degree before its degree is read
    with pytest.raises(ConfigError, match="numerator degree bound 6917529027641081852 "
                       "is too large"):
        zero_report(_square_identity(_nested_squares(60)))
    e = ex.sub(ex.pw(_nested_squares(60), 2), ex.pw(ex.var("x"), 2))
    rep = zero_report(e)
    assert not rep.is_zero and rep.exact and rep.witness is None
    assert rep.note.startswith("nonzero residue ") and f"mod p = {_MERSENNE_61} " in rep.note


def test_sample_values_reads_each_root_alone():
    # the rational expressions of one sample_values call are the roots of
    # one tape, read in one exact pass per point: a root past the bit budget
    # (nested squares) or at a pole reads None there, and its sibling keeps
    # its exact value; each float expression has a tape of its own, so a
    # domain error in one leaves another's value
    x = ex.var("x")
    pol = ZeroTestPolicy(sample_count=3)
    points = list(itertools.islice(zt._points(["x"], (), pol.seed ^ 5), 3))
    x0 = ex.rat(points[0]["x"])
    exprs = [_nested_squares(20), ex.pw(ex.sub(x, x0), -1), ex.add(ex.pw(x, 2), ex.ONE),
             ex.log_(ex.sub(x, x0)), ex.sin_(x)]
    got = list(zt.sample_values(exprs, ["x"], pol, 5))
    assert [pt for pt, _ in got] == points
    for i, (pt, (deep, pole, square, log, sine)) in enumerate(got):
        v = pt["x"]
        assert deep is None and square == v ** 2 + 1 and type(square) is Fraction
        assert pole == (None if i == 0 else 1 / (v - x0.value))
        assert sine == math.sin(v) and (log is None) == (i == 0 or v < x0.value)


@pytest.mark.parametrize("text, degree", [
    ("x", 1), ("x*y", 2), ("1/x", 0), ("x + 1/y", 2), ("1/x + 1/y", 1),
    ("(x + y)^-2", 0), ("x^3 - y", 3), ("(x/y)^-2 + x", 3),
    ("(x^2 - y^2)/(x - y) - x - y", 2)])
def test_degree_bound_by_hand(text, degree):
    s = ex.simplify(parse(text, names=["x", "y"]))
    assert numtape.degree_bound(numtape.compile_tape(s, ["x", "y"])) == degree


@settings(derandomize=True, max_examples=120, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(RATIONAL_DSL)
def test_degree_bound_covers_sympy_numerator(text):
    # D bounds the numerator degree of the tape's unreduced fraction, so it
    # is at least the total degree of sympy's reduced numerator
    sympy = pytest.importorskip("sympy")
    try:
        s = ex.simplify(parse(text, names=["x", "y"]))
    except ZeroDivisionError:
        return
    assume(not isinstance(s, ex.Rat))
    X, Y = sympy.symbols("x y")
    num, _ = sympy.fraction(sympy.cancel(sympy.sympify(text.replace("^", "**"))))
    bound = numtape.degree_bound(numtape.compile_tape(s, ["x", "y"]))
    assert bound >= sympy.Poly(num, X, Y).total_degree(), text


@settings(derandomize=True, max_examples=120, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(RATIONAL_DSL, ORACLE_POINT)
def test_bit_bound_covers_exact_value(text, point):
    # at a point, the exact evaluator's bit bound covers the bit lengths of
    # the numerator and denominator of the exact value: under a budget one
    # bit short of them the root reads None, and past every size the value
    try:
        s = ex.simplify(parse(text, names=["x", "y"]))
    except ZeroDivisionError:
        return
    assume(not isinstance(s, ex.Rat))
    tape = numtape.compile_tape(s, ["x", "y"])
    (v,) = numtape.eval_tape_exact(tape, point)
    if v is None:
        return      # a pole
    bits = max(v.numerator.bit_length(), v.denominator.bit_length())
    assert numtape.eval_tape_exact(tape, point, bits - 1) == [None], text
    assert numtape.eval_tape_exact(tape, point, 2 * MAX_CONSTANT_BITS) == [v], text


def test_query_prime_is_prime():
    sympy = pytest.importorskip("sympy")
    for key in range(200):
        n, _ = zt._query_prime(key)
        assert 2 ** 61 <= n < 2 ** 62 and sympy.isprime(n)
    assert len({zt._query_prime(key)[0] for key in range(200)}) == 200
    rng = random.Random(3)
    numbers = list(range(3000)) + [rng.getrandbits(64) for _ in range(2000)]
    # strong pseudoprimes to several of the bases
    numbers += [3215031751, 2152302898747, 3474749660383, 341550071728321,
                3825123056546413051]
    for n in numbers:
        assert zt._is_prime(n) == sympy.isprime(n), n


def _squares_dag(k: int) -> ex.Expr:
    """e_0 = x + 1, e_{j+1} = e_j^2 + e_j: about 2k distinct nodes, and a
    printed text that doubles in length with each step."""
    e = ex.add(ex.var("x"), ex.ONE)
    for _ in range(k):
        e = ex.add(ex.pw(e, 2), e)
    return e


def test_fingerprint_pinned():
    # values computed with the printer that reprinted shared nodes at every
    # use; any change to the printed text or the seed derivation moves them
    # and with them every sample point
    pos = ZeroTestPolicy(constraints=(ex.Constraint("y", ">", 0),))
    cases = [("x^2 + 3*x*y - 1/2", ZeroTestPolicy(), 8321579195803922586),
             ("sin(x)/sqrt(y) - exp(-x)*abs(x - y)", pos, 11795782361207312575),
             ("(x - y)^(-2)*log(y) + cos(x)^3/7", pos, 14624512756561861609)]
    for text, pol, want in cases:
        assert zt._fingerprint(parse(text, names=["x", "y"]), pol) == want, text
    assert zt._fingerprint(_squares_dag(14), ZeroTestPolicy()) == 7523176240437427788
    assert zt._fingerprint(_squares_dag(16), ZeroTestPolicy()) == 16131354673289354566


# the GF(p) stream's keys (zerotest._digest) of the cases of
# test_fingerprint_pinned and of _squares_dag(16), and that node's digest,
# printed by a child process so that the test sets its hash seed
_DIGEST_SCRIPT = """
from homogeo import expr as ex, zerotest as zt
from homogeo.parser import parse
pos = zt.ZeroTestPolicy(constraints=(ex.Constraint("y", ">", 0),))
for text, pol in [("x^2 + 3*x*y - 1/2", zt.DEFAULT_POLICY),
                  ("sin(x)/sqrt(y) - exp(-x)*abs(x - y)", pos),
                  ("(x - y)^(-2)*log(y) + cos(x)^3/7", pos)]:
    print(zt._digest(parse(text, names=["x", "y"]), pol))
e = ex.add(ex.var("x"), ex.ONE)
for _ in range(16):
    e = ex.add(ex.pw(e, 2), e)
print(zt._digest(e, zt.DEFAULT_POLICY), e.digest.hex())
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_digest_pinned_under_every_hash_seed(hash_seed):
    # a node's digest reads only its kind, its exact ints and names, and
    # its children's digests in stored order, none of which depends on
    # Python's string hashing
    proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT],
                          env={**os.environ, "PYTHONHASHSEED": hash_seed},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "14996032350127409221", "13115696536523659961", "11356384208492260396",
        "11524139407917220543", "081bf047107e0e44a8f79c48ecaea8e4"]


def test_digest_commits_to_every_bit_of_a_constant(monkeypatch):
    # shash masks each constant to its low 64 bits, so x - r and
    # x - (r + 2^64) share it; their digests, and so their keys, differ
    x = ex.var("x")
    near, far = ex.sub(x, ex.rat(5)), ex.sub(x, ex.rat(5 + 2 ** 64))
    assert near.shash == far.shash
    assert zt._digest(near, zt.DEFAULT_POLICY) != zt._digest(far, zt.DEFAULT_POLICY)
    assert near.digest != far.digest and len(near.digest) == 16
    # a draw keyed by shash gives x - a, for the a with a = 5 mod 2^64,
    # a = f mod P0 and a = x0 mod p (Chinese remainder theorem), where f is
    # the fixed prime's point, p the prime and x0 the first uniform point
    # of x - 5: its residues at both are 0, a false zero
    p, rng = zt._tape_prime(numtape.compile_tape(near), near.shash)
    x0, (f,) = rng.randrange(p), zt._fixed_point(["x"], near.shash).values()
    m = 2 ** 64 * _MERSENNE_61
    a = 5 + 2 ** 64 * ((f - 5) * pow(2 ** 64, -1, _MERSENNE_61) % _MERSENNE_61)
    a += m * ((x0 - a) * pow(m, -1, p) % p)
    crt = ex.sub(x, ex.rat(a))
    assert crt.shash == near.shash and a.bit_length() > 64
    assert a % _MERSENNE_61 == f and a % p == x0
    with monkeypatch.context() as mp:
        mp.setattr(zt, "_digest", lambda e, policy: e.shash)
        assert zero_report(crt).is_zero
    rep = zero_report(crt)
    assert not rep.is_zero and rep.exact
    assert rep.witness_value == rep.witness["x"] - a


def test_gf_zero_verdict_prints_nothing(monkeypatch):
    # a rational query is keyed by the node's digest and never printed,
    # zero or not: a nonzero verdict's witness stream has the same key, and
    # the witnesses that stream gives are pinned
    zero = parse("(x^2 - y^2)/(x - y) - x - y", names=["x", "y"])
    nonzero = parse("(x + y)^2 - x^2 - y^2", names=["x", "y"])
    pole = parse("1/(x - y) + x - y^2/3", names=["x", "y"])
    printed = []
    real = ex.to_dsl
    monkeypatch.setattr(ex, "to_dsl", lambda e: printed.append(e) or real(e))
    for seed in range(4):
        rep = zero_report(zero, ZeroTestPolicy(seed=seed))
        assert rep.is_zero and rep.exact and rep.samples == 1
    assert printed == []
    rep = zero_report(nonzero)
    assert rep.witness == {"x": 3, "y": Fraction(13, 5)}
    assert rep.witness_value == Fraction(78, 5) and rep.samples == 1
    rep = zero_report(pole, ZeroTestPolicy(seed=3, constraints=(
        ex.Constraint("y", ">", 0),)))
    assert rep.witness == {"x": Fraction(-8, 3), "y": Fraction(12, 5)}
    assert rep.witness_value == Fraction(-27269, 5700) and rep.samples == 1
    assert printed == []


def test_nonzero_rational_verdict_searches_only_when_read(monkeypatch):
    # a nonzero rational verdict prints nothing and evaluates nothing in
    # Fractions until a witness field is read; the witness it then finds
    # depends on the query alone, not on the queries made before it
    queries = [parse(t, names=["x", "y"]) for t in
               ("(x + y)^2 - x^2 - y^2", "1/(x - y) + x - y^2/3", "x*y - 1")]
    printed, exact = [], []
    real_print, real_exact = ex.to_dsl, numtape.eval_tape_exact
    monkeypatch.setattr(ex, "to_dsl", lambda e: printed.append(e) or real_print(e))
    monkeypatch.setattr(numtape, "eval_tape_exact", lambda tape, pt, budget=None:
                        exact.append(pt) or real_exact(tape, pt, budget))
    assert not any(is_zero(q) for q in queries)
    reps = [zero_report(q) for q in queries]
    assert exact == []
    fields = [rep.witness_fields() for rep in reps]
    assert len(exact) >= 3 and all("point" in f for f in fields)
    assert [zero_report(q).witness_fields() for q in reversed(queries)] == fields[::-1]
    assert printed == []
    # replace reads every field, so its verdict searches nothing again
    del exact[:]
    rep = dataclasses.replace(zero_report(queries[0]), note="replaced")
    assert rep.witness_fields() == fields[0] and rep.note == "replaced"
    assert len(exact) == rep.samples


def test_digest_of_a_deep_chain():
    # digests are filled children first from one sorted list of nodes, so a
    # chain 6000 levels deep needs no recursion
    x = ex.var("x")
    heads, levels = x, x
    for _ in range(6000):
        heads = ex.sin_(heads)
    for _ in range(3000):
        levels = ex.add(ex.ONE, ex.mul(x, levels))
    for e in (heads, levels):
        assert zt._digest(e, zt.DEFAULT_POLICY) == zt._digest(e, zt.DEFAULT_POLICY)
        assert len(e.digest) == 16


def test_gf_zero_with_an_unprintable_constant():
    # neither rational stream prints, so a rational query is decided
    # whatever its constants; a nonzero one's witness is a draw whose value
    # prints (here only x = 0 has one), else its note is the certificate
    x = ex.var("x")
    big = ex.rat(10 ** 5000)
    assert ex.unprintable(big.value)
    zero = ex.mul(big, ex.sub(ex.div(ex.sub(ex.pw(x, 2), ex.ONE), ex.sub(x, ex.ONE)),
                              ex.add(x, ex.ONE)))
    assert not isinstance(ex.simplify(zero), ex.Rat)
    rep = zero_report(zero)
    assert rep.is_zero and rep.exact and rep.samples == 1
    nonzero = ex.add(ex.mul(big, x), ex.ONE)
    rep = zero_report(nonzero)
    assert not rep.is_zero and rep.exact
    assert (rep.witness, rep.witness_value, rep.samples) == ({"x": 0}, 1, 7)
    rep = zero_report(nonzero, ZeroTestPolicy(seed=1))
    assert (rep.witness, rep.witness_value, rep.samples) == (None, None, 20)
    assert rep.note.startswith("nonzero residue ")


def test_to_dsl_prints_shared_nodes_once():
    # 12.6 MB of text.  On a 2-core Xeon host, printing each use of a
    # shared node again took about 6 s; printing each node once, 0.1 s
    e = _squares_dag(20)
    t0 = time.perf_counter()
    text = ex.to_dsl(e)
    assert time.perf_counter() - t0 < 1.5
    assert len(text) == 12582905


# -- the printed text kept on the node ------------------------------------------

def _ref_print(e, memo):
    """Reference printer: the one that kept each node's text in a memo for
    one call only.  Returns (text, precedence)."""
    if isinstance(e, ex.Rat):
        if e.value.denominator == 1:
            return str(e.value.numerator), (4 if e.value >= 0 else 1)
        return ex._frac_str(e.value), 2
    if isinstance(e, ex.Var):
        return e.name, 4
    if isinstance(e, ex.Sum):
        parts = []
        if e.const != 0:
            parts.append(ex._frac_str(e.const))
        for t in e.terms:
            n = ex._negated(t)
            if parts and n is not None:
                parts.append("- " + _ref_wrap(n, 2, memo))
            elif parts:
                parts.append("+ " + _ref_wrap(t, 2, memo))
            else:
                parts.append(_ref_wrap(t, 2, memo) if n is None
                             else "-" + _ref_wrap(n, 2, memo))
        return " ".join(parts), 1
    if isinstance(e, ex.Prod):
        num, den = [], []
        for f in e.factors:
            b, q = (f.base, f.exponent) if isinstance(f, ex.Pow) else (f, 1)
            (den if q < 0 else num).append(ex.pw(b, abs(q)))
        c, lead = e.coeff, ""
        if c < 0:
            lead, c = "-", -c
        num_parts = []
        if c.numerator != 1 or not num:
            num_parts.append(str(c.numerator))
        num_parts += [_ref_wrap(f, 3, memo) for f in num]
        text = lead + "*".join(num_parts)
        if c.denominator != 1:
            text += "/" + str(c.denominator)
        for f in den:
            text += "/" + _ref_wrap(f, 4, memo)
        return text, (1 if lead else 2)
    if isinstance(e, ex.Pow):
        if e.exponent == Fraction(1, 2):
            return f"sqrt({_ref_printed(e.base, memo)[0]})", 4
        q = e.exponent
        qtxt = str(q.numerator) if q.denominator == 1 else f"({ex._frac_str(q)})"
        return f"{_ref_wrap(e.base, 4, memo)}^{qtxt}", 3
    return f"{e.name}({_ref_printed(e.arg, memo)[0]})", 4


def _ref_printed(e, memo):
    if id(e) not in memo:
        memo[id(e)] = _ref_print(e, memo)
    return memo[id(e)]


def _ref_wrap(e, min_prec, memo):
    text, prec = _ref_printed(e, memo)
    return f"({text})" if prec < min_prec else text


def ref_to_dsl(e):
    return _ref_print(e, {})[0]


def _children(e):
    if isinstance(e, ex.Sum):
        return list(e.terms)
    if isinstance(e, ex.Prod):
        return list(e.factors)
    if isinstance(e, ex.Pow):
        return [e.base]
    if isinstance(e, ex.Fun):
        return [e.arg]
    return []


_FRESH = itertools.count()


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(RATIONAL_DSL, FUNCTION_DSL))
def test_to_dsl_matches_reference_printer(text):
    try:
        e = parse(text, names=["x", "y"])
    except (ZeroDivisionError, ex.DomainError):
        return      # a literal division by zero, or sign(0)
    # fresh variable names, so that no earlier call has kept any text of
    # these nodes
    k = next(_FRESH)
    names = [f"p{k}", f"q{k}"]
    e = ex.subs(e, {"x": ex.var(names[0]), "y": ex.var(names[1])})
    want = ref_to_dsl(e)
    kids = _children(e)
    if kids:        # a subexpression printed before its parent
        assert ex.to_dsl(kids[0]) == ref_to_dsl(kids[0])
    assert ex.to_dsl(e) == want
    assert ex.to_dsl(e) == want     # and the same parent printed again
    stack, seen, scaled_sum = [e], set(), False
    while stack:    # every subexpression printed after its parent
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            assert ex.to_dsl(x) == ref_to_dsl(x)
            stack += _children(x)
            scaled_sum = scaled_sum or _may_print_scaled_sum(x)
    back = parse(want, names=names)
    if not scaled_sum:
        assert back is e
    assert ex.to_dsl(back) == ref_to_dsl(back)


def _may_print_scaled_sum(x):
    """Whether x is a product that may print as `c*(sum)*...` or
    `-(sum)*...`.  The parser reads that as (c*sum)*..., and the constructors
    distribute c over the sum, so the text parses to an equal expression
    but not to the same node: `-(x + y)/z` parses as `(-x - y)/z`."""
    if not isinstance(x, ex.Prod) or x.coeff == 1:
        return False
    num = [f for f in x.factors if not (isinstance(f, ex.Pow) and f.exponent < 0)]
    return bool(num) and isinstance(num[0], ex.Sum)


def test_root_text_not_kept():
    # the root's text is printed, not kept: it is the largest text, and a
    # zero-test query is rarely printed twice; its subexpressions' are kept
    x = ex.var("keep_x")
    inner = ex.add(x, ex.ONE)
    e = ex.sin_(inner)
    assert ex.to_dsl(e) == "sin(1 + keep_x)"
    assert e.cache is None or ("dsl",) not in e.cache
    assert inner.cache[("dsl",)] == ("1 + keep_x", 1)


# -- simplification and signs --------------------------------------------------

def _ref_syntactic_pos(x):
    """Reference: positivity read off the syntax alone (constants, exp,
    and sums and products of positive terms with a positive constant)."""
    if isinstance(x, ex.Rat):
        return x.value > 0
    if isinstance(x, ex.Fun):
        return x.name == "exp"
    if isinstance(x, ex.Pow):
        return _ref_syntactic_pos(x.base)
    if isinstance(x, ex.Prod):
        return x.coeff > 0 and all(_ref_syntactic_pos(f) for f in x.factors)
    if isinstance(x, ex.Sum):
        return x.const > 0 and all(_ref_syntactic_pos(t) for t in x.terms)
    return False


def _ref_syntactic_nonneg(x):
    """Reference: nonnegativity read off the syntax."""
    if isinstance(x, ex.Rat):
        return x.value >= 0
    if isinstance(x, ex.Fun):
        return x.name in ("exp", "abs")
    if isinstance(x, ex.Pow):
        if _ref_syntactic_pos(x.base):
            return True
        return x.exponent.denominator == 1 and x.exponent.numerator % 2 == 0
    if isinstance(x, ex.Prod):
        return x.coeff >= 0 and all(_ref_syntactic_nonneg(f) for f in x.factors)
    if isinstance(x, ex.Sum):
        return x.const >= 0 and all(_ref_syntactic_nonneg(t) for t in x.terms)
    return False


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(RATIONAL_DSL, FUNCTION_DSL), st.sampled_from(["2", "3", "-2", "1/2"]))
def test_syntactic_sign_matches_reference_walkers(text, power):
    """The sign class under no constraints, which the constructors fold
    on, is never weaker than the sign read off the syntax alone: where the
    reference walkers say positive, the class is "+", and where they say
    nonnegative, it is "+", "0+" or "0"."""
    try:
        e = parse(text, names=["x", "y"])
    except (ZeroDivisionError, ex.DomainError):
        return
    # every subexpression, and its abs, exp and a power of it
    stack, seen = [e], set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        stack += _children(x)
        ys = [x, ex._make_fun("abs", x), ex._make_fun("exp", x)]
        if not x.is_zero_literal():
            ys.append(ex.pw(x, Fraction(power)))
        for y in ys:
            cls = ex._sign_class(y, ())
            if _ref_syntactic_pos(y):
                assert cls == "+", ex.to_dsl(y)
            if _ref_syntactic_nonneg(y):
                assert cls in ("+", "0+", "0"), ex.to_dsl(y)


def test_sign_walk_visits_shared_subexpressions_once():
    """e <- e*(e + 1) holds e twice per level, so depth 24 has 2^24 paths
    from the root: a sign walk that does not keep its results took seconds
    at depth 20.  Fresh variables keep earlier tests' results out."""
    chains = []
    for e in (ex.exp_(ex.var("chain_a")), ex.var("chain_b")):
        for _ in range(24):
            e = ex.mul(e, ex.add(e, 1))
        chains.append(e)
    t0 = time.perf_counter()
    assert ex.abs_(chains[0]) is chains[0]
    assert ex.sign_(chains[0]) is ex.ONE
    assert ex.sign_of(chains[1]) is None
    assert ex.sign_of(chains[1], [ex.Constraint("chain_b", ">", 0)]) == 1
    assert time.perf_counter() - t0 < 1.0


def test_sign_of_weak_factors():
    """Two weakly signed factors make a weakly signed product (a product
    of two "0+" factors once raised KeyError)."""
    x, y = ex.var("x"), ex.var("y")
    assert ex._sign_class(ex.mul(ex.abs_(x), ex.abs_(y)), ()) == "0+"
    assert ex._sign_class(ex.mul(-1, ex.pw(x, 2), ex.pw(y, 2)), ()) == "0-"
    assert ex._sign_class(ex.mul(ex.pw(x, 2), ex.add(1, ex.pw(y, 2))), ()) == "0+"
    assert ex.abs_(ex.mul(ex.pw(x, 2), ex.pw(y, 2))) is ex.mul(ex.pw(x, 2), ex.pw(y, 2))
    assert ex.sign_of(ex.mul(ex.abs_(x), ex.pw(y, 2), ex.var("z"))) is None


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(RATIONAL_DSL, FUNCTION_DSL), st.booleans(),
       st.lists(ORACLE_POINT, min_size=3, max_size=3))
@example("((-1/3) - (x))^(3) + (1) / ((-2) - (y))", True,
         [{"x": Fraction(1), "y": Fraction(1, 2)}])
@example("(x)^(2) * ((1) + (y)^(2))", False, [{"x": Fraction(0), "y": Fraction(1)}])
def test_sign_of_agrees_with_float_values(text, positive, points):
    """Wherever `sign_of` gives 1, -1 or 0 for a subexpression, with or
    without x, y > 0, no finite float value at the points contradicts it."""
    try:
        e = parse(text, names=["x", "y"])
    except (ZeroDivisionError, ex.DomainError):
        return
    cons = ()
    if positive:
        cons = (ex.Constraint("x", ">", 0), ex.Constraint("y", ">", 0))
        points = [{k: abs(v) for k, v in p.items()} for p in points if all(p.values())]
    stack, seen = [e], set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        stack += _children(x)
        s = ex.sign_of(x, cons)
        if s is None:
            continue
        for v in numtape.eval_tape(numtape.compile_tape(x), points):
            if math.isfinite(v):
                assert (v > 0, v < 0) == (s == 1, s == -1), (ex.to_dsl(x), cons, v)


def test_simplify_branch_resolution():
    mu = ex.var("mu")
    cons = (ex.Constraint("mu", ">", 0),)
    assert ex.simplify(ex.abs_(ex.neg(mu)), cons) is mu
    assert ex.simplify(ex.sign_(ex.neg(mu)), cons) is ex.rat(-1)
    r = ex.var("r")
    both = cons + (ex.Constraint("r", ">", 0),)
    assert ex.simplify(ex.sqrt_(ex.mul(r, mu)), both) is \
        ex.mul(ex.sqrt_(r), ex.sqrt_(mu))


@pytest.mark.parametrize("build, text, sympy_text, point", [
    (lambda x: ex.exp_(ex.log_(x)), "x", "exp(log(x))", Fraction(5, 2)),
    (lambda x: ex.log_(ex.exp_(x)), "x", "log(exp(x))", Fraction(-3, 2)),
    (lambda x: ex.cos_(ex.ZERO), "1", "cos(0)", Fraction(-3, 2)),
    (lambda x: ex.diff(ex.sign_(x), "x", (ex.Constraint("x", ">", 0),)), "0",
     "diff(sign(x), x)", Fraction(5, 2)),
    (lambda x: ex.simplify(ex.abs_(x), (ex.Constraint("x", "<", 0),)), "-x",
     "Abs(x)", Fraction(-3, 2)),
    (lambda x: ex.simplify(ex.log_(ex.pw(x, 3)), (ex.Constraint("x", ">", 0),)),
     "3*log(x)", "log(x**3)", Fraction(5, 2)),
], ids=["exp-log", "log-exp", "cos-0", "diff-sign", "simplify-abs", "log-power"])
def test_kernel_rules_fold_to_sympy_values(build, text, sympy_text, point):
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("x", real=True)
    got = build(ex.var("x"))
    assert ex.to_dsl(got) == text
    want = sympy.sympify(sympy_text, locals={"x": X}).subs(
        X, sympy.Rational(point.numerator, point.denominator))
    assert float_value(got, {"x": point}) == pytest.approx(float(want), rel=1e-12)


def test_sign_of_sum_of_squares():
    x = ex.var("x")
    e = ex.add(ex.rat(2), ex.pw(x, 2))
    assert ex.sign_of(e) == 1
    assert ex.sign_of(ex.neg(e)) == -1
    assert ex.sign_of(ex.pw(x, 2)) is None  # only weakly nonnegative


def test_log_expansion_on_positive_factors():
    mu, r = ex.var("mu"), ex.var("r")
    cons = (ex.Constraint("mu", ">", 0), ex.Constraint("r", ">", 0))
    got = ex.simplify(ex.sub(ex.log_(ex.mul(r, mu)),
                             ex.add(ex.log_(r), ex.log_(mu))), cons)
    assert got is ex.ZERO


def test_interning_dedup():
    a = ex.add(ex.var("x"), ex.var("u"))
    b = ex.add(ex.var("u"), ex.var("x"))
    assert a is b


def test_intern_keys_by_value():
    # keys hold numerator and denominator: an int and an equal Fraction,
    # reduced or not, give the same node
    x, y = ex.var("x"), ex.var("y")
    assert ex.rat(2) is ex.rat(Fraction(4, 2))
    assert ex.rat(Fraction(-6, 4)) is ex.rat(Fraction(-3, 2))
    assert ex.mul(2, x) is ex.mul(Fraction(2), x)
    assert ex.pw(x, 2) is ex.pw(x, Fraction(2))
    assert ex.pw(x, Fraction(2, 4)) is ex.sqrt_(x)
    assert ex.add(Fraction(1, 2), x) is ex.add(ex.rat(Fraction(2, 4)), x)
    # a sum and a product of the same number and children stay apart
    s, p = ex.add(3, x, y), ex.mul(3, x, y)
    assert isinstance(s, ex.Sum) and isinstance(p, ex.Prod)
    assert s.const == p.coeff and s.terms == p.factors
    assert s is not p


# -- constant folding in the constructors --------------------------------------

def _subexpressions(e):
    """Every node reachable from e, each once."""
    stack, seen = [e], {}
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen[id(x)] = x
            stack += _children(x)
    return list(seen.values())


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(RATIONAL_DSL, FUNCTION_DSL))
def test_constructor_identities(text):
    """`neg` gives the node `mul` by -1 gives, a zero factor gives ZERO, and
    every rational part is a Fraction equal to the int pair the
    constructors fold, on every subexpression."""
    try:
        e = parse(text, names=["x", "y"])
    except (ZeroDivisionError, ex.DomainError):
        return      # a literal division by zero, or sign(0)
    for x in _subexpressions(e):
        minus = ex.neg(x)
        assert minus is ex.mul(ex.rat(-1), x)
        assert ex.neg(minus) is x
        assert ex.sub(x, x) is ex.ZERO
        assert ex.mul(ex.ZERO, x) is ex.ZERO and ex.mul(x, ex.ZERO) is ex.ZERO
        assert ex.add(x, ex.ZERO) is x
    for x in _subexpressions(e) + _subexpressions(ex.neg(e)):
        part = {ex.Rat: "value", ex.Sum: "const", ex.Prod: "coeff"}.get(type(x))
        if part is not None:
            q = getattr(x, part)
            assert type(q) is Fraction and (q.numerator, q.denominator) == (x.n, x.d)


def test_neg_never_calls_mul(monkeypatch):
    x, y = ex.var("neg_x"), ex.var("neg_y")
    cases = [ex.rat(Fraction(-3, 7)), x, ex.mul(Fraction(2, 3), x, y),
             ex.add(1, x, ex.mul(Fraction(-1, 2), y)), ex.sin_(x), ex.sqrt_(y)]
    want = [ex.mul(ex.rat(-1), c) for c in cases]

    def refuse(*args):
        raise AssertionError("neg entered the collector")

    monkeypatch.setattr(ex, "mul", refuse)
    monkeypatch.setattr(ex, "_collect", refuse)
    assert all(ex.neg(c) is w for c, w in zip(cases, want))
    assert [type(c) for c in cases] == [ex.Rat, ex.Var, ex.Prod, ex.Sum, ex.Fun, ex.Pow]


def test_neg_of_a_sum_is_kept_both_ways(monkeypatch):
    x, y = ex.var("negsum_x"), ex.var("negsum_y")
    s = ex.add(Fraction(2, 3), x, ex.mul(Fraction(-1, 2), y), ex.mul(3, x, y), ex.sin_(y),
               ex.neg(ex.cos_(x)))
    scaled = []
    scale_sum = ex._scale_sum

    def count(*args):
        scaled.append(args)
        return scale_sum(*args)

    monkeypatch.setattr(ex, "_scale_sum", count)
    minus = ex.neg(s)
    assert ex.neg(minus) is s and ex.neg(s) is minus
    assert s.negation is minus and minus.negation is s
    assert len(scaled) == 1     # the sum is scaled once, on the first neg
    # the constant and every term's coefficient negated
    assert type(minus) is ex.Sum and (minus.n, minus.d) == (-s.n, s.d)

    def split(t):   # a term's core -> its coefficient pair
        return (t.factors, (t.n, t.d)) if isinstance(t, ex.Prod) else ((t,), (1, 1))

    terms = dict(map(split, s.terms))
    assert len(terms) == 5 and -1 in [n for n, _ in terms.values()]
    assert dict(map(split, minus.terms)) == {fs: (-n, d) for fs, (n, d) in terms.items()}


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(RATIONAL_DSL, FUNCTION_DSL))
def test_sum_and_product_fields_follow_their_children(text):
    """The shash, free names and rational flag `_combine` gives a Sum or
    Prod in one pass are those of their definitions."""
    try:
        e = parse(text, names=["x", "y"])
    except (ZeroDivisionError, ex.DomainError):
        return      # a literal division by zero, or sign(0)
    for x in _subexpressions(e) + _subexpressions(ex.neg(e)):
        if isinstance(x, (ex.Sum, ex.Prod)):
            tag, kids = (3, x.terms) if isinstance(x, ex.Sum) else (4, x.factors)
            assert x.shash == ex._fnv((tag, x.n, x.d, *(k.shash for k in kids)))
            assert x.free == frozenset().union(*(k.free for k in kids))
            assert x.rational == all(k.rational for k in kids)


# zeros, small and 30-digit integers, and fractions with 30-digit parts
_CONSTANT = st.one_of(
    st.just(0), st.integers(-12, 12), st.integers(-10 ** 30, 10 ** 30),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 10, 7 ** 20])))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(_CONSTANT, st.booleans()), max_size=8))
def test_constant_folding_matches_fraction_reference(items):
    """`mul` and `add` of constants, given as numbers or as Rat nodes, are
    the interned constant of the Fraction product and sum."""
    values = [Fraction(v) for v, _ in items]
    args = [ex.rat(v) if as_node else v for v, as_node in items]
    product, total = math.prod(values, start=Fraction(1)), sum(values, Fraction(0))
    assert ex.mul(*args) is ex.rat(product)
    assert ex.add(*args) is ex.rat(total)
    assert ex.neg(ex.add(*args)) is ex.rat(-total)
    assert ex.rat(product).value == product and ex.rat(total).value == total


def test_constant_powers_refused_past_the_bit_budget():
    x = ex.var("x")
    bits = ex.MAX_CONSTANT_BITS
    for base, q in ((2, bits + 1), (Fraction(1, 2), -(bits + 1)), (10 ** 400, 10 ** 4),
                    (2 ** 300, Fraction(bits // 100 + 1, 3))):
        with pytest.raises(ex.ConstantTooLargeError):
            ex.pw(ex.rat(base), q)
    with pytest.raises(ex.ConstantTooLargeError):
        ex.pw(ex.mul(2, x), bits + 1)
    # at the budget the power is computed
    assert ex.pw(ex.rat(2), bits) is ex.rat(2 ** bits)
    assert ex.pw(ex.rat(2 ** 300), Fraction(bits // 100, 3)) is ex.rat(2 ** (bits // 100 * 100))
    assert ex.pw(ex.mul(3, x), 2) is ex.mul(9, ex.pw(x, 2))


# -- results cached on the interned node ---------------------------------------

def _count_constructors(monkeypatch):
    """Record each call of ex.add / ex.mul, by name, in the returned list."""
    calls = []

    def counting(name, real):
        def wrapper(*xs):
            calls.append(name)
            return real(*xs)
        return wrapper

    for name in ("add", "mul"):
        monkeypatch.setattr(ex, name, counting(name, getattr(ex, name)))
    return calls


def _shared_dag(a: ex.Expr, b: ex.Expr, k: int) -> ex.Expr:
    """Nested sums and quotients over the leaves a, b; leaves over fresh
    variables keep every node new, so no earlier test has simplified or
    differentiated any of them."""
    e = ex.add(a, ex.mul(ex.rat(2), b))
    for j in range(k):
        e = ex.add(ex.mul(e, ex.pw(ex.add(e, ex.rat(j + 1)), -1)),
                   ex.pw(e, 2), ex.mul(b, e))
    return e


def test_walkers_leave_no_cyclic_garbage():
    # the walkers, the parser and a determinant's minor table each call
    # helpers of their own; with the cyclic GC off, a fresh call leaves
    # nothing for it to collect
    from homogeo import symmat
    e = parse("abs(x)*sin(x*y) + x^3/(1 + y^2) + 7/13", names=["x", "y"])
    m = symmat.mat([[ex.var("x"), e, 1], [2, ex.var("y"), e], [e, 3, ex.var("x")]])
    pos = (ex.Constraint("x", ">", 0),)
    calls = [lambda: ex.diff(e, "x", pos), lambda: ex.subs(e, {"y": ex.add(ex.var("x"), 1)}),
             lambda: ex.simplify(e, pos), lambda: symmat.det(m), lambda: symmat.inverse(m),
             lambda: parse("sin(x)*(x+2)^2/(1+y)", names=["x", "y"]),
             lambda: ex.to_dsl(ex.diff(e, "y")), lambda: ex.sign_of(ex.add(e, ex.ONE), pos)]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_simplify_and_diff_cached_across_calls(monkeypatch):
    e = _shared_dag(ex.var("cache_a"), ex.var("cache_b"), 6)
    # the same DAG over abs leaves, which the constraints resolve
    fa, fb = ex.var("cache_fa"), ex.var("cache_fb")
    pos = (ex.Constraint(fa.name, ">", 0), ex.Constraint(fb.name, ">", 0))
    f = _shared_dag(ex.abs_(fa), ex.abs_(fb), 6)
    want = _shared_dag(fa, fb, 6)
    calls = _count_constructors(monkeypatch)
    # a rational node is canonical as built: simplify returns it, builds
    # nothing and keeps nothing on any node
    assert ex.simplify(e) is e and ex.simplify(e, pos) is e
    assert calls == []
    assert not [key for x in ex._reachable(e) for key in x.cache or () if key[0] == "simplify"]
    s1 = ex.simplify(f, pos)
    assert s1 is want
    assert "add" in calls and "mul" in calls    # the first calls walk and rebuild
    calls.clear()
    d1 = ex.diff(e, "cache_a")
    assert calls
    calls.clear()
    assert ex.simplify(f, pos) is s1
    assert ex.diff(e, "cache_a") is d1
    assert calls == []  # the second calls are lookups on the root node
    # a cached subtree is not walked again under a new parent: only the
    # chain rule's product at the new root is built
    ex.simplify(ex.sin_(f), pos)
    ex.diff(ex.sin_(e), "cache_a")
    assert calls == ["mul"]


# -- a rational node is its own rebuild -----------------------------------------

def _canonical_faults(x: ex.Expr) -> list:
    """The faults of the rational Sum, Prod or Pow node x against the
    invariants that make it its own rebuild through the constructors, which
    `simplify` relies on when it returns a rational node unchanged: sum
    terms are distinct cores and product bases distinct, each sorted by
    shash; no integer power of a constant, product or power; no product of
    a lone sum.  [] when x keeps them all."""
    faults = [] if ex._rebuild(x, lambda c: c) is x else ["not its own rebuild"]
    if isinstance(x, ex.Pow):
        if isinstance(x.base, (ex.Rat, ex.Prod, ex.Pow)):
            faults.append("integer power of a constant, product or power")
        return faults
    if isinstance(x, ex.Sum):
        kids = x.terms
        keys = [t.factors if isinstance(t, ex.Prod) else (t,) for t in kids]
    else:
        kids = x.factors
        keys = [f.base if isinstance(f, ex.Pow) else f for f in kids]
        if len(kids) == 1 and isinstance(kids[0], ex.Sum):
            faults.append("product of a lone sum")
    if len(set(keys)) < len(keys):
        faults.append("repeated core or base")
    if [k.shash for k in kids] != sorted(k.shash for k in kids):
        faults.append("not sorted by shash")
    return faults


def _rational_compounds(nodes) -> list:
    return [x for x in nodes if x.rational and isinstance(x, (ex.Sum, ex.Prod, ex.Pow))]


def test_interned_rational_nodes_are_their_own_rebuild(tmp_path, capsys):
    # every rational node the program has built so far, among them those of
    # two bundled suite passes and one curvature triple
    from homogeo import cli
    scenarios = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scenarios")
    for seed in ("0", "7"):
        assert cli.main(["suite", scenarios, "--json", "--seed", seed]) == 0
    p = ["1/10 - 1/5*x + 1/10*y", "1/5 + 1/10*x - 1/10*y", "-1/5 + 1/10*y", "1/10*x"]
    g = [[f"{int(i == j)} + ({p[i]})*({p[j]}) + ({p[i + 2]})*({p[j + 2]})"
          for j in range(2)] for i in range(2)]
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({
        "name": "triple", "kind": "riemannian",
        "base": {"coords": ["x", "y"], "constraints": []},
        "objects": {"g": g, "eta": {"x": "1/5 - 1/10*x", "y": "1/10*x + 1/5*y"}}}))
    assert cli.main(["run", str(path), "--json"]) == 0
    capsys.readouterr()
    nodes = _rational_compounds(list(ex._INTERN.values()))
    assert len(nodes) > 1500
    assert [(type(x).__name__, x.serial, f) for x in nodes if (f := _canonical_faults(x))] == []


_SIMPLIFY_CONSTRAINTS = [(), (ex.Constraint("x", ">", 0),), (ex.Constraint("y", "<", 0),),
                         (ex.Constraint("x", "!=", 1),)]


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(RATIONAL_DSL, st.integers(0, 2 ** 32))
def test_reachable_rational_nodes_are_their_own_rebuild(text, seed):
    try:
        e = parse(text, names=["x", "y"])
    except ZeroDivisionError:
        e = ex.ONE
    mixed = rand_expr(random.Random(seed), ("x", "y"))
    for root in (e, mixed):
        for x in _rational_compounds(ex._reachable(root)):
            assert _canonical_faults(x) == [], text
        if root.rational:
            for cons in _SIMPLIFY_CONSTRAINTS:
                assert ex.simplify(root, cons) is root, text


def _nest(step, x: ex.Expr, depth: int) -> ex.Expr:
    for _ in range(depth):
        x = step(x)
    return x


def _ladder(v: ex.Expr) -> ex.Expr:
    """sin(1 + v*sin(1 + v*...)), 6000 sines deep over v."""
    return _nest(lambda c: ex.sin_(ex.add(ex.ONE, ex.mul(v, c))), v, 6000)


def _deep_diff():
    e = _ladder(ex.var("deep_d"))
    assert ex.diff(e, "deep_d") is ex.mul(ex.cos_(e.arg), ex.diff(e.arg, "deep_d"))


def _deep_subs():
    assert ex.subs(_ladder(ex.var("deep_s")), {"deep_s": ex.var("deep_t")}) \
        is _ladder(ex.var("deep_t"))


def _deep_simplify():
    x = ex.var("deep_a")
    pos = (ex.Constraint(x.name, ">", 0),)
    assert ex.simplify(_ladder(ex.abs_(x)), pos) is _ladder(x)


def _deep_sines() -> ex.Expr:
    # to_dsl keeps the text of each node below the root, so a chain costs
    # memory quadratic in its depth; the two printing cases share this one
    return _nest(ex.sin_, ex.var("deep_p"), 6000)


def _deep_to_dsl():
    assert ex.to_dsl(_deep_sines()) == "sin(" * 6000 + "deep_p" + ")" * 6000


def _deep_sign_of():
    x = ex.var("deep_g")
    e = _nest(ex.sign_, x, 6000)
    assert ex.sign_of(e, (ex.Constraint(x.name, ">", 0),)) == 1
    assert ex.sign_of(e, (ex.Constraint(x.name, "<", 0),)) == -1
    assert ex.sign_of(e) is None


def _deep_float_query():
    # a float query prints itself for its seed fingerprint
    rep = zero_report(_deep_sines())
    assert not rep.is_zero and not rep.exact


def _deep_log():
    # (2*(2*(...x)^(1/3))^(1/3))^(1/3), 3000 cube roots: simplify leaves a
    # chain of 3000 cube roots of x for the log to expand
    x = ex.var("deep_l")
    a = _nest(lambda c: ex.pw(ex.mul(2, c), Fraction(1, 3)), x, 3000)
    q = Fraction(1, 3 ** 3000)
    assert ex.simplify(ex.log_(a), (ex.Constraint(x.name, ">", 0),)) is ex.add(
        ex.mul(ex.rat(q), ex.log_(x)), ex.mul(ex.rat((1 - q) / 2), ex.log_(ex.rat(2))))


def _deep_rational_query():
    # simplify returns a rational query as it is, and the zero test's
    # digest, tape and GF(p) points decide it without printing it; under a
    # function head only the head is walked
    x = ex.var("x")
    c = _nest(lambda c: ex.add(ex.ONE, ex.mul(x, c)), ex.ONE, 6000)
    square = ex.add(ex.pw(x, 2), ex.mul(2, x), ex.ONE)
    r = ex.sub(ex.mul(c, ex.pw(ex.add(x, ex.ONE), 2)), ex.mul(c, square))
    assert r is not ex.ZERO
    rep = zero_report(r)
    assert rep.is_zero and rep.exact and rep.samples == 1
    assert zt.all_zero([("r", r), ("-r", ex.neg(r))]) == (True, None)
    assert ex.simplify(ex.sin_(c)) is ex.sin_(c)


@pytest.mark.parametrize("case", [
    _deep_diff, _deep_subs, _deep_simplify, _deep_to_dsl, _deep_sign_of,
    _deep_float_query, _deep_log, _deep_rational_query,
], ids=["diff", "subs", "simplify", "to_dsl", "sign_of", "zero_report-float",
        "simplify-log", "zero_report-rational"])
def test_walkers_have_no_depth_limit(case):
    # every walker visits its nodes in serial order, children first, with
    # no recursion: each case is far deeper than the default recursion
    # limit allows a recursive walker
    assert sys.getrecursionlimit() <= 1000
    case()


def test_simplify_folds_positive_powers_it_distributes_over():
    # under y > 0, (y^(4/3))^(1/3) is y^(4/9), alone or as a factor of a
    # positive product that a fractional power is distributed over
    x, y = ex.var("fold_x"), ex.var("fold_y")
    pos = (ex.Constraint(x.name, ">", 0), ex.Constraint(y.name, ">", 0))
    third, y43 = Fraction(1, 3), ex.pw(y, Fraction(4, 3))
    assert ex.simplify(ex.pw(y43, third), pos) is ex.pw(y, Fraction(4, 9))
    assert ex.simplify(ex.pw(ex.mul(x, y43), third), pos) is ex.mul(
        ex.pw(x, third), ex.pw(y, Fraction(4, 9)))
    # each of 3000 levels of (a*y)^(1/3) folds its power of y into one
    # factor; left unfolded, every level added a factor and the walk was
    # quadratic (27 s)
    a = _nest(lambda c: ex.pw(ex.mul(c, y), third), x, 3000)
    q = Fraction(1, 3 ** 3000)
    start = time.perf_counter()
    got = ex.simplify(ex.log_(a), pos)
    assert time.perf_counter() - start < 5
    assert got is ex.add(ex.mul(ex.rat(q), ex.log_(x)), ex.mul(ex.rat((1 - q) / 2), ex.log_(y)))


def test_cache_key_holds_constraints():
    for first_constrained in (True, False):
        x = ex.var(f"cache_k{first_constrained}")
        pos = (ex.Constraint(x.name, ">", 0),)
        calls = [(pos, x), ((), ex.abs_(x))]
        if not first_constrained:
            calls.reverse()
        for cons, want in calls:
            assert ex.simplify(ex.abs_(x), cons) is want
        assert ex.diff(ex.abs_(x), x.name, pos) is ex.ONE
        with pytest.raises(ex.DomainError):
            ex.diff(ex.abs_(x), x.name)


def test_cache_key_holds_variable():
    x, y = ex.var("cache_vx"), ex.var("cache_vy")
    e = ex.mul(x, ex.pw(y, 2))
    assert ex.diff(e, "cache_vx") is ex.pw(y, 2)
    assert ex.diff(e, "cache_vy") is ex.mul(ex.rat(2), x, y)
    assert ex.diff(e, "cache_vx") is ex.pw(y, 2)


def test_cache_keys_of_simplify_and_diff_apart():
    # variables named like a key tag: a diff result must never be returned
    # for simplify, or the other way round
    for tag in ("simplify", "diff"):
        v = ex.var(tag)
        e = ex.add(ex.pw(v, 3), ex.abs_(v))
        pos = (ex.Constraint(tag, ">", 0),)
        assert ex.diff(e, tag, pos) is ex.add(ex.mul(ex.rat(3), ex.pw(v, 2)), ex.ONE)
        assert ex.simplify(e, pos) is ex.add(ex.pw(v, 3), v)
        assert ex.simplify(e) is e
        with pytest.raises(ex.DomainError):
            ex.diff(e, tag)


def test_cache_keys_of_simplify_diff_and_text_apart():
    # a variable named like the text key's tag; each of the three results
    # keeps its own entry on the node, whichever call comes first
    for text_first in (True, False):
        v = ex.var("dsl")
        c = ex.rat(5 if text_first else 7)
        s = ex.add(ex.pw(v, 3), ex.abs_(v), c)
        parent = ex.cos_(s)
        pos = (ex.Constraint("dsl", ">", 0),)
        if text_first:
            ex.to_dsl(parent)
        simplified = ex.simplify(s, pos)
        derivative = ex.diff(s, "dsl", pos)
        assert simplified is ex.add(ex.pw(v, 3), v, c)
        assert derivative is ex.add(ex.mul(ex.rat(3), ex.pw(v, 2)), ex.ONE)
        assert ex.to_dsl(parent) == f"cos({ref_to_dsl(s)})"
        assert s.cache[("dsl",)] == (ref_to_dsl(s), 1)
        assert s.cache[("simplify", pos)] is simplified
        assert s.cache[("diff", "dsl", pos)] is derivative
        assert ex.simplify(s, pos) is simplified
        assert ex.diff(s, "dsl", pos) is derivative
        assert ex.to_dsl(s) == ref_to_dsl(s)


def test_domain_error_not_cached():
    x, y = ex.var("x"), ex.var("y")
    bad = ex.add(ex.abs_(x), ex.mul(x, y))
    for _ in range(2):
        with pytest.raises(ex.DomainError):
            ex.diff(bad, "x")
    assert ex.diff(ex.mul(x, y), "x") is y
    assert ex.diff(bad, "x", (ex.Constraint("x", "<", 0),)) is ex.add(y, ex.rat(-1))


# -- differential oracle: sympy ---------------------------------------------------

@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(RATIONAL_TERMS, st.lists(ORACLE_POINT, min_size=3, max_size=3))
def test_diff_and_simplify_match_sympy(text, points):
    """`diff` and `simplify`-then-`eval_exact` agree with sympy, which
    parses the same DSL text on its own, at exact rational points."""
    sympy = pytest.importorskip("sympy")
    try:
        e = parse(text, names=["x", "y"])
    except ZeroDivisionError:
        return      # a literal division by zero
    sym = sympy.sympify(text.replace("^", "**"))
    X, Y = sympy.symbols("x y")
    pairs = [(ex.simplify(e), sym), (ex.diff(e, "x"), sympy.diff(sym, X)),
             (ex.diff(e, "y"), sympy.diff(sym, Y))]
    for point in points:
        at = {X: sympy.Rational(point["x"].numerator, point["x"].denominator),
              Y: sympy.Rational(point["y"].numerator, point["y"].denominator)}
        for ours, theirs in pairs:
            want = theirs.subs(at)
            if not want.is_Rational:
                continue    # a pole of sympy's form
            try:
                got = ex.eval_exact(ours, point)
            except ZeroDivisionError:
                continue    # a pole of ours that sympy cancelled
            assert got == Fraction(int(want.p), int(want.q)), (text, point)


def _sympy_float_off_cuts(sympy, sym, at):
    """sympy's float value of `sym` at the point `at`, or None where the
    point is near a branch cut or a discontinuity: an argument of log or of
    a fractional power that is not positive and clear of 0, an argument of
    abs or sign or a base of a negative power within 1e-6 of 0, or a value
    that is not a finite real."""
    for node in sympy.preorder_traversal(sym):
        if isinstance(node, sympy.log):
            arg, positive = node.args[0], True
        elif isinstance(node, (sympy.Abs, sympy.sign)):
            arg, positive = node.args[0], False
        elif node.is_Pow and not (node.exp.is_Integer and node.exp > 0):
            arg, positive = node.base, not node.exp.is_Integer
        else:
            continue
        v = arg.subs(at).evalf(30)
        if not v.is_real or abs(v) < 1e-6 or (positive and v < 0):
            return None
    value = sym.subs(at).evalf(30)
    if not (value.is_real and value.is_finite):
        return None
    return float(value)


def _sympy_point(sympy, point):
    return {sympy.Symbol(k): sympy.Rational(v.numerator, v.denominator)
            for k, v in point.items()}


def _compare_floats(sympy, ours, sym, points, text):
    checked = 0
    for point in points:
        want = _sympy_float_off_cuts(sympy, sym, _sympy_point(sympy, point))
        got = float_value(ours, point)
        if want is None or not math.isfinite(got):
            continue    # near a cut, at a pole, or past the float range
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9), (text, point)
        checked += 1
    return checked


@settings(derandomize=True, max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(FUNCTION_DSL, st.lists(ORACLE_POINT, min_size=3, max_size=3))
@example("sign((-1/3) * (x)) - abs((-2) * (y)) + sin((-1/2) * (x)) * cos((-3) * (y))"
         " + exp(-x) * log((x)^(2) + (7/5)) - (y)^(-3/2)",
         [{"x": Fraction(1, 3), "y": Fraction(5, 4)},
          {"x": Fraction(-2, 3), "y": Fraction(1, 2)}])
def test_function_heads_match_sympy(text, points):
    """Every head (exp/log/abs/sign/sin/cos, sqrt and fractional powers),
    as built by the constructors, agrees in floats with sympy parsing the
    same text on its own, at points away from branch cuts."""
    sympy = pytest.importorskip("sympy")
    try:
        e = parse(text, names=["x", "y"])
    except (ZeroDivisionError, ex.DomainError):
        return      # a literal division by zero, or sign(0)
    _compare_floats(sympy, e, sympy.sympify(text.replace("^", "**")), points, text)


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(FUNCTION_DSL, FUNCTION_DSL, RATIONAL_TERMS,
       st.lists(ORACLE_POINT, min_size=3, max_size=3))
def test_subs_matches_sympy(text, x_text, y_text, points):
    """`subs` replaces x and y at once, as sympy's simultaneous subs does,
    including substitutes that contain x and y themselves."""
    sympy = pytest.importorskip("sympy")
    try:
        e = parse(text, names=["x", "y"])
        mapping = {"x": parse(x_text, names=["x", "y"]),
                   "y": parse(y_text, names=["x", "y"])}
        ours = ex.subs(e, mapping)
    except (ZeroDivisionError, ex.DomainError):
        return      # the substitution folded to a division by zero or sign(0)
    sym = sympy.sympify(text.replace("^", "**")).subs(
        {sympy.Symbol(k): sympy.sympify(t.replace("^", "**"))
         for k, t in (("x", x_text), ("y", y_text))}, simultaneous=True)
    _compare_floats(sympy, ours, sym, points, (text, x_text, y_text))


def test_sympy_oracles_check_points():
    # the skips of the two oracles above leave most points checked
    sympy = pytest.importorskip("sympy")
    pts = [{"x": Fraction(1, 3), "y": Fraction(5, 4)},
           {"x": Fraction(-2, 3), "y": Fraction(1, 2)}]
    text = "log(x^2 + y) - sign(x)*abs(y - 2) + sin(x)*cos(y)^2 + exp(-x)*sqrt(y)"
    e = parse(text, names=["x", "y"])
    sym = sympy.sympify(text.replace("^", "**"))
    assert _compare_floats(sympy, e, sym, pts, text) == 2
    assert _compare_floats(sympy, e, sym, [{"x": Fraction(0), "y": Fraction(1)}], text) == 0
