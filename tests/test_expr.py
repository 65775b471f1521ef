import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from homogeo import expr as ex
from homogeo import numtape
from homogeo import zerotest as zt
from homogeo.chart import Chart
from homogeo.parser import (MAX_CONSTANT_BITS, MAX_DEPTH, MAX_EXPONENT, ParseError,
                            UnknownIdentifierError, parse)
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
    # within the budget
    assert parse("(2^10000)^104", names=[]) is ex.rat(2 ** 1040000)


def test_rational_roots_exact_at_any_size():
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


def test_unsatisfiable_constraints():
    pol = ZeroTestPolicy(constraints=(ex.Constraint("x", ">", 1),
                                      ex.Constraint("x", "<", 0)))
    with pytest.raises(ConfigError):
        zero_report(ex.var("x"), pol)


def test_policy_validation():
    with pytest.raises(ConfigError):
        ZeroTestPolicy(sample_count=0)
    with pytest.raises(ConfigError):
        ZeroTestPolicy(tolerance=0.0)


def test_exact_path_is_exact():
    # 1e-30 is way below tolerance but the rational path must flag it
    e = ex.rat(Fraction(1, 10 ** 30))
    assert not is_zero(e)
    x = ex.var("x")
    tiny = ex.mul(ex.rat(Fraction(1, 10 ** 30)), x)
    assert not is_zero(tiny)


def _reference_report(e, policy):
    """The zero test drawing and evaluating one point at a time, exactly
    evaluating a point again in the confirmation pass, all in Fraction
    arithmetic: the loop that zero_report's batched sampling and modular
    confirmation must reproduce.  Returns the verdict fields and the number
    of draws."""
    e = ex.simplify(e, policy.constraints)
    names = sorted(e.free)
    rng = random.Random(zt._fingerprint(e, policy) ^ (policy.seed * 0x9E3779B97F4A7C15))
    lo, hi, excl = zt._bounds(policy.constraints, set(names))
    tape = numtape.compile_tape(e, names)
    points, floats, draws = [], [], 0
    while len(points) < policy.sample_count:
        if draws > zt._MAX_REDRAWS:
            raise ConfigError("could not find enough valid sample points")
        draws += 1
        p = {n: zt._draw(rng, lo, hi, excl, n) for n in names}
        vals = np.array([[float(p[n])] for n in names], dtype=np.float64)
        v = float(numtape.eval_tape(tape, vals.reshape(len(names), 1))[0])
        if math.isfinite(v):
            points.append(p)
            floats.append(v)
    n = len(points)
    if e.rational:
        def exact(p):
            try:
                return ex.eval_exact(e, p)
            except ZeroDivisionError:
                return None
        for i in sorted(range(n), key=lambda i: -abs(floats[i])):
            val = exact(points[i])
            if val is None:
                continue
            if val != 0:
                return (False, True, points[i], val, n), draws
            if abs(floats[i]) <= zt._PREFILTER:
                break
        for p in points:
            val = exact(p)
            if val is not None and val != 0:
                return (False, True, p, val, n), draws
        return (True, True, None, None, n), draws
    worst = max(range(n), key=lambda i: abs(floats[i]))
    if abs(floats[worst]) > policy.tolerance:
        return (False, False, points[worst], floats[worst], n), draws
    return (True, False, None, None, n), draws


def test_batched_sampling_matches_one_point_at_a_time():
    # log(x - 5/2) is finite on about 1 draw in 9, so the 201-draw limit
    # ends some of its queries and not others
    exprs = ["1/x", "sqrt(x)", "log(x)", "1/(x - y) + x",
             "(x^2 - y^2)/(x - y) - x - y", "abs(x)/x - sign(x)", "log(x - 5/2)"]
    redraws = limits = 0
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
            rep = zero_report(e, pol)
            assert (rep.is_zero, rep.exact, rep.witness, rep.witness_value,
                    rep.samples) == want, (text, seed)
            redraws += draws - rep.samples
    assert redraws > 100 and 0 < limits < 6   # redraws and the limit both occur


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


def test_exact_confirmation_once_per_point(monkeypatch):
    calls = []
    real = numtape.eval_tape_exact

    def counting(tape, point):
        calls.append(point)
        return real(tape, point)

    monkeypatch.setattr(numtape, "eval_tape_exact", counting)
    x, y = ex.var("x"), ex.var("y")
    square = ex.pw(ex.add(x, y), 2)
    # residues mod the query's prime decide a zero verdict without poles
    rep = zero_report(ex.sub(square, ex.add(ex.pw(x, 2), ex.mul(ex.rat(2), x, y),
                                            ex.pw(y, 2))))
    assert rep.is_zero and rep.exact and rep.samples == 20
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
    rep = zero_report(e, pol)
    assert (rep.is_zero, rep.exact, rep.witness, rep.witness_value,
            rep.samples) == want, text


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
    # with the query's prime dividing a constant's denominator no residue
    # exists; the points are decided in Fraction arithmetic instead
    p = _BIG_PRIMES[0]
    monkeypatch.setattr(zt, "_query_prime", lambda key: p)
    x = ex.var("x")
    rep = zero_report(ex.add(ex.pw(x, 2), ex.rat(Fraction(1, p))))
    assert not rep.is_zero and rep.exact
    assert rep.witness_value == rep.witness["x"] ** 2 + Fraction(1, p)
    e = ex.sub(ex.pw(ex.add(x, ex.rat(Fraction(1, p))), 2),
               ex.add(ex.pw(x, 2), ex.mul(ex.rat(Fraction(2, p)), x),
                      ex.rat(Fraction(1, p * p))))
    assert not isinstance(ex.simplify(e), ex.Rat)
    assert zero_report(e).is_zero


def test_query_prime_is_prime():
    sympy = pytest.importorskip("sympy")
    for key in range(200):
        n = zt._query_prime(key)
        assert 2 ** 61 <= n < 2 ** 62 and sympy.isprime(n)
    assert len({zt._query_prime(key) for key in range(200)}) == 200
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

def test_simplify_branch_resolution():
    mu = ex.var("mu")
    cons = (ex.Constraint("mu", ">", 0),)
    assert ex.simplify(ex.abs_(ex.neg(mu)), cons) is mu
    assert ex.simplify(ex.sign_(ex.neg(mu)), cons) is ex.rat(-1)
    r = ex.var("r")
    both = cons + (ex.Constraint("r", ">", 0),)
    assert ex.simplify(ex.sqrt_(ex.mul(r, mu)), both) is \
        ex.mul(ex.sqrt_(r), ex.sqrt_(mu))


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


def _shared_dag(a: str, b: str, k: int) -> ex.Expr:
    """Nested sums and quotients over fresh variables a, b, so that no
    earlier test has simplified or differentiated any of its nodes."""
    e = ex.add(ex.var(a), ex.mul(ex.rat(2), ex.var(b)))
    for j in range(k):
        e = ex.add(ex.mul(e, ex.pw(ex.add(e, ex.rat(j + 1)), -1)),
                   ex.pw(e, 2), ex.mul(ex.var(b), e))
    return e


def test_simplify_and_diff_cached_across_calls(monkeypatch):
    e = _shared_dag("cache_a", "cache_b", 6)
    calls = _count_constructors(monkeypatch)
    s1 = ex.simplify(e)
    d1 = ex.diff(e, "cache_a")
    assert calls        # the first calls walk and rebuild
    calls.clear()
    assert ex.simplify(e) is s1
    assert ex.diff(e, "cache_a") is d1
    assert calls == []  # the second calls are lookups on the root node
    # a cached subtree is not walked again under a new parent: only the
    # chain rule's product at the new root is built
    ex.simplify(ex.sin_(e))
    ex.diff(ex.sin_(e), "cache_a")
    assert calls == ["mul"]


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
