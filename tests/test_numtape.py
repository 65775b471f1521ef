import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from homogeo import expr as ex
from homogeo import numtape
from homogeo.parser import parse

from conftest import ORACLE_POINT, RATIONAL_DSL, rand_expr, rand_point


def _sympy_value(sympy, text, point):
    """sympy's value of the DSL text at an exact rational point: sympy parses
    the printed text on its own and shares no code with the tape."""
    sym = sympy.sympify(text.replace("^", "**"))
    return sym.subs({sympy.Symbol(k): sympy.Rational(v.numerator, v.denominator)
                     for k, v in point.items()})


def _assert_serial_tape(tape):
    """Every operand index is below its code's position (children first),
    and each distinct constant has one slot and at most one OP_CONST code."""
    loaded = []
    for pos, (op, a, b) in enumerate(tape.code):
        if op == numtape.OP_CONST:
            loaded.append(a)
        elif op in (numtape.OP_ADD, numtape.OP_MUL):
            assert a < pos and b < pos
        elif op != numtape.OP_VAR:
            assert a < pos
    assert len(set(tape.exact)) == len(tape.exact)
    assert len(set(loaded)) == len(loaded)


def test_tape_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(21)
    checked = 0
    for _ in range(30):
        e = rand_expr(rng, ("x", "y"), depth=5)
        text = ex.to_dsl(e)
        points = [rand_point(rng, ("x", "y")) for _ in range(8)]
        vals = numtape.eval_tape(numtape.compile_tape(e), points)
        for got, p in zip(vals, points):
            want = _sympy_value(sympy, text, p).evalf(30)
            if not (math.isfinite(got) and want.is_real and want.is_finite):
                continue    # a pole, or outside the domain
            assert got == pytest.approx(float(want), rel=1e-9, abs=1e-9), (text, p)
            checked += 1
    assert checked > 200
    # every op, with integer and fractional exponents, at points where
    # every value is finite
    ops = set()
    for text in ("x + y", "x*y", "x^3", "x^(-2)", "y^(1/3)", "y^(-5/2)",
                 "exp(x)", "log(y)", "abs(x)", "sign(x)", "sign(-x)", "sin(x)",
                 "cos(x)", "sign(x)*abs(y)^(3/2) - exp(sin(x))*log(y + 1)"):
        e = parse(text, names=["x", "y"])
        tape = numtape.compile_tape(e, ["x", "y"])
        ops.update(op for op, _, _ in tape.code)
        points = [{"x": Fraction(n, 7), "y": Fraction(d, 3)}
                  for n in (-9, -2, 5, 13) for d in (1, 4, 11)]
        for got, p in zip(numtape.eval_tape(tape, points), points):
            want = float(_sympy_value(sympy, text, p).evalf(30))
            assert type(got) is float and math.isfinite(got), (text, p)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (text, p)
    assert ops == set(range(11))


@settings(derandomize=True, max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(RATIONAL_DSL, st.lists(ORACLE_POINT, min_size=3, max_size=3))
@example("(x - y)^(3) - (x)^(-2)", [{"x": Fraction(-2, 3), "y": Fraction(1, 2)}])
def test_exact_evaluation_matches_sympy_and_residues(text, points):
    """eval_tape_exact equals sympy's exact value, and reduces to the
    residue eval_tape_mod returns, over a small and a large prime; the
    tape is in serial order with pooled constants.  A pole reads None
    there and in expr.eval_exact raises ZeroDivisionError."""
    sympy = pytest.importorskip("sympy")
    try:
        e = parse(text, names=["x", "y"])
    except ZeroDivisionError:
        return      # a literal division by zero
    tape = numtape.compile_tape(e, ["x", "y"])
    _assert_serial_tape(tape)
    for point in points:
        (got,) = numtape.eval_tape_exact(tape, point)  # None: a pole of ours,
        if got is None:                                # which sympy may have cancelled
            with pytest.raises(ZeroDivisionError):
                ex.eval_exact(e, point)
        want = _sympy_value(sympy, text, point)
        if got is not None and want.is_Rational:
            assert type(got) is Fraction
            assert got == Fraction(int(want.p), int(want.q)), (text, point)
        for p in (101, 2 ** 61 - 1):
            r = numtape.eval_tape_mod(tape, [point], p)[0]
            if got is None:
                assert r is None
            elif r is not None:
                assert got.denominator % p != 0
                assert r == got.numerator * pow(got.denominator, -1, p) % p


def test_exact_evaluation_poles_and_non_rational_tapes():
    x, y = ex.var("x"), ex.var("y")
    tape = numtape.compile_tape(ex.add(ex.pw(ex.sub(x, y), -1), ex.ONE))
    assert numtape.eval_tape_exact(tape, {"x": 3, "y": Fraction(1, 2)}) == [Fraction(7, 5)]
    half = {"x": Fraction(1, 2), "y": Fraction(1, 2)}
    assert numtape.eval_tape_exact(tape, half) == [None]
    with pytest.raises(ZeroDivisionError):
        ex.eval_exact(ex.add(ex.pw(ex.sub(x, y), -1), ex.ONE), half)
    for e in (ex.sin_(x), ex.sqrt_(ex.add(ex.mul(x, x), ex.ONE))):
        with pytest.raises(ex.DomainError):
            numtape.eval_tape_exact(numtape.compile_tape(e), {"x": Fraction(1, 2)})
        with pytest.raises(ex.DomainError):
            ex.eval_exact(e, {"x": Fraction(1, 2)})
    # a constant beyond the float range is exact on the tape and infinite
    # in its float column
    big = ex.sub(ex.mul(ex.rat(-10 ** 400), x), ex.rat(Fraction(1, 10 ** 400)))
    assert ex.eval_exact(big, {"x": 3}) == -3 * 10 ** 400 - Fraction(1, 10 ** 400)
    assert numtape.eval_tape(numtape.compile_tape(big), [{"x": 3}])[0] == -math.inf


@pytest.mark.parametrize("text, bad, good", [
    ("x^(-2)", 0, 3),               # a pole: math.pow(0.0, -2.0)
    ("exp(-x^(-2))", 0, 3),         # the pole under exp, which maps -inf to 0
    ("log(x)", 0, 3),
    ("log(x)", -1, 3),
    ("x^(1/3)", -8, 8),             # a negative base to a fractional power
    ("cos(x)*log(x) + 1", -1, 3),   # a domain error inside a sum
    ("sin(10^400*x)", 1, None),     # sin(inf); no point is finite
    ("exp(x)", 1000, 3),            # overflow
    ("x^400", 10, 3),               # math.pow overflow
    ("(x + 1)^(5/2)", 10 ** 200, 3),
], ids=["pole", "pole-under-exp", "log-zero", "log-negative", "negative-base",
        "log-in-sum", "sin-inf", "exp-overflow", "pow-overflow", "pow-overflow-fractional"])
def test_raising_math_call_makes_the_point_non_finite(text, bad, good):
    """The float rule: + and * follow IEEE-754, and a math call that raises
    (a pole, a domain error or an overflow) makes the whole point
    non-finite, so the zero test redraws it; another point of the same call
    keeps its value."""
    sympy = pytest.importorskip("sympy")
    e = parse(text, names=["x"])
    points = [{"x": Fraction(v)} for v in (bad, good) if v is not None]
    vals = numtape.eval_tape(numtape.compile_tape(e), points)
    assert not math.isfinite(vals[0]), text
    if good is not None:
        want = float(_sympy_value(sympy, text, points[1]).evalf(30))
        assert vals[1] == pytest.approx(want, rel=1e-12), text


def test_tape_matches_exact_on_rational():
    rng = random.Random(22)
    x, y = ex.var("x"), ex.var("y")
    e = ex.add(ex.mul(x, x, y), ex.pw(ex.add(y, ex.rat(2)), -1),
               ex.rat(Fraction(3, 7)))
    for _ in range(10):
        p = rand_point(rng, ("x", "y"))
        if p["y"] == -2:
            continue
        want = float(ex.eval_exact(e, p))
        got = float(numtape.eval_tape(numtape.compile_tape(e), [p])[0])
        assert got == pytest.approx(want, rel=1e-12)


def test_shared_subexpressions_evaluate_once():
    x, y = ex.var("x"), ex.var("y")
    shared = ex.add(x, ex.ONE)
    e = ex.mul(shared, shared, ex.add(shared, x))
    tape = numtape.compile_tape(e)
    # the tape is a DAG flattening: far fewer nodes than a tree expansion
    assert len(tape) <= 9
    s = ex.add(x, y)
    tape = numtape.compile_tape(ex.add(ex.sin_(s), ex.cos_(s)), ["x", "y"])
    # x, y, x + y, sin, cos and their sum
    assert len(tape) == 6
    vx, vy = tape.code.index((numtape.OP_VAR, 0, -1)), tape.code.index((numtape.OP_VAR, 1, -1))
    assert tape.code.count((numtape.OP_ADD, vx, vy)) == 1
    # 2 as a constant, a coefficient and an exponent is one slot and one code
    e = ex.add(ex.mul(ex.rat(2), x), ex.pw(y, 2), ex.sin_(ex.rat(2)))
    tape = numtape.compile_tape(e, ["x", "y"])
    assert tape.exact == (2,)
    assert [op for op, _, _ in tape.code].count(numtape.OP_CONST) == 1


def test_signs_and_abs_ops():
    x = ex.var("x")
    e = ex.mul(ex.sign_(x), ex.abs_(x))
    vals = numtape.eval_tape(numtape.compile_tape(e), [{"x": Fraction(-5, 2)}, {"x": Fraction(3)}])
    assert vals[0] == pytest.approx(-2.5)
    assert vals[1] == pytest.approx(3.0)
    # inf - inf is nan under IEEE-754, and sign keeps it nan rather than 0,
    # so the point stays non-finite
    e = parse("sign(10^400*x - 10^400*x^2)", names=["x"])
    assert math.isnan(numtape.eval_tape(numtape.compile_tape(e), [{"x": 1}])[0])


def _rand_rational(rng: random.Random, names, depth=4) -> ex.Expr:
    """Random rational expression with negative powers and non-integer
    constants."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return ex.var(rng.choice(names))
        return ex.rat(Fraction(rng.randint(-12, 12), rng.randint(1, 12)))
    a = _rand_rational(rng, names, depth - 1)
    op = rng.choice(["add", "mul", "pow"])
    if op == "add":
        return ex.add(a, _rand_rational(rng, names, depth - 1))
    if op == "mul":
        return ex.mul(a, _rand_rational(rng, names, depth - 1))
    return ex.pw(a, rng.choice([-2, -1, 2, 3]))


def test_modular_evaluation_is_exact_value_mod_p():
    # small primes make every fallback frequent: denominators of constants
    # and coordinates divisible by p, and negative powers of bases = 0 mod p
    rng = random.Random(24)
    residues = fallbacks = poles = 0
    for p in (5, 7, 11, 13, 101):
        for _ in range(40):
            e = _rand_rational(rng, ["x", "y"])
            if not e.free:
                continue
            tape = numtape.compile_tape(e, ["x", "y"])
            points = [{n: Fraction(rng.randint(-6, 6), rng.randint(1, 13))
                       for n in ("x", "y")} for _ in range(8)]
            for pt, r in zip(points, numtape.eval_tape_mod(tape, points, p)):
                try:
                    val = ex.eval_exact(e, pt)
                except ZeroDivisionError:
                    poles += 1
                    assert r is None
                    continue
                if r is None:
                    fallbacks += 1
                else:
                    residues += 1
                    assert val.denominator % p != 0
                    assert r == val.numerator * pow(val.denominator, -1, p) % p
    assert residues > 500 and fallbacks > 100 and poles > 10


def test_modular_evaluation_rejects_non_rational_tapes():
    x = ex.var("x")
    for e in (ex.sin_(x), ex.sqrt_(ex.add(ex.mul(x, x), ex.ONE))):
        with pytest.raises(ex.DomainError):
            numtape.eval_tape_mod(numtape.compile_tape(e), [{"x": Fraction(1, 2)}], 101)


def _fold(x: ex.Expr, point) -> float:
    """Float value of x by a tree walk: a sum or product folds its terms or
    factors left to right, then its constant, as the tape does."""
    if isinstance(x, ex.Rat):
        return float(x.value)
    if isinstance(x, ex.Var):
        return float(point[x.name])
    if isinstance(x, ex.Sum):
        v = _fold(x.terms[0], point)
        for t in x.terms[1:]:
            v = v + _fold(t, point)
        return v + float(x.const) if x.const else v
    if isinstance(x, ex.Prod):
        v = _fold(x.factors[0], point)
        for f in x.factors[1:]:
            v = v * _fold(f, point)
        return v * float(x.coeff) if x.coeff != 1 else v
    if isinstance(x, ex.Pow):
        return math.pow(_fold(x.base, point), float(x.exponent))
    funs = {"exp": math.exp, "log": math.log, "abs": abs, "sign": numtape._sign,
            "sin": math.sin, "cos": math.cos}
    return funs[x.name](_fold(x.arg, point))


def test_tape_is_serial_and_folds_as_the_tree():
    """Over random expressions: the tape is in serial order with pooled
    constants, and its float value is bit-identical to a tree walk that
    keeps each chain's operand order."""
    rng = random.Random(25)
    x, y = ex.var("x"), ex.var("y")
    # long chains, whose float value depends on the operand order
    chains = [ex.add(*[ex.mul(ex.rat(Fraction(1, k + 2)), ex.pw(x, k), ex.pw(y, 12 - k))
                       for k in range(12)], ex.rat(Fraction(1, 3))),
              ex.mul(*[ex.add(x, ex.rat(Fraction(k, 7))) for k in range(1, 12)], ex.rat(3))]
    for e in chains + [rand_expr(rng, ("x", "y"), depth=6) for _ in range(60)]:
        tape = numtape.compile_tape(e, ["x", "y"])
        _assert_serial_tape(tape)
        for p in [rand_point(rng, ("x", "y")) for _ in range(4)]:
            try:
                want = _fold(e, p)
            except (ValueError, OverflowError):
                want = math.nan
            got = numtape.eval_tape(tape, [p])[0]
            assert got == want or (math.isnan(got) and math.isnan(want)), ex.to_dsl(e)


def test_deep_nesting_compiles_without_recursion():
    e = ex.var("x")
    want = 0.5
    for _ in range(5000):
        e = ex.sin_(e)
        want = math.sin(want)
    tape = numtape.compile_tape(e)
    assert len(tape) == 5001
    assert numtape.eval_tape(tape, [{"x": Fraction(1, 2)}]) == [want]
