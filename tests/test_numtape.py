import math
import random
from fractions import Fraction

import pytest

from homogeo import expr as ex
from homogeo import numtape

from conftest import rand_expr, rand_point


def _valid_points(e, rng, count=8):
    pts = []
    while len(pts) < count:
        p = rand_point(rng, sorted(e.free) or ("x",))
        try:
            v = ex.eval_float(e, {k: float(x) for k, x in p.items()})
        except (ValueError, OverflowError, ZeroDivisionError):
            continue
        if math.isfinite(v):
            pts.append((p, v))
    return pts


def test_tape_matches_tree_walk():
    rng = random.Random(21)
    for _ in range(30):
        e = rand_expr(rng, ("x", "y"), depth=5)
        pts = _valid_points(e, rng)
        vals = numtape.eval_points(e, [p for p, _ in pts])
        for got, (_, want) in zip(vals, pts):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


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
        got = float(numtape.eval_points(e, [p])[0])
        assert got == pytest.approx(want, rel=1e-12)


def test_shared_subexpressions_evaluate_once():
    x = ex.var("x")
    shared = ex.add(x, ex.ONE)
    e = ex.mul(shared, shared, ex.add(shared, x))
    tape = numtape.compile_tape(e)
    # the tape is a DAG flattening: far fewer nodes than a tree expansion
    assert len(tape) <= 9


def test_signs_and_abs_ops():
    x = ex.var("x")
    e = ex.mul(ex.sign_(x), ex.abs_(x))
    vals = numtape.eval_points(e, [{"x": Fraction(-5, 2)}, {"x": Fraction(3)}])
    assert vals[0] == pytest.approx(-2.5)
    assert vals[1] == pytest.approx(3.0)


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
