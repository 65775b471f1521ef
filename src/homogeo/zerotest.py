"""Probabilistic zero testing: simplify, then sample.

Every identity check in the package reduces to this test.  The verdict
policy is: a literal 0 after simplification is zero.  An expression that
is rational in all variables is decided over GF(p) at uniform points and
never evaluated in floats; everything else is evaluated at `sample_count`
random rational points of the constrained domain and compared against
`tolerance` in floating point.  Each per-query RNG is derived from the
seed and a key of the simplified expression plus the constraints, so
verdicts and witnesses are stable across runs and independent of
evaluation order.  The GF(p) stream is keyed by the expression's Merkle
digest (`_digest`), which commits to every bit of it and never prints;
the stream of rational and float points by its printed DSL text
(`_fingerprint`), so a float query, or a rational one with a nonzero
residue, raises ConstantTooLargeError there if the printer refuses a
constant (expr.unprintable).  A literal nonzero constant is its own
witness, at the empty point, when it prints; else its note shows it.

`sample_values` reads validity conditions at sample points (a definite
metric, a nowhere-zero theta, the point a frame transition is read at)
from the same point stream and by the same rule: rational expressions
exactly, others in floats.

`all_zero` is the one sweep for a family of residuals: it tests
(key, expression) pairs in order and stops at the first nonzero one.  It
keeps, for the length of the call, each simplified residual it decided
zero over GF(p) and its negation, and makes no query for a later residual
that simplifies to one of them: the curvature sweep's (b, a) components
are the negations of its (a, b) components.  Literal and float zeros are
never kept, and a sweep that has kept none simplifies nothing ahead of its
queries.  Until its first GF(p) zero it reads its iterable one pair at a
time and never past a failure, so a generator builds no residual after
one.  Then it builds the rest of the pairs and decides their rational
residuals that are not constants, nor repeats or negations of one kept,
at one shared point sequence: one tape with a root per residual, keyed by
the _digest of the roots in order, under the rules below applied to the
whole tape (k from the largest root degree bound, p redrawn while it
divides any constant's denominator, a point skipped when it is a pole
anywhere on the tape).  It then walks the pairs in order as before: a
residual with zero residues at every shared point is zero with no query,
and every other one goes to zero_report, so a failing residual gets the
report it gets alone.  If the shared point raises ConfigError, each
residual is queried alone, so the one that raises alone raises.  An
ArithmeticError or ValueError raised while building a pair is raised once
the pairs built before it are decided, if none failed.

Float queries: points are drawn from that RNG in order and evaluated in
floating point (numtape.eval_tape) one at a time.  A point whose value is
not finite (nan where a `math` call raises: a pole, a domain error, an
overflow) is skipped, until `sample_count` values are found within
MAX_SAMPLES = 201 draws; else ConfigError names the cause: a constant
outside the float range, or an expression that may be singular on the
whole domain.  The witness is the first point of largest |value|.

Rational queries (Schwartz-Zippel identity testing): an RNG seeded from
the digest key draws primes uniformly from [2^61, 2^62), and p is the
first that divides no constant's denominator.  That RNG goes on to draw
points uniform in GF(p)^n one at a time (numtape.eval_tape_mod), skipping
poles mod p, until one has a nonzero residue or k have zero residues; k
is the fewest with (D/p)^k <= 2^-40 for the numerator-degree bound
D = numtape.degree_bound(tape): one point while D <= 2^21, two up to about
2^41, and ConfigError when D > p/2, or when k + _MAX_REDRAWS draws leave
fewer than k defined residues (the expression may be singular on the
whole domain).  The domain constraints do not restrict these points: a
rational function that vanishes on an open set vanishes identically.

* zero residues at all k points are the zero verdict, with `samples` = k,
  and the only way a rational query is zero;
* a nonzero residue is the nonzero verdict.  Only then is the query
  printed and the rational points drawn, to look for a witness: the first
  of `sample_count` draws whose value is defined, nonzero and printable,
  evaluated in Fraction arithmetic (numtape.eval_tape_exact) so that
  witness_value is exact, and `samples` is the number of draws made.  A draw whose bit-length bound
  (numtape.degree_bound at the point) exceeds expr.MAX_CONSTANT_BITS is
  not evaluated.  When no draw qualifies, witness is None, `samples` is
  `sample_count`, and the note is the certificate: p and the residue.

A zero verdict is wrong with probability at most (D/p)^k <= 2^-40
(Schwartz, JACM 27(4), 1980; Zippel, EUROSAM 1979), on top of the chance
that p divides every coefficient of the numerator N: at most log2|N|/61
primes in [2^61, 2^62) divide a nonzero coefficient, out of about 5.3e16.
A residual decided at a sweep's shared point has the same bound: a
nonzero one vanishes at a uniform point with probability at most D/p
whatever else is evaluated there, so a sweep of m residuals errs with
probability at most m * 2^-40, as when each is decided alone.
A skipped pole point leaves each point uniform on the points that are not
poles mod p, which divides the per-point bound D/p by 1 - q for the share
q of pole points (q <= E/p when E bounds the degree of the product of the
numerators of the negative-power bases).  A nonzero verdict has no added
error.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional, Tuple

import random

from . import expr as ex
from . import numtape

__all__ = ["ZeroTestPolicy", "ZeroVerdict", "ConfigError", "is_zero",
           "zero_report", "all_zero", "sample_values", "DEFAULT_POLICY",
           "MAX_SAMPLES"]

_MAX_REDRAWS = 200
_SEED_SCALE = 0x9E3779B97F4A7C15   # the seed's term in every per-query key
MAX_SAMPLES = _MAX_REDRAWS + 1   # draws per query: no larger sample_count is met


class ConfigError(ValueError):
    """Unsatisfiable domain constraints or other bad configuration."""


@dataclass(frozen=True)
class ZeroTestPolicy:
    sample_count: int = 20
    tolerance: float = 1e-9
    seed: int = 0
    constraints: Tuple[ex.Constraint, ...] = ()

    def __post_init__(self):
        if not 1 <= self.sample_count <= MAX_SAMPLES:
            raise ConfigError(f"sample_count must be from 1 to {MAX_SAMPLES}")
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be positive")

    def with_constraints(self, extra: Iterable[ex.Constraint]) -> "ZeroTestPolicy":
        merged = self.constraints + tuple(c for c in extra if c not in self.constraints)
        return replace(self, constraints=merged)


DEFAULT_POLICY = ZeroTestPolicy()


@dataclass(frozen=True)
class ZeroVerdict:
    is_zero: bool
    exact: bool                      # verdict used exact rational arithmetic
    witness: Optional[dict] = None   # var -> Fraction, present when nonzero
    witness_value: Optional[object] = None
    samples: int = 0
    note: str = ""

    def witness_fields(self, fmt=lambda value: value) -> dict:
        """What shows a nonzero verdict: {"point", "value"} for a witness,
        the value passed through `fmt`, or {"note"} for a certificate that
        has no rational witness."""
        if self.witness is None:
            return {"note": self.note}
        return {"point": self.witness, "value": fmt(self.witness_value)}


def _fingerprint(e: ex.Expr, policy: ZeroTestPolicy) -> int:
    blob = ex.to_dsl(e) + "|" + ";".join(repr(c) for c in policy.constraints)
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@functools.lru_cache(maxsize=1 << 10)
def _field(v) -> bytes:
    """An int as signed big-endian bytes, or a name as UTF-8, after their
    count: one field of a node's digest."""
    b = v.encode("utf-8") if type(v) is str else v.to_bytes(
        v.bit_length() // 8 + 1, "big", signed=True)
    return len(b).to_bytes(8, "big") + b


_DIGEST = operator.attrgetter("digest")


def _digest(e, policy: ZeroTestPolicy) -> int:
    """The GF(p) stream's key of an expression, or of a tuple of roots in
    order: sha256 of their Merkle digests, concatenated, and the printed
    constraints, so one root's key is its expression's.  A node's digest is
    the 16-byte blake2b of its kind, its exact n and d (a constant, a sum's
    constant, a product's coefficient, a power's exponent) or its name,
    each a _field, and its children's digests in stored order.  Each node
    gets one once, children first (expr._reachable), and keeps it."""
    roots = (e,) if isinstance(e, ex.Expr) else e
    pending = [r for r in roots if r.digest is None]
    if pending:
        Sum, Prod, Pow, Fun = ex.Sum, ex.Prod, ex.Pow, ex.Fun
        for x in ex._reachable(pending, _DIGEST):
            cls = type(x)
            if cls is Prod:
                parts = [b"P", _field(x.n), _field(x.d), *map(_DIGEST, x.factors)]
            elif cls is Sum:
                parts = [b"S", _field(x.n), _field(x.d), *map(_DIGEST, x.terms)]
            elif cls is Pow:
                q = x.exponent
                parts = [b"W", _field(q.numerator), _field(q.denominator), x.base.digest]
            elif cls is Fun:
                parts = [b"F", _field(x.name), x.arg.digest]
            elif cls is ex.Var:
                parts = [b"V", _field(x.name)]
            else:
                parts = [b"R", _field(x.n), _field(x.d)]
            x.digest = hashlib.blake2b(b"".join(parts), digest_size=16).digest()
    blob = b"".join(map(_DIGEST, roots)) + \
        ";".join(repr(c) for c in policy.constraints).encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def _bounds(constraints, names):
    lo, hi, excl = {}, {}, {}
    for c in constraints:
        if c.name not in names:
            continue
        if c.op == ">":
            lo[c.name] = max(lo.get(c.name, c.bound), c.bound)
        elif c.op == "<":
            hi[c.name] = min(hi.get(c.name, c.bound), c.bound)
        else:
            excl.setdefault(c.name, set()).add(c.bound)
    for n in names:
        if n in lo and n in hi and lo[n] >= hi[n]:
            raise ConfigError(f"constraints on {n} are unsatisfiable")
    return lo, hi, excl


def _draw(rng: random.Random, lo, hi, excl, name) -> Fraction:
    for _ in range(_MAX_REDRAWS):
        d = rng.randint(2, 13)
        if name in lo and name in hi:
            x = lo[name] + (hi[name] - lo[name]) * Fraction(rng.randint(1, d - 1), d)
        elif name in lo:
            x = lo[name] + Fraction(rng.randint(1, 3 * d), d)
        elif name in hi:
            x = hi[name] - Fraction(rng.randint(1, 3 * d), d)
        else:
            x = Fraction(rng.randint(-3 * d, 3 * d), d)
        if x in excl.get(name, ()):
            continue
        return x
    raise ConfigError(f"could not sample a value for {name}")


def _points(names, constraints, seed: int):
    """The endless stream of rational points of `names`, each drawn in
    order under `constraints` from Random(seed).  The bounds are read now,
    so unsatisfiable constraints raise ConfigError before any draw."""
    rng = random.Random(seed)
    lo, hi, excl = _bounds(constraints, set(names))
    return iter(lambda: {n: _draw(rng, lo, hi, excl, n) for n in names}, None)


def _exact_at(tape: numtape.Tape, pt) -> Optional[Fraction]:
    """A rational tape's exact value at a rational point, or None at a pole
    or where its bit-length bound (numtape.degree_bound at the point)
    exceeds expr.MAX_CONSTANT_BITS."""
    if numtape.degree_bound(tape, pt) > ex.MAX_CONSTANT_BITS:
        return None
    try:
        return numtape.eval_tape_exact(tape, pt)
    except ZeroDivisionError:
        return None


def _float_at(tape: numtape.Tape, pt, tolerance: float) -> Optional[float]:
    v = numtape.eval_tape(tape, [pt])[0]
    return None if not math.isfinite(v) else 0.0 if abs(v) <= tolerance else v


def sample_values(exprs, names, policy: ZeroTestPolicy, salt: int, count=None):
    """Yield (point, values) at `count` points (policy.sample_count when
    None) of _points(names, policy.constraints, policy.seed ^ salt), one at
    a time.  values[i] is exprs[i] there: exact (a Fraction, or None at a
    pole or beyond the bit budget) when it is rational, else a float, 0.0
    when |v| <= policy.tolerance and None when not finite."""
    points = _points(names, policy.constraints, policy.seed ^ salt)
    tapes = [(e.rational, numtape.compile_tape(e, names)) for e in exprs]
    for pt in itertools.islice(points, policy.sample_count if count is None else count):
        yield pt, [_exact_at(tape, pt) if rational
                   else _float_at(tape, pt, policy.tolerance)
                   for rational, tape in tapes]


# Miller-Rabin bases that decide primality for every n < 2^64 (Sinclair)
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                 61, 67, 71, 73, 79, 83, 89, 97)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)


def _is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2^64."""
    if n < 2 or n % 2 == 0:
        return n == 2
    if n in _SMALL_PRIMES:
        return True
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(rng: random.Random) -> int:
    """The next prime the RNG draws uniformly from [2^61, 2^62)."""
    while True:
        n = rng.getrandbits(61) | (1 << 61) | 1
        if _is_prime(n):
            return n


def _query_prime(key: int) -> Tuple[int, random.Random]:
    """The first prime drawn by an RNG of its own, seeded from the query
    key, so the point stream is left untouched; and that RNG, which goes on
    to draw any further prime and the uniform points of GF(p)^n."""
    rng = random.Random(f"prime:{key}")
    return _next_prime(rng), rng


def _tape_prime(tape: numtape.Tape, key: int) -> Tuple[int, random.Random]:
    """The query's prime and its RNG: the first prime that RNG draws that
    divides no denominator of the tape's constants."""
    p, rng = _query_prime(key)
    while any(c.denominator % p == 0 for c in tape.exact):
        p = _next_prime(rng)
    return p, rng


def _uniform_residue(e, tape: numtape.Tape, policy: ZeroTestPolicy):
    """The one GF(p) decision, of a rational expression or of a tuple of
    them, the roots of `tape`: p and its RNG from the key _digest(e) (see
    _tape_prime), then uniform points of GF(p)^n drawn one at a time from
    that RNG, with a point that is a pole mod p anywhere on the tape
    skipped, until k points are defined or every root has a nonzero
    residue.  Returns each root's first nonzero residue, else 0; p; and k,
    set by the largest root degree bound (the module docstring gives k and
    the ConfigErrors)."""
    _bounds(policy.constraints, tape.varnames)     # ConfigError before any draw
    p, rng = _tape_prime(tape, _digest(e, policy) ^ policy.seed * _SEED_SCALE)
    d = numtape.degree_bound(tape)
    k = next((k for k in range(1, 41) if d ** k << 40 <= p ** k), None)
    if k is None:
        raise ConfigError(f"numerator degree bound {d} is too large for a "
                          "zero test over GF(p)")
    first = [0] * len(tape.roots)
    defined = 0
    for _ in range(k + _MAX_REDRAWS):
        residues = numtape.eval_tape_mod(
            tape, [{n: rng.randrange(p) for n in tape.varnames}], p)
        if residues[0] is None:
            continue
        first = [f or r for f, r in zip(first, residues)]
        defined += 1
        if defined == k or all(first):
            return first, p, k
    raise ConfigError("could not find enough valid sample points "
                      "(expression may be singular on the whole domain)")


def zero_report(e: ex.Expr, policy: ZeroTestPolicy = DEFAULT_POLICY) -> ZeroVerdict:
    e = ex.simplify(e, policy.constraints)
    if isinstance(e, ex.Rat):
        if e.value == 0:
            return ZeroVerdict(True, True, note="literal zero")
        if ex.unprintable(e.value):
            return ZeroVerdict(False, True, note="literal nonzero constant")
        return ZeroVerdict(False, True, witness={}, witness_value=e.value,
                           note="literal nonzero constant")

    names = sorted(e.free)
    tape = numtape.compile_tape(e, names)
    if e.rational:
        # uniform points of GF(p)^n decide the query; the rational points
        # only look for a witness of a nonzero residue
        (residue,), p, count = _uniform_residue(e, tape, policy)
        if residue == 0:
            return ZeroVerdict(True, True, samples=count)
    points = _points(names, policy.constraints,
                     _fingerprint(e, policy) ^ policy.seed * _SEED_SCALE)
    if e.rational:
        for draws, pt in enumerate(itertools.islice(points, policy.sample_count), 1):
            val = _exact_at(tape, pt)
            # not None (a pole, over budget), not 0, and printable
            if val and not ex.unprintable(val):
                return ZeroVerdict(False, True, witness=pt, witness_value=val,
                                   samples=draws)
        return ZeroVerdict(False, True, samples=policy.sample_count,
                           note=f"nonzero residue {residue} mod p = {p} at a "
                                "uniform point; no rational sample is a witness")

    values = ((pt, _float_at(tape, pt, policy.tolerance))
              for pt in itertools.islice(points, MAX_SAMPLES))
    found = list(itertools.islice(((pt, v) for pt, v in values if v is not None),
                                  policy.sample_count))
    if len(found) < policy.sample_count:
        cause = ("a constant is outside the float range"
                 if not all(map(math.isfinite, tape.consts))
                 else "expression may be singular on the whole domain")
        raise ConfigError(f"could not find enough valid sample points ({cause})")
    witness, value = max(found, key=lambda f: abs(f[1]))
    if value:                   # |value| > tolerance; _float_at zeroes the rest
        return ZeroVerdict(False, False, witness=witness, witness_value=value,
                           samples=len(found))
    return ZeroVerdict(True, False, samples=len(found))


def is_zero(e: ex.Expr, policy: ZeroTestPolicy = DEFAULT_POLICY) -> bool:
    return zero_report(e, policy).is_zero


def all_zero(pairs: Iterable[Tuple[object, ex.Expr]],
             policy: ZeroTestPolicy = DEFAULT_POLICY):
    """Zero-test each (key, expression) pair in order and stop at the first
    nonzero one: (True, None), or (False, (key, report)) for that pair.
    A residual that simplifies to one this sweep decided zero over GF(p),
    or to its negation, is not tested again: r = 0 iff -r = 0, so that test
    decides it with the same error bound.  Until the first GF(p) zero,
    `pairs` is read one pair at a time and never past a failure; then the
    rest is built and decided at a shared point (_shared_zeros), by the
    rules of the module docstring."""
    pairs, decided = iter(pairs), set()
    for key, e in pairs:
        bad = _sweep_step(key, e, decided, (), policy)
        if bad:
            return False, bad
        if decided:     # the first GF(p) zero
            break
    else:
        return True, None
    rest, held = [], None
    try:
        for pair in pairs:
            rest.append(pair)
    except (ArithmeticError, ValueError) as err:
        held = err
    zeros = _shared_zeros([e for _, e in rest], decided, policy)
    for key, e in rest:
        bad = _sweep_step(key, e, decided, zeros, policy)
        if bad:
            return False, bad
    if held is not None:
        raise held
    return True, None


def _sweep_step(key, e, decided: set, zeros, policy: ZeroTestPolicy):
    """One pair of all_zero: None when e is zero, else (key, report).  A
    residual decided zero over GF(p), by zero_report or as one of `zeros`,
    is kept in `decided` with its negation."""
    if decided and ex.simplify(e, policy.constraints) in decided:
        return None
    if e not in zeros:
        rep = zero_report(e, policy)
        if not rep.is_zero:
            return key, rep
        if not (rep.exact and rep.samples):     # a literal or float zero
            return None
    s = ex.simplify(e, policy.constraints)   # e if rational, else cached by zero_report
    decided.update((s, ex.neg(s)))
    return None


def _shared_zeros(exprs, kept: set, policy: ZeroTestPolicy) -> set:
    """The residuals among `exprs` that have zero residues at one GF(p)
    point sequence shared by all of them: the rational ones that are not
    constants and not in `kept` nor a repeat or negation of one before
    them, the roots of one tape, keyed by _digest of the roots in order.
    Empty when there are none or when that raises ConfigError, so that
    each residual's own query raises it, as alone."""
    kept, roots = set(kept), []
    for e in exprs:
        if e.rational and type(e) is not ex.Rat and e not in kept:
            roots.append(e)
            kept.update((e, ex.neg(e)))
    if not roots:
        return set()
    roots = tuple(roots)
    try:
        residues, _, _ = _uniform_residue(roots, numtape.compile_tape(roots), policy)
    except ConfigError:
        return set()
    return {e for e, r in zip(roots, residues) if r == 0}
