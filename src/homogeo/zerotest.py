"""Probabilistic zero testing: simplify, then sample.

Every identity check in the package reduces to this test.  The verdict
policy is: a literal 0 after simplification is zero.  An expression that
is rational in all variables is decided over GF(p) at uniform points;
everything else is evaluated at `sample_count` random rational points of
the constrained domain and compared against `tolerance` in floating
point.  The per-query RNG is derived from (seed, expression fingerprint),
so verdicts and witnesses are stable across runs and independent of
evaluation order.  The fingerprint is the printed DSL text of the
simplified expression plus the constraints.

`all_zero` is the one sweep for a family of residuals: it tests
(key, expression) pairs in order and stops at the first nonzero one
without advancing its iterable further, so the checks hand it generators
and build no residual past a failure.

Candidate rational points are drawn from that RNG in order and evaluated
in floating point (numtape.eval_tape) one batch at a time, each batch
being the points still missing.  A point with a non-finite value is
redrawn, with at most _MAX_REDRAWS + 1 = 201 draws per query; a point
where a `math` call raises (a pole, a domain error, an overflow) has the
value nan.  Batching accepts the same points as drawing one at a time,
and the fingerprint text is unchanged, so seeds and witnesses are too.
When no 201 draws give enough points and no residue proves the query
nonzero, ConfigError names the cause: a constant outside the float range,
or else an expression that may be singular on the whole domain.

A rational query draws a prime p uniformly from [2^61, 2^62) from a
second RNG seeded from the same (seed, fingerprint) key, so the rational
point stream is untouched.  That RNG goes on to draw k points uniform in
GF(p)^n, and the query's tape is evaluated there (numtape.eval_tape_mod).
k is the fewest points with (D/p)^k <= 2^-40, where D is a bound on the
numerator degree of the tape's value (numtape.degree_bound): one point
while D <= 2^21, two up to about 2^41, and ConfigError when D > p/2.
Zero residues at all k points are a zero verdict at once, with `samples`
= k: no rational point is drawn and no float pass runs.  The domain
constraints do not restrict these points: a rational function that
vanishes on an open set vanishes identically.  A nonzero residue proves
the query nonzero, and the rational points then only look for a witness
(Schwartz-Zippel identity testing):

* the accepted points are evaluated over GF(p); the float values order
  the search, and only a point with a nonzero residue, or one the prime
  cannot reduce, is evaluated in Fraction arithmetic
  (numtape.eval_tape_exact), at most once, so witness_value stays exact.
  A point falls back to Fraction arithmetic when p divides the
  denominator of a constant or coordinate, or the base of a negative
  power is 0 mod p; an exact pole is such a case and is skipped;
* when no accepted point has a nonzero value, or none is accepted at all
  (every float value infinite), the verdict is nonzero and exact with
  witness None: a certificate whose note names p and the residue.
  `samples` is then the number of accepted rational points.

When a uniform point has no residue (p divides a constant's denominator,
or the point is a pole mod p) and none is nonzero, the query is decided
on the rational points as above, zero when every exact value is zero.
One tape is compiled per sampled query, and the float, GF(p) and
Fraction evaluations all run on it.

A zero verdict from the uniform points is wrong with probability at most
(D/p)^k <= 2^-40 (Schwartz, JACM 27(4), 1980; Zippel, EUROSAM 1979), on
top of the chance that p divides every coefficient of the numerator N:
at most log2|N|/61 primes in [2^61, 2^62) divide a nonzero coefficient,
out of about 5.3e16.  A zero residue at a rational point adds at most
log2|N|/(61 * 5.3e16) per point on the fallback path.  A nonzero verdict
has no added error.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional, Tuple

import random

from . import expr as ex
from . import numtape

__all__ = ["ZeroTestPolicy", "ZeroVerdict", "ConfigError", "is_zero",
           "zero_report", "all_zero", "sample_points", "DEFAULT_POLICY",
           "MAX_SAMPLES"]

_PREFILTER = 1e-6          # float magnitude above which we try an exact witness
_MAX_REDRAWS = 200
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


def sample_points(names, policy: ZeroTestPolicy, rng: random.Random, count=None):
    """Draw `count` points satisfying the policy constraints (no domain
    validation against any particular expression)."""
    lo, hi, excl = _bounds(policy.constraints, set(names))
    count = policy.sample_count if count is None else count
    return [{n: _draw(rng, lo, hi, excl, n) for n in names} for _ in range(count)]


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


def _query_prime(key: int) -> Tuple[int, random.Random]:
    """A prime drawn uniformly from [2^61, 2^62) by an RNG of its own,
    seeded from the query key, so the point stream is left untouched; and
    that RNG, which goes on to draw the uniform points of GF(p)^n."""
    rng = random.Random(f"prime:{key}")
    while True:
        n = rng.getrandbits(61) | (1 << 61) | 1
        if _is_prime(n):
            return n, rng


def _uniform_residue(tape: numtape.Tape, p: int, rng: random.Random):
    """The tape's residue at uniform points of GF(p)^n, and how many points
    were drawn: the fewest k with (D/p)^k <= 2^-40 for the numerator-degree
    bound D = numtape.degree_bound(tape), so one point while D <= 2^21.
    The residue is the first nonzero one, else None when a point has none
    (p divides a constant's denominator, or a pole mod p), else 0.  Raises
    ConfigError when D > p/2, where 40 points do not reach 2^-40."""
    d = numtape.degree_bound(tape)
    k = next((k for k in range(1, 41) if d ** k << 40 <= p ** k), None)
    if k is None:
        raise ConfigError(f"numerator degree bound {d} is too large for a "
                          "zero test over GF(p)")
    points = [{n: rng.randrange(p) for n in tape.varnames} for _ in range(k)]
    residues = numtape.eval_tape_mod(tape, points, p)
    return next((r for r in residues if r), None if None in residues else 0), k


def zero_report(e: ex.Expr, policy: ZeroTestPolicy = DEFAULT_POLICY) -> ZeroVerdict:
    e = ex.simplify(e, policy.constraints)
    if isinstance(e, ex.Rat):
        if e.value == 0:
            return ZeroVerdict(True, True, note="literal zero")
        return ZeroVerdict(False, True, witness={}, witness_value=e.value,
                           note="literal nonzero constant")

    names = sorted(e.free)
    key = _fingerprint(e, policy) ^ (policy.seed * 0x9E3779B97F4A7C15)
    rng = random.Random(key)
    lo, hi, excl = _bounds(policy.constraints, set(names))
    tape = numtape.compile_tape(e, names)
    residue = None
    if e.rational:
        # uniform points of GF(p)^n decide the query; the rational points
        # below only look for a witness of a nonzero residue
        p, prime_rng = _query_prime(key)
        residue, count = _uniform_residue(tape, p, prime_rng)
        if residue == 0:
            return ZeroVerdict(True, True, samples=count)

    points = []
    floats = []
    draws = 0
    while len(points) < policy.sample_count:
        k = min(policy.sample_count - len(points), _MAX_REDRAWS + 1 - draws)
        if k == 0:
            if residue is not None:
                break       # proven nonzero; search the accepted points
            cause = ("a constant is outside the float range"
                     if not all(map(math.isfinite, tape.consts))
                     else "expression may be singular on the whole domain")
            raise ConfigError(f"could not find enough valid sample points ({cause})")
        draws += k
        batch = [{n: _draw(rng, lo, hi, excl, n) for n in names} for _ in range(k)]
        for pt, v in zip(batch, numtape.eval_tape(tape, batch)):
            if math.isfinite(v):  # otherwise outside the expression's domain; redraw
                points.append(pt)
                floats.append(v)

    if e.rational:
        # float prefilter: likely witnesses first, then confirmation of every
        # point.  A residue mod a per-query prime stands in for each exact
        # value; a zero residue counts as zero, and only a nonzero residue
        # (the witness) or a point the prime cannot reduce is evaluated
        # exactly, each at most once
        residues = numtape.eval_tape_mod(tape, points, p)
        exact = {}

        def value(i):
            if residues[i] == 0:
                return 0
            if i not in exact:
                try:
                    exact[i] = numtape.eval_tape_exact(tape, points[i])
                except ZeroDivisionError:
                    exact[i] = None     # a pole
            return exact[i]

        order = sorted(range(len(points)), key=lambda i: -abs(floats[i]))
        for i in order:
            val = value(i)
            if val is None:
                continue
            if val != 0:
                return ZeroVerdict(False, True, witness=points[i], witness_value=val,
                                   samples=len(points))
            if abs(floats[i]) <= _PREFILTER:
                # remaining floats are all small; confirm every point
                break
        for i, pt in enumerate(points):
            val = value(i)
            if val is not None and val != 0:
                return ZeroVerdict(False, True, witness=pt, witness_value=val,
                                   samples=len(points))
        if residue is not None:
            # no accepted point is a witness: the residue is the certificate
            return ZeroVerdict(False, True, samples=len(points),
                               note=f"nonzero residue {residue} mod p = {p} at a "
                                    "uniform point; no rational sample is a witness")
        return ZeroVerdict(True, True, samples=len(points))

    worst = max(range(len(points)), key=lambda i: abs(floats[i]))
    if abs(floats[worst]) > policy.tolerance:
        return ZeroVerdict(False, False, witness=points[worst],
                           witness_value=floats[worst], samples=len(points))
    return ZeroVerdict(True, False, samples=len(points))


def is_zero(e: ex.Expr, policy: ZeroTestPolicy = DEFAULT_POLICY) -> bool:
    return zero_report(e, policy).is_zero


def all_zero(pairs: Iterable[Tuple[object, ex.Expr]],
             policy: ZeroTestPolicy = DEFAULT_POLICY):
    """Zero-test each (key, expression) pair in order and stop at the first
    nonzero one: (True, None), or (False, (key, report)) for that pair.
    `pairs` is never advanced past it, so a generator builds no residual
    after a failure."""
    for key, e in pairs:
        rep = zero_report(e, policy)
        if not rep.is_zero:
            return False, (key, rep)
    return True, None
