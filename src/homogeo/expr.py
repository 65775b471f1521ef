"""Immutable symbolic expression trees over chart coordinates.

The node inventory is deliberately small: exact rational constants,
variables, n-ary sums and products, powers with a rational exponent, and
the function heads exp/log/abs/sign/sin/cos (sqrt is parsed and printed as
sugar for the 1/2 power).  All constructors canonicalize lightly (constant
folding, flattening, like-term and like-base collection) and intern the
resulting node, so structurally equal expressions are the *same* object,
and a node hashes by identity.  Heavy canonical simplification is
intentionally absent; identity checking is the zero test's job (see
zerotest.py).

Constants fold without Fraction arithmetic.  A Rat, Sum or Prod keeps its
rational part (`value`, `const`, `coeff`) twice: as a Fraction, one
object per value made when the node is interned (a Pow's `exponent` is
that object too), for every reader; and as the reduced numerator and
denominator ints `n`/`d` (d > 0), which `add`, `mul` and `neg` fold.  A
ZERO argument ends `mul` before any collecting; `neg` negates the
constant, the coefficient or each term's coefficient directly, and a Sum
keeps its negation.  The intern keys and the structural hash `shash`,
the canonical order of terms and factors, hold the same ints.

Because a node is immutable and stays interned for the life of the
process, `simplify`, `diff` and the sign walker `_sign_class` keep their
results on the node itself (the `cache` slot), keyed by the constraints
and, for `diff`, the variable.  A later call on a shared subtree is a
lookup, not a walk.  An exception such as DomainError is never cached.
A rational node is canonical as built (see Sum, Prod and Pow): its
constructor remade from its children returns it, and every rule of
`simplify` needs a function head or a fractional power, so `simplify`
returns it at once and keeps nothing.  The printer keeps the text of
every subexpression it prints in the same slot, so `to_dsl` prints each
node once per process; only the root's text, the largest and rarely
printed again, is not kept.  Its one int-to-text step raises
ConstantTooLargeError for what `unprintable` says Python cannot print.

One walker reads signs: `_sign_class`, the sign class ("+", "-", "0",
"0+", "0-" or unknown) under domain constraints.  `sign_of` asks it under
the caller's constraints; the constructors ask it under none, and fold
what it shows: `abs_` returns an argument that is "+", "0+" or "0",
`sign_` gives 1 for a "+" argument, and `pw` folds (b^e)^q for a
fractional q when b is "+".

The walkers are `subs`, `diff`, `simplify`, the printer and
`_sign_class`.  Each collects the nodes it has no result for with
`_reachable`, by `serial` (the count of nodes interned before a node, so
its children's are lower), and computes them in that order, each from
its children's results, as numtape's tapes and the zero test's digests
are built.  No walker has a depth limit.  Of two faults in one walk, the
one at the node of lower serial is raised.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .ratmat import rroot

__all__ = [
    "Expr", "Rat", "Var", "Sum", "Prod", "Pow", "Fun",
    "Constraint", "DomainError", "InvalidObjectError", "ConstantTooLargeError",
    "MAX_CONSTANT_BITS", "rat", "var", "add", "mul", "neg", "sub", "div", "pw",
    "exp_", "log_", "sqrt_", "abs_", "sign_", "sin_", "cos_",
    "ZERO", "ONE",
    "subs", "diff", "simplify", "sign_of",
    "eval_exact", "to_dsl", "unprintable",
]

Rational = Union[int, Fraction]

_MASK = (1 << 64) - 1

# `pw` refuses to raise a constant to a power with more bits than this
MAX_CONSTANT_BITS = 1 << 20

# the exponent of a factor that is not a power
_F1 = Fraction(1)


def _fnv(data: Iterable[int]) -> int:
    h = 0xCBF29CE484222325
    for v in data:
        h ^= v & _MASK
        h = (h * 0x100000001B3) & _MASK
    return h


def _strhash(s: str) -> int:
    return _fnv(s.encode("utf-8"))


class DomainError(ValueError):
    """Operation needs sign information the domain constraints do not fix."""


class InvalidObjectError(ValueError):
    """An object violates a validity condition of its kind (a vanishing theta,
    a degenerate metric or frame); a scenario reports it as a failed check."""


class ConstantTooLargeError(OverflowError):
    """A constant too large to compute or print: a power of more than
    MAX_CONSTANT_BITS bits, refused by `pw` before it is computed, or a
    rational that `unprintable` says Python cannot print."""


class Constraint:
    """Strict inequality or non-equality on a single variable: var <op> bound."""

    __slots__ = ("name", "op", "bound", "_hash")

    def __init__(self, name: str, op: str, bound: Rational):
        if op not in (">", "<", "!="):
            raise ValueError(f"unsupported constraint operator {op!r}")
        self.name = name
        self.op = op
        self.bound = Fraction(bound)
        self._hash = hash((name, op, self.bound))

    def __repr__(self):
        return f"{self.name} {self.op} {self.bound}"

    def __eq__(self, other):
        return (isinstance(other, Constraint)
                and (self.name, self.op, self.bound) == (other.name, other.op, other.bound))

    def __hash__(self):
        return self._hash

    @staticmethod
    def parse(text: str) -> "Constraint":
        for op in ("!=", ">", "<"):
            if op in text:
                lhs, rhs = text.split(op, 1)
                return Constraint(lhs.strip(), op, Fraction(rhs.strip()))
        raise ValueError(f"cannot parse constraint {text!r}")


class Expr:
    """Base node.  Instances are interned: structural equality is identity,
    and a node hashes by identity too.  `shash`, a structural hash that is
    the same in every run, is only the canonical sort key of a node's terms
    or factors; no set of nodes is iterated for output."""

    __slots__ = ("shash", "free", "rational", "cache", "serial", "digest")

    def __repr__(self):
        return to_dsl(self)

    def is_zero_literal(self) -> bool:
        return self is ZERO


class Rat(Expr):
    __slots__ = ("value", "n", "d")


class Var(Expr):
    __slots__ = ("name",)


class Sum(Expr):
    """const + term1 + ...; terms not Rat/Sum, distinct cores, by shash.
    `negation` is the sum's negation once `neg` has made it, kept both ways."""

    __slots__ = ("const", "terms", "n", "d", "negation")


class Prod(Expr):
    """coeff * factor1 * ...; factors not Rat/Prod nor a lone Sum, bases distinct, by shash."""

    __slots__ = ("coeff", "factors", "n", "d")


class Pow(Expr):
    """base ** q for a rational q other than 0 and 1; an integer q has no Rat/Prod/Pow base."""

    __slots__ = ("base", "exponent")


class Fun(Expr):
    __slots__ = ("name", "arg")


# ---------------------------------------------------------------------------
# interning

_INTERN: dict = {}
_SERIAL = itertools.count()


def _finish(node: Expr, key, shash: int, free: frozenset, rational: bool) -> Expr:
    node.shash = shash
    node.free = free
    node.rational = rational
    node.cache = None   # results of the walkers, see _cache_put
    node.serial = next(_SERIAL)     # above its children's, finished before it
    node.digest = None  # the zero test's Merkle digest, see zerotest._digest
    _INTERN[key] = node
    return node


def rat(q: Rational) -> Rat:
    if type(q) is not Fraction:
        q = Fraction(q)
    return _rat(q.numerator, q.denominator)


def _rat(n: int, d: int) -> Rat:
    """The constant n/d, for a reduced pair with d > 0."""
    key = ("R", n, d)
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = Rat.__new__(Rat)
    node.value = Fraction(n, d)
    node.n, node.d = n, d
    return _finish(node, key, _fnv((1, n, d)), frozenset(), True)


def var(name: str) -> Var:
    key = ("V", name)
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = Var.__new__(Var)
    node.name = name
    return _finish(node, key, _fnv((2, _strhash(name))), frozenset((name,)), True)


ZERO = _rat(0, 1)
ONE = _rat(1, 1)


def _reduced(n: int, d: int) -> tuple:
    """n/d in lowest terms, for d > 0."""
    if d == 1:
        return n, 1
    g = math.gcd(n, d)
    return n // g, d // g


def _qadd(an: int, ad: int, bn: int, bd: int) -> tuple:
    """an/ad + bn/bd as a reduced pair."""
    if ad == bd == 1:
        return an + bn, 1
    return _reduced(an * bd + bn * ad, ad * bd)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return rat(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


_by_shash = operator.attrgetter("shash")


def _sorted_nodes(nodes):
    return tuple(sorted(nodes, key=_by_shash))


def _combine(tag: int, n: int, d: int, kids: tuple) -> tuple:
    """The shash, _fnv((tag, n, d, *the kids' shashes)), free names and
    rational flag of a new Sum (tag 3) or Prod (tag 4), in one pass."""
    h, free, rational = _fnv((tag, n, d)), kids[0].free, True
    for k in kids:
        h = ((h ^ k.shash) * 0x100000001B3) & _MASK
        if not k.free <= free:  # else a kid's set is kept, not copied
            free = free | k.free
        rational = rational and k.rational
    return h, free, rational


def _make_sum(n: int, d: int, terms: tuple) -> Expr:
    if not terms:
        return _rat(n, d)
    if n == 0 and len(terms) == 1:
        return terms[0]
    key = ("S", n, d, *map(id, terms))
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = Sum.__new__(Sum)
    node.const = _rat(n, d).value   # one Fraction per value
    node.n, node.d = n, d
    node.terms = terms
    node.negation = None
    return _finish(node, key, *_combine(3, n, d, terms))


def add(*xs) -> Expr:
    n, d = 0, 1
    acc: dict = {}   # factor tuple of a term -> (cn, cd, the term if met once)
    for x in xs:
        x = _coerce(x)
        if isinstance(x, Rat):
            if x.n:
                n, d = _qadd(n, d, x.n, x.d)
            continue
        if isinstance(x, Sum):
            n, d = _qadd(n, d, x.n, x.d)
            ts = x.terms
        else:
            ts = (x,)
        for t in ts:
            fs, cn, cd = (t.factors, t.n, t.d) if isinstance(t, Prod) else ((t,), 1, 1)
            old = acc.get(fs)
            acc[fs] = (cn, cd, t) if old is None else (*_qadd(old[0], old[1], cn, cd), None)
    terms = [_make_prod(cn, cd, fs) if t is None else t
             for fs, (cn, cd, t) in acc.items() if cn]
    return _make_sum(n, d, _sorted_nodes(terms))


def _scale_sum(s: Sum, n: int, d: int) -> Expr:
    """n/d times the sum s, distributed over its constant and terms, so that
    negated or scaled sums cancel structurally."""
    terms = [_make_prod(*_reduced(t.n * n, t.d * d), t.factors) if isinstance(t, Prod)
             else _make_prod(n, d, (t,)) for t in s.terms]
    return _make_sum(*_reduced(s.n * n, s.d * d), _sorted_nodes(terms))


def _make_prod(n: int, d: int, factors: tuple) -> Expr:
    if not factors:
        return _rat(n, d)
    if len(factors) == 1 and n == d:
        return factors[0]
    key = ("P", n, d, *map(id, factors))
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = Prod.__new__(Prod)
    node.coeff = _rat(n, d).value
    node.n, node.d = n, d
    node.factors = factors
    return _finish(node, key, *_combine(4, n, d, factors))


def _collect(xs, n: int, d: int, acc: dict) -> tuple:
    """Multiply the rational parts of `xs` into n/d, returned unreduced, and
    add the exponent of each other base into `acc` (base -> exponent).  No
    base is a Rat with an integer exponent: `pw` folds those."""
    for x in xs:
        if isinstance(x, Rat):
            n, d = n * x.n, d * x.d
            continue
        if isinstance(x, Prod):
            n, d = n * x.n, d * x.d
            fs = x.factors
        else:
            fs = (x,)
        for f in fs:
            b, q = (f.base, f.exponent) if isinstance(f, Pow) else (f, _F1)
            e = acc.get(b)
            acc[b] = q if e is None else e + q
    return n, d


def mul(*xs) -> Expr:
    if ZERO in xs:
        return ZERO
    acc: dict = {}
    n, d = _collect(map(_coerce, xs), 1, 1, acc)
    if n == 0:
        return ZERO
    # pw(b, 1) is b itself, so those bases skip the call
    factors = [b if q == 1 else pw(b, q) for b, q in acc.items() if q]
    # pw may have folded to Rat or nested products; re-collect once if so
    if any(isinstance(f, (Rat, Prod)) for f in factors):
        acc = {}
        n, d = _collect(factors, n, d, acc)
        factors = [b if q == 1 else pw(b, q) for b, q in acc.items() if q]
    n, d = _reduced(n, d)
    if len(factors) == 1 and n != d and isinstance(factors[0], Sum):
        return _scale_sum(factors[0], n, d)
    return _make_prod(n, d, _sorted_nodes(factors))


def neg(x) -> Expr:
    x = _coerce(x)
    if isinstance(x, Rat):
        return _rat(-x.n, x.d)
    if isinstance(x, Prod):
        return _make_prod(-x.n, x.d, x.factors)
    if isinstance(x, Sum):
        if x.negation is None:     # the negation of a sum is a sum
            x.negation = _scale_sum(x, -1, 1)
            x.negation.negation = x
        return x.negation
    return _make_prod(-1, 1, (x,))


def sub(a, b) -> Expr:
    return add(_coerce(a), neg(b))


def div(a, b) -> Expr:
    return mul(_coerce(a), pw(_coerce(b), Fraction(-1)))


def _qpow(v: Fraction, n: int) -> Fraction:
    """v ** n, refused before it is computed if it exceeds MAX_CONSTANT_BITS."""
    big = max(abs(v.numerator), v.denominator)
    if big > 1 and abs(n) * math.log2(big) > MAX_CONSTANT_BITS:
        raise ConstantTooLargeError(f"constant power exceeds {MAX_CONSTANT_BITS} bits")
    return v ** n


def pw(base, q: Rational) -> Expr:
    base = _coerce(base)
    if type(q) is not Fraction:
        q = Fraction(q)
    n, d = q.numerator, q.denominator
    if n == 0:
        return ONE
    if n == d:
        return base
    if isinstance(base, Rat):
        v = base.value
        if d == 1:
            if v == 0 and n < 0:
                raise ZeroDivisionError("0 raised to a negative power")
            return rat(_qpow(v, n))
        if v == 0:
            return ZERO  # q > 0 here since q != 0 and 0**neg raised above
        if v > 0:
            root = rroot(v, d)
            if root is not None:
                return rat(_qpow(root, n))
    if isinstance(base, Pow):
        if d == 1 or _sign_class(base.base, ()) == "+":
            return pw(base.base, base.exponent * q)
    if isinstance(base, Prod) and d == 1:
        return mul(rat(_qpow(base.coeff, n)), *[pw(f, q) for f in base.factors])
    key = ("W", id(base), n, d)
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = Pow.__new__(Pow)
    node.base = base
    node.exponent = _rat(n, d).value    # one Fraction per value
    shash = _fnv((5, n, d, base.shash))
    return _finish(node, key, shash, base.free, base.rational and d == 1)


def _make_fun(name: str, arg: Expr) -> Expr:
    key = (name, id(arg))
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = Fun.__new__(Fun)
    node.name = name
    node.arg = arg
    shash = _fnv((6, _strhash(name), arg.shash))
    return _finish(node, key, shash, arg.free, False)


def _negated(x: Expr) -> Optional[Expr]:
    """If x is syntactically -(y) with a negative rational coefficient, return y."""
    if isinstance(x, Rat) and x.n < 0:
        return _rat(-x.n, x.d)
    if isinstance(x, Prod) and x.n < 0:
        return _make_prod(-x.n, x.d, x.factors)
    return None


def exp_(x) -> Expr:
    x = _coerce(x)
    if isinstance(x, Rat) and x.value == 0:
        return ONE
    if isinstance(x, Fun) and x.name == "log":
        return x.arg
    return _make_fun("exp", x)


def log_(x) -> Expr:
    x = _coerce(x)
    if isinstance(x, Rat) and x.value == 1:
        return ZERO
    if isinstance(x, Fun) and x.name == "exp":
        return x.arg
    return _make_fun("log", x)


def sqrt_(x) -> Expr:
    return pw(x, Fraction(1, 2))


def abs_(x) -> Expr:
    x = _coerce(x)
    if isinstance(x, Rat):
        return rat(abs(x.value))
    if _sign_class(x, ()) in ("+", "0+", "0"):
        return x
    n = _negated(x)
    if n is not None:
        return abs_(n)
    return _make_fun("abs", x)


def sign_(x) -> Expr:
    x = _coerce(x)
    if isinstance(x, Rat):
        if x.value == 0:
            raise DomainError("sign(0) is undefined")
        return rat(1 if x.value > 0 else -1)
    if _sign_class(x, ()) == "+":
        return ONE
    n = _negated(x)
    if n is not None:
        return neg(sign_(n))
    return _make_fun("sign", x)


def sin_(x) -> Expr:
    x = _coerce(x)
    if isinstance(x, Rat) and x.value == 0:
        return ZERO
    n = _negated(x)
    if n is not None:
        return neg(_make_fun("sin", n))
    return _make_fun("sin", x)


def cos_(x) -> Expr:
    x = _coerce(x)
    if isinstance(x, Rat) and x.value == 0:
        return ONE
    n = _negated(x)
    if n is not None:
        return _make_fun("cos", n)
    return _make_fun("cos", x)


_FUN_MAKERS = {"exp": exp_, "log": log_, "abs": abs_, "sign": sign_, "sin": sin_, "cos": cos_}


# ---------------------------------------------------------------------------
# signs under domain constraints

# exp is "+"; log, sin and cos need magnitudes, so their argument is not read
_HEAD_SIGN = {"exp": "+", "log": None, "sin": None, "cos": None}


def _sign_class(x: Expr, constraints: tuple) -> Optional[str]:
    """The sign class of x under `constraints`: "+" / "-" strictly signed,
    "0" zero, "0+" / "0-" weakly signed, None unknown.  A `>` bound >= 0
    makes a variable "+", else a `<` bound <= 0 makes it "-".  An exp, log,
    sin or cos head is read at once; every other node is classed from its
    children's classes, in serial order, and keeps its class in its cache
    slot under ("sign", constraints), so a shared subtree is walked once."""
    key = ("sign", constraints)

    def known(k: Expr) -> bool:
        return (type(k) is Fun and k.name in _HEAD_SIGN) or (
            k.cache is not None and key in k.cache)

    def sign(k: Expr) -> Optional[str]:
        return _HEAD_SIGN[k.name] if type(k) is Fun and k.name in _HEAD_SIGN else k.cache[key]

    if known(x):
        return sign(x)
    for y in _reachable(x, known):
        out = None
        if isinstance(y, Rat):
            out = "0" if y.n == 0 else ("+" if y.n > 0 else "-")
        elif isinstance(y, Var):
            if any(c.name == y.name and c.op == ">" and c.bound >= 0 for c in constraints):
                out = "+"
            elif any(c.name == y.name and c.op == "<" and c.bound <= 0 for c in constraints):
                out = "-"
        elif isinstance(y, Prod):
            # strict unless a factor is weak; "-" if an odd number are negative
            weak, negative = False, y.n < 0
            for f in y.factors:
                out = sign(f)
                if out is None or out == "0":
                    break
                weak = weak or out[0] == "0"
                negative ^= out[-1] == "-"
            else:
                out = ("0" if weak else "") + ("-" if negative else "+")
        elif isinstance(y, Sum):
            # one-signed if no term has the other sign; strict if one term is
            classes = {"0" if y.n == 0 else ("+" if y.n > 0 else "-"), *map(sign, y.terms)}
            for s in ("+", "-"):
                if classes <= {s, "0" + s, "0"}:
                    out = s if s in classes else ("0" if classes == {"0"} else "0" + s)
        elif isinstance(y, Pow):
            bs = sign(y.base)
            q = y.exponent
            if q.denominator == 1 and q.numerator % 2 == 0:
                out = "+" if bs in ("+", "-") else ("0" if bs == "0" else "0+")
            elif bs == "+":
                out = "+"
            elif bs == "-" and q.denominator == 1:
                out = "-"
            elif bs in ("0", "0+") and q > 0:
                out = bs
        else:
            s = sign(y.arg)
            if y.name == "abs":
                out = "+" if s in ("+", "-") else ("0" if s == "0" else "0+")
            else:   # sign
                out = s if s in ("+", "-", "0") else None
        _cache_put(y, key, out)
    return out


def sign_of(x: Expr, constraints: Iterable[Constraint] = ()) -> Optional[int]:
    """Strict sign (+1, -1, 0) of x when the constraints determine it."""
    return {"+": 1, "-": -1, "0": 0}.get(_sign_class(x, tuple(constraints)))


# ---------------------------------------------------------------------------
# structural walks

def _reachable(e, done=None) -> list:
    """The nodes reachable from e, or from any of a tuple of roots e,
    collected with a stack, not recursion, and sorted by serial, so each
    comes after its children.  A node below the roots for which `done`
    returns a true value is left out and not entered: a walker passes the
    test that a node has its result, and computes the rest in the order
    returned, each from its children's results."""
    stack = [e] if isinstance(e, Expr) else list(e)
    nodes = {x.serial: x for x in stack}
    while stack:
        x = stack.pop()
        cls = type(x)
        for k in (x.terms if cls is Sum else x.factors if cls is Prod else
                  (x.base,) if cls is Pow else (x.arg,) if cls is Fun else ()):
            if k.serial not in nodes and not (done and done(k)):
                nodes[k.serial] = k
                stack.append(k)
    return [nodes[s] for s in sorted(nodes)]


def subs(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of variables by expressions."""
    names = mapping.keys()
    if not (e.free & names):
        return e
    out: dict = {}  # serial -> the result of a node that holds a mapped name

    def get(k: Expr) -> Expr:
        return out.get(k.serial, k)

    for x in _reachable(e, lambda k: not (k.free & names)):
        out[x.serial] = mapping.get(x.name, x) if isinstance(x, Var) else _rebuild(x, get)
    return get(e)


def _rebuild(x: Expr, get) -> Expr:
    """The Sum, Prod, Pow or Fun node x remade by its canonicalizing
    constructor from the result `get` returns for each child: the step
    `subs` and `simplify` share, each keeping its results its own way."""
    if isinstance(x, Sum):
        return add(_rat(x.n, x.d), *map(get, x.terms))
    if isinstance(x, Prod):
        return mul(_rat(x.n, x.d), *map(get, x.factors))
    if isinstance(x, Pow):
        return pw(get(x.base), x.exponent)
    return _FUN_MAKERS[x.name](get(x.arg))


def _cache_put(x: Expr, key: tuple, out: Expr) -> Expr:
    """Keep `out` as x's result for `key`.  Keys are ("simplify",
    constraints), ("sign", constraints) or ("diff", variable, constraints),
    and the printer keeps its text under ("dsl",) (see _printed): the first
    elements differ, so no two kinds collide."""
    if x.cache is None:
        x.cache = {key: out}
    else:
        x.cache[key] = out
    return out


def diff(e: Expr, v: str, constraints: Iterable[Constraint] = ()) -> Expr:
    """Exact partial derivative with respect to the variable named v.

    abs/sign arguments must be sign-definite under the constraints,
    otherwise a DomainError is raised, at the one of lowest serial when
    several are not.  Results are cached on each interned node for the
    life of the process, keyed by (v, constraints); an exception is not
    cached.
    """
    if v not in e.free:
        return ZERO
    constraints = tuple(constraints)
    key = ("diff", v, constraints)
    if e.cache is not None and key in e.cache:
        return e.cache[key]

    def done(k: Expr) -> bool:
        return v not in k.free or (k.cache is not None and key in k.cache)

    def get(k: Expr) -> Expr:
        return k.cache[key] if v in k.free else ZERO

    for x in _reachable(e, done):
        if isinstance(x, Var):
            out = ONE
        elif isinstance(x, Sum):
            out = add(*map(get, x.terms))
        elif isinstance(x, Prod):
            fs = x.factors
            out = add(*[mul(_rat(x.n, x.d), df, *fs[:i], *fs[i + 1:])
                        for i, df in enumerate(map(get, fs)) if df is not ZERO])
        elif isinstance(x, Pow):
            out = mul(rat(x.exponent), pw(x.base, x.exponent - 1), get(x.base))
        else:
            a = x.arg
            da = get(a)
            if x.name == "exp":
                out = mul(x, da)
            elif x.name == "log":
                out = mul(pw(a, Fraction(-1)), da)
            elif x.name == "sin":
                out = mul(cos_(a), da)
            elif x.name == "cos":
                out = neg(mul(sin_(a), da))
            else:  # abs or sign
                s = sign_of(a, constraints)
                if s is None or s == 0:
                    raise DomainError(
                        f"cannot differentiate {x.name}({to_dsl(a)}): argument sign is "
                        f"not fixed by the domain constraints")
                out = mul(rat(s), da) if x.name == "abs" else ZERO
        _cache_put(x, key, out)
    return out


def simplify(e: Expr, constraints: Iterable[Constraint] = ()) -> Expr:
    """Resolve abs/sign/log and fractional powers on sign-definite parts,
    remaking each node above them by its constructor.  A rational node is
    returned as it is (see the module docstring); other results are cached
    on the node, keyed by the constraints; an exception is not cached."""
    if e.rational:
        return e
    constraints = tuple(constraints)
    key = ("simplify", constraints)
    if e.cache is not None and key in e.cache:
        return e.cache[key]

    def done(k: Expr) -> bool:
        return k.rational or (k.cache is not None and key in k.cache)

    def get(k: Expr) -> Expr:
        return k if k.rational else k.cache[key]

    def power(b: Expr, q: Fraction) -> Expr:
        # b^q, with (c^e)^q folded to c^(e*q) when c is positive
        if isinstance(b, Pow) and sign_of(b.base, constraints) == 1:
            return pw(b.base, b.exponent * q)
        return pw(b, q)

    for x in _reachable(e, done):
        if isinstance(x, Pow):
            base, q = get(x.base), x.exponent
            if q.denominator != 1 and isinstance(base, Prod) and base.n > 0 and all(
                    sign_of(f, constraints) == 1 for f in base.factors):
                # distribute fractional powers over positive factors
                out = mul(pw(rat(base.coeff), q), *[power(f, q) for f in base.factors])
            else:
                out = power(base, q)
        elif isinstance(x, Fun) and x.name in ("abs", "sign", "log"):
            a = get(x.arg)
            if x.name == "log":
                out = _log_expand(a, constraints)
            elif (s := sign_of(a, constraints)) not in (1, -1):
                out = _FUN_MAKERS[x.name](a)    # abs_ or sign_
            else:
                out = (a if s == 1 else neg(a)) if x.name == "abs" else rat(s)
        else:
            out = _rebuild(x, get)
        _cache_put(x, key, out)
    return out


def _log_expand(a: Expr, constraints) -> Expr:
    """log over positive factors and powers (valid on the principal branch).
    The products and powers it splits are collected with a stack and
    expanded in serial order, each once."""
    split: dict = {}    # serial -> (node, the nodes its log splits over)
    stack = [a]
    while stack:
        x = stack.pop()
        if isinstance(x, Prod) and x.n > 0 and all(
                sign_of(f, constraints) == 1 for f in x.factors):
            parts = x.factors
        elif isinstance(x, Pow) and sign_of(x.base, constraints) == 1:
            parts = (x.base,)
        else:
            parts = ()
        split[x.serial] = (x, parts)
        stack.extend(p for p in parts if p.serial not in split)
    logs: dict = {}     # serial -> the expanded log of the node
    for s in sorted(split):
        x, parts = split[s]
        if not parts:
            logs[s] = log_(x)
        elif isinstance(x, Pow):
            logs[s] = mul(rat(x.exponent), logs[x.base.serial])
        else:
            logs[s] = add(log_(rat(x.coeff)), *[logs[f.serial] for f in parts])
    return logs[a.serial]


# ---------------------------------------------------------------------------
# evaluation

def eval_exact(e: Expr, point: Mapping[str, Fraction]) -> Fraction:
    """Exact rational evaluation, on a tape compiled for the call (see
    numtape).  Raises DomainError on non-rational nodes and
    ZeroDivisionError on division by zero."""
    from . import numtape   # numtape imports this module
    return numtape.eval_tape_exact(numtape.compile_tape(e), point)


# ---------------------------------------------------------------------------
# printing (emits the grammar accepted by parser.parse)

_PREC_SUM, _PREC_PROD, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4

_DSL_KEY = ("dsl",)     # cache key of a node's printed (text, precedence)


_POW10: dict = {}       # digit limit -> 10 ** limit, the least int it refuses


def unprintable(q: Rational) -> int:
    """0 when the rational q prints, else the digit limit its numerator or
    denominator exceeds: sys.get_int_max_str_digits() (4300 by default, 0
    for none), past which Python prints no int."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        return 0
    bound = _POW10.get(limit) or _POW10.setdefault(limit, 10 ** limit)
    return 0 if abs(q.numerator) < bound and q.denominator < bound else limit


def _int_str(n: int) -> str:
    """The printer's one int-to-text step."""
    limit = unprintable(n)
    if limit:
        raise ConstantTooLargeError(f"constant has more than {limit} digits, too "
                                    "many to print")
    return str(n)


def _frac_str(q: Fraction) -> str:
    text = _int_str(q.numerator)
    return text if q.denominator == 1 else f"{text}/{_int_str(q.denominator)}"


def _print(e: Expr) -> tuple:
    """Return (text, precedence)."""
    if isinstance(e, Rat):
        if e.d == 1:
            return _int_str(e.n), (_PREC_ATOM if e.n >= 0 else _PREC_SUM)
        return _frac_str(e.value), _PREC_PROD
    if isinstance(e, Var):
        return e.name, _PREC_ATOM
    if isinstance(e, Sum):
        parts = []
        if e.const != 0:
            parts.append(_frac_str(e.const))
        for t in e.terms:
            n = _negated(t)
            if parts and n is not None:
                parts.append("- " + _wrap(n, _PREC_PROD))
            elif parts:
                parts.append("+ " + _wrap(t, _PREC_PROD))
            else:
                parts.append(_wrap(t, _PREC_PROD) if n is None
                             else "-" + _wrap(n, _PREC_PROD))
        return " ".join(parts), _PREC_SUM
    if isinstance(e, Prod):
        num, den = [], []
        for f in e.factors:     # den holds base^|q| of each factor with q < 0
            neg = isinstance(f, Pow) and f.exponent < 0
            (den if neg else num).append(pw(f.base, -f.exponent) if neg else f)
        lead = "-" if e.n < 0 else ""
        num_parts = []
        if abs(e.n) != 1 or not num:
            num_parts.append(_int_str(abs(e.n)))
        num_parts += [_wrap(f, _PREC_POW) for f in num]
        text = lead + "*".join(num_parts)
        if e.d != 1:
            text += "/" + _int_str(e.d)
        for f in den:
            text += "/" + _wrap(f, _PREC_ATOM)
        return text, (_PREC_SUM if lead else _PREC_PROD)
    if isinstance(e, Pow):
        if e.exponent == Fraction(1, 2):
            return f"sqrt({_printed(e.base)[0]})", _PREC_ATOM
        btxt = _wrap(e.base, _PREC_ATOM)
        q = e.exponent
        qtxt = _frac_str(q) if q.denominator == 1 else f"({_frac_str(q)})"
        return f"{btxt}^{qtxt}", _PREC_POW
    return f"{e.name}({_printed(e.arg)[0]})", _PREC_ATOM


def _printed(e: Expr) -> tuple:
    """The (text, precedence) of a subexpression `e`, printed once for the
    life of the process and kept in its `cache` slot: a node shared by many
    parents, or met again in a later `to_dsl` call, is looked up, not
    printed again."""
    if e.cache is not None and _DSL_KEY in e.cache:
        return e.cache[_DSL_KEY]
    return _cache_put(e, _DSL_KEY, _print(e))


def _wrap(e: Expr, min_prec: int) -> str:
    text, prec = _printed(e)
    return f"({text})" if prec < min_prec else text


def to_dsl(e: Expr) -> str:
    """The text of e in the grammar parser.parse reads.  The nodes below e
    with no text yet are printed first, in serial order.  A product with a
    negative coefficient waits until it is read (a sum prints it without its
    sign); its children, like those of the nodes `_print` builds, are printed
    by then, so the printer never recurses.  The root's text is not kept."""
    for x in _reachable(e, lambda k: k.cache is not None and _DSL_KEY in k.cache):
        if x is not e and not (type(x) is Prod and x.n < 0):
            _printed(x)
    return _print(e)[0]
