"""Immutable symbolic expression trees over chart coordinates.

The node inventory is deliberately small: exact rational constants,
variables, n-ary sums and products, powers with a rational exponent, and
the function heads exp/log/abs/sign/sin/cos (sqrt is parsed and printed as
sugar for the 1/2 power).  All constructors canonicalize lightly (constant
folding, flattening, like-term and like-base collection) and intern the
resulting node, so structurally equal expressions are the *same* object.
Heavy canonical simplification is intentionally absent; identity checking
is the zero test's job (see zerotest.py).

Because a node is immutable and stays interned for the life of the
process, `simplify` and `diff` keep their results on the node itself (the
`cache` slot), keyed by the constraints and, for `diff`, the variable.  A
later call on a shared subtree is a lookup, not a walk.  An exception such
as DomainError is never cached.  The printer keeps the text of every
subexpression it prints in the same slot, so `to_dsl` prints each node
once per process; only the root's text, the largest and rarely printed
again, is not kept.

The intern keys hold a coefficient or exponent as its numerator and
denominator ints, not as a Fraction, which keeps hashing them cheap.

The walkers are recursive.  Under Python's default recursion limit of
1000, `to_dsl` (and so every sampled zero test) handled 498 nested
function heads or 284 nested alternating sums and products, and
`simplify`, `diff` and `subs` about twice as deep (Python 3.11.7); deeper
expressions built in code raise RecursionError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .ratmat import rroot

__all__ = [
    "Expr", "Rat", "Var", "Sum", "Prod", "Pow", "Fun",
    "Constraint", "DomainError", "ConstantTooLargeError", "MAX_CONSTANT_BITS",
    "rat", "var", "add", "mul", "neg", "sub", "div", "pw",
    "exp_", "log_", "sqrt_", "abs_", "sign_", "sin_", "cos_",
    "ZERO", "ONE",
    "subs", "diff", "simplify", "sign_of",
    "eval_exact", "to_dsl",
]

Rational = Union[int, Fraction]

_FUN_NAMES = ("exp", "log", "abs", "sign", "sin", "cos")

_MASK = (1 << 64) - 1

# `pw` refuses to raise a constant to a power with more bits than this
MAX_CONSTANT_BITS = 1 << 20

# shared coefficients for the constructors' accumulators
_F0 = Fraction(0)
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


class ConstantTooLargeError(OverflowError):
    """A constant power would have more than MAX_CONSTANT_BITS bits."""


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
    """Base node.  Instances are interned: structural equality is identity."""

    __slots__ = ("shash", "free", "rational", "size", "cache")

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, q):
        return pw(self, q)

    # == is identity (interning makes it structural); the structural hash
    # keeps the order of sets of nodes the same in every run
    def __hash__(self):
        return self.shash

    def __repr__(self):
        return to_dsl(self)

    def is_zero_literal(self) -> bool:
        return isinstance(self, Rat) and self.value == 0


class Rat(Expr):
    __slots__ = ("value",)


class Var(Expr):
    __slots__ = ("name",)


class Sum(Expr):
    """const + term1 + term2 + ...; terms are not Rat/Sum and have distinct cores."""

    __slots__ = ("const", "terms")


class Prod(Expr):
    """coeff * factor1 * ...; factors are not Rat/Prod, bases pairwise distinct."""

    __slots__ = ("coeff", "factors")


class Pow(Expr):
    """base ** exponent with a rational exponent other than 0 and 1."""

    __slots__ = ("base", "exponent")


class Fun(Expr):
    __slots__ = ("name", "arg")


# ---------------------------------------------------------------------------
# interning

_INTERN: dict = {}


def _finish(node: Expr, key, shash: int, free: frozenset, rational: bool, size: int) -> Expr:
    node.shash = shash
    node.free = free
    node.rational = rational
    node.size = size
    node.cache = None   # results of simplify/diff, see _cache_put
    _INTERN[key] = node
    return node


def rat(q: Rational) -> Rat:
    if type(q) is not Fraction:
        q = Fraction(q)
    n, d = q.numerator, q.denominator
    key = ("R", n, d)
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = Rat.__new__(Rat)
    node.value = q
    return _finish(node, key, _fnv((1, n, d)), frozenset(), True, 1)


def var(name: str) -> Var:
    key = ("V", name)
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = Var.__new__(Var)
    node.name = name
    return _finish(node, key, _fnv((2, _strhash(name))), frozenset((name,)), True, 1)


ZERO = rat(_F0)
ONE = rat(_F1)


def _qadd(a: Fraction, b: Fraction) -> Fraction:
    """a + b, with no new Fraction when either term is the shared 0."""
    if a is _F0:
        return b
    if b is _F0:
        return a
    return a + b


def _qmul(a: Fraction, b: Fraction) -> Fraction:
    """a * b, with no new Fraction when either factor is the shared 1."""
    if a is _F1:
        return b
    if b is _F1:
        return a
    return a * b


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return rat(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


def _term_core(t: Expr):
    """Split a summand into (rational coefficient, coefficient-free core)."""
    if isinstance(t, Prod):
        if t.coeff == 1:
            return _F1, t
        return t.coeff, _make_prod(_F1, t.factors)
    return _F1, t


def _factor_base(f: Expr):
    """Split a product factor into (base, rational exponent)."""
    if isinstance(f, Pow):
        return f.base, f.exponent
    return f, _F1


def _sorted_nodes(nodes):
    return tuple(sorted(nodes, key=lambda n: n.shash))


def _make_sum(const: Fraction, terms: tuple) -> Expr:
    if not terms:
        return rat(const)
    if const == 0 and len(terms) == 1:
        return terms[0]
    n, d = const.numerator, const.denominator
    key = ("S", n, d, *[id(t) for t in terms])
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = Sum.__new__(Sum)
    node.const = const
    node.terms = terms
    shash = _fnv((3, n, d, *(t.shash for t in terms)))
    free = frozenset().union(*(t.free for t in terms))
    rational = all(t.rational for t in terms)
    size = 1 + sum(t.size for t in terms)
    return _finish(node, key, shash, free, rational, size)


def add(*xs) -> Expr:
    const = _F0
    acc: dict = {}   # core -> coeff (insertion ordered)
    for x in xs:
        x = _coerce(x)
        if isinstance(x, Rat):
            const = _qadd(const, x.value)
        elif isinstance(x, Sum):
            const = _qadd(const, x.const)
            for t in x.terms:
                c, core = _term_core(t)
                acc[core] = _qadd(acc.get(core, _F0), c)
        else:
            c, core = _term_core(x)
            acc[core] = _qadd(acc.get(core, _F0), c)
    terms = []
    for core, c in acc.items():
        if c == 0:
            continue
        terms.append(core if c == 1 else _scale(core, c))
    return _make_sum(const, _sorted_nodes(terms))


def _scale(core: Expr, c: Fraction) -> Expr:
    if isinstance(core, Prod):
        return _make_prod(_qmul(c, core.coeff), core.factors)
    if isinstance(core, Sum):
        return mul(rat(c), core)
    return _make_prod(c, (core,))


def _make_prod(coeff: Fraction, factors: tuple) -> Expr:
    if coeff == 0:
        return ZERO
    if not factors:
        return rat(coeff)
    if len(factors) == 1 and coeff == 1:
        return factors[0]
    n, d = coeff.numerator, coeff.denominator
    key = ("P", n, d, *[id(f) for f in factors])
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = Prod.__new__(Prod)
    node.coeff = coeff
    node.factors = factors
    shash = _fnv((4, n, d, *(f.shash for f in factors)))
    free = frozenset().union(*(f.free for f in factors))
    rational = all(f.rational for f in factors)
    size = 1 + sum(f.size for f in factors)
    return _finish(node, key, shash, free, rational, size)


def mul(*xs) -> Expr:
    coeff = _F1
    acc: dict = {}   # base -> exponent
    stack = [_coerce(x) for x in xs]

    def put(base, q):
        nonlocal coeff
        if isinstance(base, Rat):
            if q.denominator == 1:
                coeff_part = base.value ** q.numerator if base.value != 0 or q >= 0 else None
                if coeff_part is None:
                    raise ZeroDivisionError("0 raised to a negative power")
                coeff = _qmul(coeff, coeff_part)  # exact
                return
        acc[base] = _qadd(acc.get(base, _F0), q)

    for x in stack:
        if isinstance(x, Rat):
            coeff = _qmul(coeff, x.value)
        elif isinstance(x, Prod):
            coeff = _qmul(coeff, x.coeff)
            for f in x.factors:
                b, q = _factor_base(f)
                put(b, q)
        else:
            b, q = _factor_base(x)
            put(b, q)
    if coeff == 0:
        return ZERO
    factors = []
    for base, q in acc.items():
        if q == 0:
            continue
        factors.append(pw(base, q))
    # pw may have folded to Rat or nested products; re-run once if so
    if any(isinstance(f, (Rat, Prod)) for f in factors):
        flat = [rat(coeff)] + factors
        coeff = _F1
        redo: dict = {}
        for f in flat:
            if isinstance(f, Rat):
                coeff = _qmul(coeff, f.value)
            elif isinstance(f, Prod):
                coeff = _qmul(coeff, f.coeff)
                for g in f.factors:
                    b, q = _factor_base(g)
                    redo[b] = _qadd(redo.get(b, _F0), q)
            else:
                b, q = _factor_base(f)
                redo[b] = _qadd(redo.get(b, _F0), q)
        factors = [pw(b, q) for b, q in redo.items() if q != 0]
        if coeff == 0:
            return ZERO
    if len(factors) == 1 and coeff != 1 and isinstance(factors[0], Sum):
        # distribute rational coefficients over sums so that negated or
        # scaled sums cancel structurally
        s = factors[0]
        parts = [rat(coeff * s.const)]
        for t in s.terms:
            c0, core = _term_core(t)
            parts.append(_scale(core, coeff * c0))
        return add(*parts)
    return _make_prod(coeff, _sorted_nodes(factors))


def neg(x) -> Expr:
    return mul(rat(-1), _coerce(x))


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
    if q == 0:
        return ONE
    if q == 1:
        return base
    if isinstance(base, Rat):
        v = base.value
        if q.denominator == 1:
            if v == 0 and q < 0:
                raise ZeroDivisionError("0 raised to a negative power")
            return rat(_qpow(v, q.numerator))
        if v == 0:
            return ZERO  # q > 0 here since q != 0 and 0**neg raised above
        if v > 0:
            root = rroot(v, q.denominator)
            if root is not None:
                return rat(_qpow(root, q.numerator))
    if isinstance(base, Pow):
        if q.denominator == 1 or _syntactic_pos(base.base):
            return pw(base.base, base.exponent * q)
    if isinstance(base, Prod) and q.denominator == 1:
        return mul(rat(_qpow(base.coeff, q.numerator)), *[pw(f, q) for f in base.factors])
    n, d = q.numerator, q.denominator
    key = ("W", id(base), n, d)
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = Pow.__new__(Pow)
    node.base = base
    node.exponent = q
    shash = _fnv((5, n, d, base.shash))
    return _finish(node, key, shash, base.free, base.rational and d == 1, base.size + 1)


def _make_fun(name: str, arg: Expr) -> Expr:
    key = (name, id(arg))
    hit = _INTERN.get(key)
    if hit is not None:
        return hit
    node = Fun.__new__(Fun)
    node.name = name
    node.arg = arg
    shash = _fnv((6, _strhash(name), arg.shash))
    return _finish(node, key, shash, arg.free, False, arg.size + 1)


def _negated(x: Expr) -> Optional[Expr]:
    """If x is syntactically -(y) with a negative rational coefficient, return y."""
    if isinstance(x, Rat) and x.value < 0:
        return rat(-x.value)
    if isinstance(x, Prod) and x.coeff < 0:
        return _make_prod(-x.coeff, x.factors)
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
    if _syntactic_nonneg(x):
        return x
    n = _negated(x)
    if n is not None:
        return abs_(n)
    if isinstance(x, Fun) and x.name == "abs":
        return x
    return _make_fun("abs", x)


def sign_(x) -> Expr:
    x = _coerce(x)
    if isinstance(x, Rat):
        if x.value == 0:
            raise DomainError("sign(0) is undefined")
        return rat(1 if x.value > 0 else -1)
    if _syntactic_pos(x):
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
# syntactic sign information (no constraints involved)

def _syntactic_pos(x: Expr) -> bool:
    if isinstance(x, Rat):
        return x.value > 0
    if isinstance(x, Fun):
        return x.name == "exp"
    if isinstance(x, Pow):
        return _syntactic_pos(x.base)
    if isinstance(x, Prod):
        return x.coeff > 0 and all(_syntactic_pos(f) for f in x.factors)
    if isinstance(x, Sum):
        return x.const > 0 and all(_syntactic_pos(t) for t in x.terms)
    return False


def _syntactic_nonneg(x: Expr) -> bool:
    if isinstance(x, Rat):
        return x.value >= 0
    if isinstance(x, Fun):
        return x.name in ("exp", "abs")
    if isinstance(x, Pow):
        if _syntactic_pos(x.base):
            return True
        return x.exponent.denominator == 1 and x.exponent.numerator % 2 == 0
    if isinstance(x, Prod):
        return x.coeff >= 0 and all(_syntactic_nonneg(f) for f in x.factors)
    if isinstance(x, Sum):
        return x.const >= 0 and all(_syntactic_nonneg(t) for t in x.terms)
    return False


# sign lattice: "+" / "-" strictly signed, "0" zero, "0+" / "0-" weakly
# signed, None unknown
_NEG_CLASS = {"+": "-", "-": "+", "0": "0", "0+": "0-", "0-": "0+", None: None}


def _sign_class(x: Expr, lo, hi) -> Optional[str]:
    if isinstance(x, Rat):
        return "0" if x.value == 0 else ("+" if x.value > 0 else "-")
    if isinstance(x, Var):
        if x.name in lo and lo[x.name] >= 0:
            return "+"
        if x.name in hi and hi[x.name] <= 0:
            return "-"
        return None
    if isinstance(x, Prod):
        s = "+" if x.coeff > 0 else "-"
        for f in x.factors:
            fs = _sign_class(f, lo, hi)
            if fs is None:
                return None
            if fs == "0":
                return "0"
            if fs in ("0+", "0-"):
                s = {"+": "0+", "-": "0-"}[s] if fs == "0+" else \
                    {"+": "0-", "-": "0+"}[s]
            elif fs == "-":
                s = _NEG_CLASS[s]
        return s
    if isinstance(x, Pow):
        bs = _sign_class(x.base, lo, hi)
        q = x.exponent
        if q.denominator == 1 and q.numerator % 2 == 0:
            if bs in ("+", "-"):
                return "+"
            if bs == "0":
                return "0"
            return "0+"
        if bs == "+":
            return "+"
        if bs == "0+" and q > 0:
            return "0+"
        if bs == "-" and q.denominator == 1:
            return "-" if q.numerator % 2 else "+"
        if bs == "0" and q > 0:
            return "0"
        return None
    if isinstance(x, Sum):
        classes = ["0" if x.const == 0 else ("+" if x.const > 0 else "-")]
        classes += [_sign_class(t, lo, hi) for t in x.terms]
        if None in classes:
            return None
        if all(c in ("+", "0+", "0") for c in classes):
            if "+" in classes:
                return "+"
            return "0" if all(c == "0" for c in classes) else "0+"
        if all(c in ("-", "0-", "0") for c in classes):
            if "-" in classes:
                return "-"
            return "0" if all(c == "0" for c in classes) else "0-"
        return None
    if isinstance(x, Fun):
        if x.name == "exp":
            return "+"
        if x.name == "abs":
            s = _sign_class(x.arg, lo, hi)
            if s in ("+", "-"):
                return "+"
            if s == "0":
                return "0"
            return "0+"
        if x.name == "sign":
            s = _sign_class(x.arg, lo, hi)
            return s if s in ("+", "-", "0", None) else None
        return None  # log/sin/cos need magnitudes, not just signs
    return None


def sign_of(x: Expr, constraints: Iterable[Constraint] = ()) -> Optional[int]:
    """Strict sign (+1, -1, 0) of x when the constraints determine it."""
    lo: dict = {}
    hi: dict = {}
    for c in constraints:
        if c.op == ">":
            lo[c.name] = max(lo.get(c.name, c.bound), c.bound)
        elif c.op == "<":
            hi[c.name] = min(hi.get(c.name, c.bound), c.bound)
    cls = _sign_class(x, lo, hi)
    return {"+": 1, "-": -1, "0": 0}.get(cls)


# ---------------------------------------------------------------------------
# structural walks

def subs(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of variables by expressions."""
    if not (e.free & mapping.keys()):
        return e
    memo: dict = {}

    def rec(x: Expr) -> Expr:
        if not (x.free & mapping.keys()):
            return x
        hit = memo.get(id(x))
        if hit is not None:
            return hit
        if isinstance(x, Var):
            out = mapping.get(x.name, x)
        elif isinstance(x, Sum):
            out = add(rat(x.const), *[rec(t) for t in x.terms])
        elif isinstance(x, Prod):
            out = mul(rat(x.coeff), *[rec(f) for f in x.factors])
        elif isinstance(x, Pow):
            out = pw(rec(x.base), x.exponent)
        else:
            out = _FUN_MAKERS[x.name](rec(x.arg))
        memo[id(x)] = out
        return out

    return rec(e)


def _cache_put(x: Expr, key: tuple, out: Expr) -> Expr:
    """Keep `out` as x's result for `key`.  Keys are ("simplify",
    constraints) or ("diff", variable, constraints), and the printer keeps
    its text under ("dsl",) (see _printed): the lengths differ, so no two
    kinds collide."""
    if x.cache is None:
        x.cache = {key: out}
    else:
        x.cache[key] = out
    return out


def diff(e: Expr, v: str, constraints: Iterable[Constraint] = ()) -> Expr:
    """Exact partial derivative with respect to the variable named v.

    abs/sign arguments must be sign-definite under the constraints,
    otherwise a DomainError is raised.  Results are cached on each interned
    node for the life of the process, keyed by (v, constraints); an
    exception is not cached.
    """
    constraints = tuple(constraints)
    key = ("diff", v, constraints)

    def rec(x: Expr) -> Expr:
        if v not in x.free:
            return ZERO
        if x.cache is not None:
            hit = x.cache.get(key)
            if hit is not None:
                return hit
        if isinstance(x, Var):
            out = ONE
        elif isinstance(x, Sum):
            out = add(*[rec(t) for t in x.terms])
        elif isinstance(x, Prod):
            parts = []
            facs = list(x.factors)
            for i, f in enumerate(facs):
                dfi = rec(f)
                if dfi.is_zero_literal():
                    continue
                parts.append(mul(rat(x.coeff), dfi, *[g for j, g in enumerate(facs) if j != i]))
            out = add(*parts) if parts else ZERO
        elif isinstance(x, Pow):
            out = mul(rat(x.exponent), pw(x.base, x.exponent - 1), rec(x.base))
        else:
            a = x.arg
            da = rec(a)
            if x.name == "exp":
                out = mul(x, da)
            elif x.name == "log":
                out = mul(pw(a, Fraction(-1)), da)
            elif x.name == "sin":
                out = mul(cos_(a), da)
            elif x.name == "cos":
                out = neg(mul(sin_(a), da))
            elif x.name == "abs":
                s = sign_of(a, constraints)
                if s is None or s == 0:
                    raise DomainError(
                        f"cannot differentiate abs({to_dsl(a)}): argument sign is not "
                        f"fixed by the domain constraints")
                out = mul(rat(s), da)
            else:  # sign
                s = sign_of(a, constraints)
                if s is None or s == 0:
                    raise DomainError(
                        f"cannot differentiate sign({to_dsl(a)}): argument sign is not "
                        f"fixed by the domain constraints")
                out = ZERO
        return _cache_put(x, key, out)

    return rec(e)


def simplify(e: Expr, constraints: Iterable[Constraint] = ()) -> Expr:
    """Rebuild through the canonicalizing constructors and resolve
    abs/sign/fractional powers on sign-definite subexpressions.

    Results are cached on each interned node for the life of the process,
    keyed by the constraints; an exception is not cached."""
    constraints = tuple(constraints)
    key = ("simplify", constraints)

    def rec(x: Expr) -> Expr:
        if isinstance(x, (Rat, Var)):
            return x
        if x.cache is not None:
            hit = x.cache.get(key)
            if hit is not None:
                return hit
        if isinstance(x, Sum):
            out = add(rat(x.const), *[rec(t) for t in x.terms])
        elif isinstance(x, Prod):
            out = mul(rat(x.coeff), *[rec(f) for f in x.factors])
        elif isinstance(x, Pow):
            base = rec(x.base)
            if x.exponent.denominator != 1 and isinstance(base, Prod):
                # distribute fractional powers over positive factors
                pieces = [rat(base.coeff)] + list(base.factors)
                if all(sign_of(p, constraints) == 1 for p in pieces):
                    out = mul(*[pw(p, x.exponent) for p in pieces])
                else:
                    out = pw(base, x.exponent)
            elif isinstance(base, Pow) and sign_of(base.base, constraints) == 1:
                out = pw(base.base, base.exponent * x.exponent)
            else:
                out = pw(base, x.exponent)
        else:
            a = rec(x.arg)
            if x.name == "abs":
                s = sign_of(a, constraints)
                if s == 1:
                    out = a
                elif s == -1:
                    out = neg(a)
                else:
                    out = abs_(a)
            elif x.name == "sign":
                s = sign_of(a, constraints)
                out = rat(s) if s in (1, -1) else sign_(a)
            elif x.name == "log":
                out = _log_expand(a, constraints)
            else:
                out = _FUN_MAKERS[x.name](a)
        return _cache_put(x, key, out)

    return rec(e)


def _log_expand(a: Expr, constraints) -> Expr:
    """log over positive factors and powers (valid on the principal branch)."""
    if isinstance(a, Prod):
        pieces = [rat(a.coeff)] + list(a.factors)
        if all(sign_of(p, constraints) == 1 for p in pieces):
            return add(*[_log_expand(p, constraints) for p in pieces])
    if isinstance(a, Pow) and sign_of(a.base, constraints) == 1:
        return mul(rat(a.exponent), _log_expand(a.base, constraints))
    return log_(a)


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


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _print(e: Expr) -> tuple:
    """Return (text, precedence)."""
    if isinstance(e, Rat):
        if e.value.denominator == 1:
            text = str(e.value.numerator)
            return text, (_PREC_ATOM if e.value >= 0 else _PREC_SUM)
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
        for f in e.factors:
            b, q = _factor_base(f)
            (den if q < 0 else num).append(pw(b, abs(q)))
        c = e.coeff
        lead = ""
        if c < 0:
            lead = "-"
            c = -c
        num_parts = []
        if c.numerator != 1 or not num:
            num_parts.append(str(c.numerator))
        num_parts += [_wrap(f, _PREC_POW) for f in num]
        text = lead + "*".join(num_parts)
        if c.denominator != 1:
            den_first = str(c.denominator)
            text += "/" + den_first
        for f in den:
            text += "/" + _wrap(f, _PREC_ATOM)
        return text, (_PREC_SUM if lead else _PREC_PROD)
    if isinstance(e, Pow):
        if e.exponent == Fraction(1, 2):
            return f"sqrt({_printed(e.base)[0]})", _PREC_ATOM
        btxt = _wrap(e.base, _PREC_ATOM)
        q = e.exponent
        qtxt = str(q.numerator) if q.denominator == 1 else f"({_frac_str(q)})"
        return f"{btxt}^{qtxt}", _PREC_POW
    return f"{e.name}({_printed(e.arg)[0]})", _PREC_ATOM


def _printed(e: Expr) -> tuple:
    """The (text, precedence) of a subexpression `e`, printed once for the
    life of the process and kept in its `cache` slot: a node shared by many
    parents, or met again in a later `to_dsl` call, is looked up, not
    printed again.  `to_dsl` prints its root with `_print` and does not
    keep that text: a query root is rarely printed twice, and its text is
    the largest of all, so keeping it would cost memory for no speed."""
    cache = e.cache
    if cache is None:
        cache = e.cache = {}
    hit = cache.get(_DSL_KEY)
    if hit is None:
        hit = cache[_DSL_KEY] = _print(e)
    return hit


def _wrap(e: Expr, min_prec: int) -> str:
    text, prec = _printed(e)
    return f"({text})" if prec < min_prec else text


def to_dsl(e: Expr) -> str:
    return _print(e)[0]
