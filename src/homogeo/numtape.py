"""Evaluation of expression DAGs on a flat tape.

An Expr, or a tuple of them (the roots), is compiled once into a flat
postfix tape: one tuple of (op, a, b) codes, without recursion: each node
reachable from the roots once, in the order of its expr `serial`, which
puts every child before its parent, and each distinct constant once.  The
tape records which code holds each root's value.  This is the only code
that evaluates an expression; every evaluator is a plain Python loop over
the codes, one pass per point:

* ``eval_tape`` evaluates it in floats with CPython's float arithmetic and
  ``math``, giving each root's value at each point.  ``+`` and ``*``
  follow IEEE-754; a ``math`` call that raises (a pole such as ``0^-2``, a
  domain error such as ``log(0)``, ``log(-1)``, a negative base to a
  fractional power or ``sin(inf)``, or an overflow such as ``exp(1000)``)
  makes the values at that point nan;
* ``eval_tape_mod`` evaluates a rational tape over GF(p) with Python ints,
  from the exact Fraction constants the tape keeps next to their floats,
  giving each root's residue at each point.  The zero test decides a
  rational query by its residues at uniform points, and the rest of a
  sweep (zerotest.all_zero) on one tape of several roots at one shared
  point sequence: a node the residuals share is evaluated once, and a
  pole anywhere on the tape skips the point;
* ``eval_tape_exact`` evaluates a rational tape at one point on exact
  (numerator, denominator) ints, from the same exact constants, and in
  the same pass bounds each value's bit length, so that a root past a
  budget reads None and is never computed.  The zero test evaluates its
  witness on the tape it compiled for the query, and the rational values
  of zerotest.sample_values on one tape of several roots.

``degree_bound`` is one more pass over a rational tape: a bound on the
numerator degree of its value (the largest of its roots'), from which
the zero test sets how many uniform points decide a rational query.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Mapping, Optional, Sequence

from . import expr as ex

__all__ = ["Tape", "compile_tape", "eval_tape", "eval_tape_mod",
           "degree_bound", "eval_tape_exact"]

OP_CONST, OP_VAR, OP_ADD, OP_MUL, OP_POW, OP_EXP, OP_LOG, OP_ABS, OP_SIGN, \
    OP_SIN, OP_COS = range(11)


class Tape:
    """`code` holds (op, a, b) triples in serial order: one per variable,
    power or function node, one ADD or MUL per further term, factor or
    constant of a sum or product, and one OP_CONST per distinct constant
    loaded; a and b index earlier codes, a constant, a variable of
    `varnames` or nothing (-1), by op.  `consts` holds each distinct
    constant once as a float for eval_tape; `exact` holds the same
    constants as Fractions for eval_tape_mod and eval_tape_exact.
    `roots` holds the index of the code that holds each root's value, in
    the order the roots were given; one root's is the last code."""

    __slots__ = ("code", "consts", "exact", "varnames", "roots")

    def __init__(self, code, consts, exact, varnames, roots):
        self.code = code
        self.consts = consts
        self.exact = exact
        self.varnames = varnames
        self.roots = roots

    def __len__(self):
        return len(self.code)


_FUN_OPS = {"exp": OP_EXP, "log": OP_LOG, "abs": OP_ABS,
            "sign": OP_SIGN, "sin": OP_SIN, "cos": OP_COS}


def _to_float(q: Fraction) -> float:
    """q as a float; beyond the float range, the infinity of q's sign, so
    the tape still compiles and the float evaluator finds no finite point."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def compile_tape(e, varnames: Sequence[str] | None = None) -> Tape:
    """Flatten an expression DAG, or the union of the DAGs of a tuple of
    roots, into one tape in two steps: collect the reachable nodes
    (expr._reachable), then emit them by serial, so a node the roots share
    is one code.  A sum or product is a chain of ADD or MUL codes over its
    terms or factors in their order, then its constant, so every value is
    the one a tree walk computes.  Constants are pooled by identity: expr
    keeps one Fraction per value.  `varnames` defaults to the roots' free
    variables, sorted."""
    roots = (e,) if isinstance(e, ex.Expr) else tuple(e)
    if varnames is None:
        varnames = sorted(set().union(*(r.free for r in roots)))
    index = {name: i for i, name in enumerate(varnames)}
    Sum, Prod, Pow, Fun, Rat, Var = ex.Sum, ex.Prod, ex.Pow, ex.Fun, ex.Rat, ex.Var
    code: list = []
    slot: dict = {}     # id of a constant -> (its index in `exact`, it)
    load: dict = {}     # id of a constant -> its OP_CONST code

    def const(q: Fraction) -> int:
        return slot.setdefault(id(q), (len(slot), q))[0]

    def load_const(q: Fraction) -> int:
        c = load.get(id(q))
        if c is None:
            c = load[id(q)] = len(code)
            code.append((OP_CONST, const(q), -1))
        return c

    at: dict = {}       # serial -> the code holding that node's value
    for x in ex._reachable(roots):
        cls = type(x)
        if cls is Sum or cls is Prod:
            if cls is Sum:
                op, parts, c = OP_ADD, x.terms, x.const if x.n else None
            else:
                op, parts, c = OP_MUL, x.factors, x.coeff if x.n != x.d else None
            out = at[parts[0].serial]
            for t in parts[1:]:
                code.append((op, out, at[t.serial]))
                out = len(code) - 1
            if c is not None:
                code.append((op, out, load_const(c)))
                out = len(code) - 1
        elif cls is Rat:
            out = load_const(x.value)
        else:
            if cls is Var:
                code.append((OP_VAR, index[x.name], -1))
            elif cls is Pow:
                code.append((OP_POW, at[x.base.serial], const(x.exponent)))
            else:
                code.append((_FUN_OPS[x.name], at[x.arg.serial], -1))
            out = len(code) - 1
        at[x.serial] = out
    exact = tuple(q for _, q in slot.values())
    return Tape(tuple(code), tuple(map(_to_float, exact)), exact, tuple(varnames),
                tuple(at[r.serial] for r in roots))


def _sign(x: float) -> float:
    return x if x != x else float((x > 0) - (x < 0))   # nan stays nan


_FLOAT_FUNCS = {OP_EXP: math.exp, OP_LOG: math.log, OP_ABS: abs,
                OP_SIGN: _sign, OP_SIN: math.sin, OP_COS: math.cos}


def eval_tape(tape: Tape, points: Sequence[Mapping[str, object]]) -> List[float]:
    """Float value of each root at each point, a mapping of tape.varnames
    to numbers, point by point (one value per point for one root):
    IEEE-754 `+` and `*`, and nan at a point where a `math` call raises (a
    pole, a domain error or an overflow)."""
    consts, roots = tape.consts, tape.roots
    out: List[float] = []
    for pt in points:
        coords = [float(pt[name]) for name in tape.varnames]
        buf: list = []
        try:
            for op, a, b in tape.code:
                if op == OP_MUL:
                    buf.append(buf[a] * buf[b])
                elif op == OP_ADD:
                    buf.append(buf[a] + buf[b])
                elif op == OP_CONST:
                    buf.append(consts[a])
                elif op == OP_VAR:
                    buf.append(coords[a])
                elif op == OP_POW:
                    buf.append(math.pow(buf[a], consts[b]))
                else:
                    buf.append(_FLOAT_FUNCS[op](buf[a]))
        except (ValueError, OverflowError):
            out.extend([math.nan] * len(roots))
        else:
            out.extend([buf[r] for r in roots])
    return out


def _residue(q: Fraction, p: int) -> Optional[int]:
    """q mod p, or None when p divides the denominator."""
    if q.denominator == 1:
        return q.numerator % p
    d = q.denominator % p
    return None if d == 0 else q.numerator * pow(d, -1, p) % p


def eval_tape_mod(tape: Tape, points: Sequence[Mapping[str, Fraction]],
                  p: int) -> List[Optional[int]]:
    """Evaluate a rational tape over GF(p), p prime, at exact rational points.

    Returns each root's residue at each point, point by point (one per
    point for one root), or None for every root of a point where reduction
    mod p is not defined anywhere on the tape: a constant or coordinate
    denominator, or the base of a negative power, is divisible by p.  A
    residue is the exact value mod p, so a nonzero residue proves the exact
    value nonzero.  Raises DomainError on a non-rational tape (functions or
    fractional powers)."""
    roots = tape.roots
    consts = [_residue(c, p) for c in tape.exact]
    if None in consts:
        return [None] * (len(points) * len(roots))
    exps = [c.numerator if c.denominator == 1 else None for c in tape.exact]
    out: List[Optional[int]] = []
    for pt in points:
        coords = [_residue(pt[name], p) for name in tape.varnames]
        if None in coords:
            out.extend([None] * len(roots))
            continue
        buf: list = []
        for op, a, b in tape.code:
            if op == OP_MUL:
                buf.append(buf[a] * buf[b] % p)
            elif op == OP_ADD:
                buf.append((buf[a] + buf[b]) % p)
            elif op == OP_CONST:
                buf.append(consts[a])
            elif op == OP_VAR:
                buf.append(coords[a])
            elif op == OP_POW and exps[b] is not None:
                if exps[b] < 0 and buf[a] == 0:
                    out.extend([None] * len(roots))    # a pole mod p
                    break
                buf.append(pow(buf[a], exps[b], p))
            else:
                raise ex.DomainError("tape is not rational-exact")
        else:
            out.extend([buf[r] for r in roots])
    return out


def degree_bound(tape: Tape) -> int:
    """A bound on the total degree of the numerator N of a rational tape's
    value, written as one fraction N/D, in one pass over degrees (n, d): a
    variable is (1, 0), a constant (0, 0), n1/d1 + n2/d2 gives
    (max(n1 + d2, n2 + d1), d1 + d2), a product adds the degrees, and a
    power ^k scales them by |k|, swapping them for k < 0.  On a tape of
    several roots the result is the largest of the roots' bounds."""
    exact = tape.exact
    num: list = []
    den: list = []
    for op, a, b in tape.code:
        if op == OP_CONST:
            n, d = 0, 0
        elif op == OP_VAR:
            n, d = 1, 0
        elif op == OP_ADD:
            n, d = max(num[a] + den[b], num[b] + den[a]), den[a] + den[b]
        elif op == OP_MUL:
            n, d = num[a] + num[b], den[a] + den[b]
        elif op == OP_POW and exact[b].denominator == 1:
            k = exact[b].numerator
            n, d = (k * num[a], k * den[a]) if k >= 0 else (-k * den[a], -k * num[a])
        else:
            raise ex.DomainError("tape is not rational-exact")
        num.append(n)
        den.append(d)
    return max(num[r] for r in tape.roots)


def eval_tape_exact(tape: Tape, point: Mapping[str, Fraction],
                    budget: Optional[int] = None) -> List[Optional[Fraction]]:
    """Exact value of each root of a rational tape at one rational point,
    in one pass on (numerator, denominator) ints, reduced by gcd as
    Fraction reduces them.  The pass also bounds each value's bit lengths
    (n, d) as degree_bound bounds degrees, with a constant or coordinate
    giving those of its numerator and denominator and a sum adding 1 to n.
    No rule shrinks a size (no power is ^0), so max(n, d) of a root bounds
    every value on the way to it.  A root reads None where it meets a pole
    (0^-k) or where that size passes `budget`, and no value past it is
    computed.  Raises DomainError on a non-rational tape."""
    exact, gcd = tape.exact, math.gcd
    limit = math.inf if budget is None else budget
    coords = [Fraction(point[name]) for name in tape.varnames]
    num: list = []      # numerators, None where the value is not computed
    den: list = []
    sn: list = []       # bit sizes of the unreduced numerator and denominator
    sd: list = []
    for op, a, b in tape.code:
        if op == OP_ADD:
            n1, n2 = num[a], num[b]
            s, t = max(sn[a] + sd[b], sn[b] + sd[a]) + 1, sd[a] + sd[b]
            if n1 is None or n2 is None or s > limit or t > limit:
                n = d = None
            else:
                d1, d2 = den[a], den[b]
                g = gcd(d1, d2)
                if g == 1:
                    n, d = n1 * d2 + n2 * d1, d1 * d2
                else:
                    d1 //= g
                    n = n1 * (d2 // g) + n2 * d1
                    g = gcd(n, g)
                    n, d = n // g, d1 * (d2 // g)
        elif op == OP_MUL:
            n1, n2 = num[a], num[b]
            s, t = sn[a] + sn[b], sd[a] + sd[b]
            if n1 is None or n2 is None or s > limit or t > limit:
                n = d = None
            else:
                d1, d2 = den[a], den[b]
                g1, g2 = gcd(n1, d2), gcd(n2, d1)
                n, d = (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)
        elif op == OP_CONST or op == OP_VAR:
            q = exact[a] if op == OP_CONST else coords[a]
            n, d = q.numerator, q.denominator
            s, t = n.bit_length(), d.bit_length()
            if s > limit or t > limit:
                n = d = None
        elif op == OP_POW and exact[b].denominator == 1:
            k, n1 = exact[b].numerator, num[a]
            s, t = (k * sn[a], k * sd[a]) if k >= 0 else (-k * sd[a], -k * sn[a])
            if n1 is None or s > limit or t > limit or (k < 0 and n1 == 0):
                n = d = None
            elif k >= 0:
                n, d = n1 ** k, den[a] ** k
            else:
                n, d = den[a] ** -k, n1 ** -k
                if d < 0:
                    n, d = -n, -d
        else:
            raise ex.DomainError("tape is not rational-exact")
        num.append(n)
        den.append(d)
        sn.append(s)
        sd.append(t)
    return [None if num[r] is None else Fraction(num[r], den[r]) for r in tape.roots]
