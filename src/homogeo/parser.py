"""Recursive-descent parser for the expression DSL.

Grammar (EBNF, also documented in the README):

    expr     = term { ("+" | "-") term } ;
    term     = unary { ("*" | "/") unary } ;
    unary    = { "-" | "+" } power ;
    power    = atom [ "^" exponent ] ;
    exponent = [ "-" ] integer
             | "(" [ "-" ] integer [ "/" integer ] ")" ;
    atom     = number | ident | ident "(" expr ")" | "(" expr ")" ;
    number   = integer | integer "." digits ;

    Bare exponents are integers; fractional exponents must be
    parenthesized (x^(1/2)), since x^2/4 reads as (x^2)/4.

    Parentheses (grouping or a function's argument list) nest at most
    MAX_DEPTH deep; deeper input is a ParseError, since this descent
    parser recurses, about six frames per parenthesis level (the walkers
    of the expression kernel do not recurse).
    An exponent is at most MAX_EXPONENT in absolute value; a larger one is
    a ParseError, since substituting a rational point into x^1000003 takes
    minutes of exact arithmetic.  The cap holds for the literal and for the
    exponent the constructors fold: (x^10000)^10000 is x^100000000 and
    x^6000*x^6000 is x^12000, and both are ParseErrors.  So is a constant
    power, written or folded, of more than expr.MAX_CONSTANT_BITS = 2^20 bits:
    (10^10000)^10000 and ((3*x)^10000)^10000, refused before computing it.
    Every constant, parsed or folded, must print (expr.unprintable): at
    most sys.get_int_max_str_digits() digits (4300 by default) in its
    numerator and denominator.  A longer number token is a ParseError, and
    so is a folded one such as 10^5000, x*10^2500*10^2500 or x/10^5000.
    `parse` finds both kinds of folded fault on the result's tape
    (numtape.compile_tape), which holds every constant the printer
    prints: an unprintable constant, then an exponent over the cap.

Identifiers must be coordinates of the supplied chart or, without a
chart, among the supplied names; the function heads are exp, log, sqrt,
abs, sign, sin, cos.  ``sqrt(x)`` is sugar for ``x^(1/2)``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import expr as ex
from . import numtape

__all__ = ["parse", "ParseError", "UnknownIdentifierError", "FUNCTIONS",
           "MAX_DEPTH", "MAX_EXPONENT"]

FUNCTIONS = {"exp": ex.exp_, "log": ex.log_, "sqrt": ex.sqrt_,
             "abs": ex.abs_, "sign": ex.sign_, "sin": ex.sin_, "cos": ex.cos_}

MAX_DEPTH = 100
MAX_EXPONENT = 10 ** 4

_TOKEN = re.compile(r"\s*(?:(\d+\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownIdentifierError(ParseError):
    pass


class _Parser:
    """One text's tokens and the descent over them, a method per grammar
    rule; unlike closures, bound methods leave no cycle for the GC."""

    def __init__(self, text: str, allowed, where: str, digits: int):
        self.allowed = allowed
        self.where = where
        self.digits = digits
        self.depth = 0
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                stray = text[pos:].lstrip()
                if not stray:
                    break
                raise ParseError(f"unexpected character {stray[0]!r}",
                                 len(text) - len(stray))
            num, ident, op = m.groups()
            val = num or ident or op
            kind = "num" if num else "ident" if ident else "op"
            self.tokens.append((kind, val, m.end() - len(val)))
            pos = m.end()
        self.tokens.append(("end", "", len(text)))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r} but found {val!r}" if val
                             else f"expected {op!r} but input ended", pos)

    def number(self, val: str, pos: int) -> Fraction:
        # int() refuses a longer string, and the printer a longer constant
        if self.digits and len(val) - ("." in val) > self.digits:
            raise ParseError(f"number has more than {self.digits} digits", pos)
        return Fraction(val)

    def nested(self, pos: int) -> ex.Expr:
        """The expression inside a parenthesis opened at `pos`."""
        if self.depth == MAX_DEPTH:
            raise ParseError(f"parentheses nested more than {MAX_DEPTH} deep", pos)
        self.depth += 1
        inner = self.expr()
        self.depth -= 1
        self.expect_op(")")
        return inner

    def expr(self) -> ex.Expr:
        parts = [self.term()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                t = self.term()
                parts.append(t if val == "+" else ex.neg(t))
            else:
                return ex.add(*parts)

    def term(self) -> ex.Expr:
        out = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                out = ex.mul(out, rhs) if val == "*" else ex.div(out, rhs)
            else:
                return out

    def unary(self) -> ex.Expr:
        negate = False
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                if val == "-":
                    negate = not negate
            else:
                break
        out = self.power()
        return ex.neg(out) if negate else out

    def power(self) -> ex.Expr:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return ex.pw(base, self.exponent())
        return base

    def exponent(self) -> Fraction:
        # bare exponents are integers; fractional exponents need parens,
        # otherwise x^2/4 would be ambiguous with (x^2)/4
        kind, val, pos = self.peek()
        if kind == "op" and val == "(":
            self.next()
            q = self.signed_rational(allow_fraction=True)
            self.expect_op(")")
            return q
        return self.signed_rational(allow_fraction=False)

    def signed_rational(self, allow_fraction: bool) -> Fraction:
        sign = 1
        kind, val, start = self.peek()
        if kind == "op" and val == "-":
            self.next()
            sign = -1
        kind, val, pos = self.next()
        if kind != "num" or "." in val:
            raise ParseError(f"expected an integer exponent, found {val!r}", pos)
        q = sign * self.number(val, pos)
        kind, val, _ = self.peek()
        if allow_fraction and kind == "op" and val == "/":
            self.next()
            kind, val, pos = self.next()
            if kind != "num" or "." in val:
                raise ParseError(f"expected an integer denominator, found {val!r}", pos)
            q /= self.number(val, pos)
        if abs(q) > MAX_EXPONENT:
            raise ParseError(f"exponent {q} exceeds {MAX_EXPONENT} in absolute value",
                             start)
        return q

    def atom(self) -> ex.Expr:
        kind, val, pos = self.next()
        if kind == "num":
            return ex.rat(self.number(val, pos))
        if kind == "ident":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                if val not in FUNCTIONS:
                    raise UnknownIdentifierError(f"unknown function {val!r}", pos)
                _, _, paren = self.next()
                return FUNCTIONS[val](self.nested(paren))
            if val in FUNCTIONS:
                raise ParseError(f"function {val!r} needs an argument list", pos)
            if self.allowed is not None and val not in self.allowed:
                raise UnknownIdentifierError(
                    f"unknown identifier {val!r}; {self.where}", pos)
            return ex.var(val)
        if kind == "op" and val == "(":
            return self.nested(pos)
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def parse(text: str, chart=None, names: Optional[Sequence[str]] = None) -> ex.Expr:
    """Parse a DSL string into an Expr.

    Identifiers are validated against the chart's coordinates or, when
    no chart is given, against `names`.
    """
    allowed, where = None, ""
    if chart is not None:
        allowed = set(chart.coords)
        where = f"chart {chart.name!r} declares ({', '.join(chart.coords)})"
    elif names is not None:
        allowed = set(names)
        where = f"known names: ({', '.join(sorted(allowed))})"
    digits = sys.get_int_max_str_digits()
    p = _Parser(text, allowed, where, digits)
    try:
        out = p.expr()
    except ex.ConstantTooLargeError as err:
        raise ParseError(str(err), 0) from None
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {val!r}", pos)
    tape = numtape.compile_tape(out)
    if any(map(ex.unprintable, tape.exact)):
        raise ParseError(f"folded constant has more than {digits} digits", 0)
    for op, _, b in tape.code:
        if op == numtape.OP_POW and abs(tape.exact[b]) > MAX_EXPONENT:
            raise ParseError(f"folded exponent {tape.exact[b]} exceeds {MAX_EXPONENT} "
                             f"in absolute value", 0)
    return out
