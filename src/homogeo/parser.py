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
    MAX_DEPTH deep; deeper input is a ParseError, since the recursive
    walkers of the expression kernel would overflow the stack on it.
    An exponent is at most MAX_EXPONENT in absolute value; a larger one is
    a ParseError, since substituting a rational point into x^1000003 takes
    minutes of exact arithmetic.  The cap holds for the literal and for the
    exponent the constructors fold: (x^10000)^10000 is x^100000000 and
    x^6000*x^6000 is x^12000, and both are ParseErrors.  So is a constant
    power, written or folded, of more than MAX_CONSTANT_BITS = 2^20 bits:
    (10^10000)^10000 and ((3*x)^10000)^10000, refused before computing it.

Identifiers must be coordinates of the supplied chart or the formal
action parameter ``r``; the function heads are exp, log, sqrt, abs,
sign, sin, cos.  ``sqrt(x)`` is sugar for ``x^(1/2)``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence

from . import expr as ex

__all__ = ["parse", "ParseError", "UnknownIdentifierError", "FUNCTIONS",
           "MAX_DEPTH", "MAX_EXPONENT", "MAX_CONSTANT_BITS"]

FUNCTIONS = {"exp": ex.exp_, "log": ex.log_, "sqrt": ex.sqrt_,
             "abs": ex.abs_, "sign": ex.sign_, "sin": ex.sin_, "cos": ex.cos_}

MAX_DEPTH = 100
MAX_EXPONENT = 10 ** 4
MAX_CONSTANT_BITS = ex.MAX_CONSTANT_BITS   # enforced by ex.pw

_TOKEN = re.compile(r"\s*(?:(\d+\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownIdentifierError(ParseError):
    pass


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        while self.pos < len(text):
            m = _TOKEN.match(text, self.pos)
            if not m or m.end() == self.pos:
                stray = text[self.pos:].lstrip()
                if not stray:
                    break
                raise ParseError(f"unexpected character {stray[0]!r}",
                                 len(text) - len(stray))
            num, ident, op = m.groups()
            start = m.end() - len(num or ident or op)
            if num:
                self.tokens.append(("num", num, start))
            elif ident:
                self.tokens.append(("ident", ident, start))
            else:
                self.tokens.append(("op", op, start))
            self.pos = m.end()
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


def parse(text: str, chart=None, names: Optional[Sequence[str]] = None) -> ex.Expr:
    """Parse a DSL string into an Expr.

    Identifiers are validated against the chart's coordinates (plus the
    action parameter 'r') or, when no chart is given, against `names`.
    """
    if chart is not None:
        allowed = set(chart.coords) | {"r", "s"}
        where = f"chart {chart.name!r} declares ({', '.join(chart.coords)})"
    elif names is not None:
        allowed = set(names) | {"r", "s"}
        where = f"known names: ({', '.join(sorted(allowed))})"
    else:
        allowed = None
        where = ""
    lx = _Lexer(text)
    depth = 0

    def p_nested(pos: int) -> ex.Expr:
        """The expression inside a parenthesis opened at `pos`."""
        nonlocal depth
        if depth == MAX_DEPTH:
            raise ParseError(f"parentheses nested more than {MAX_DEPTH} deep", pos)
        depth += 1
        inner = p_expr()
        depth -= 1
        lx.expect_op(")")
        return inner

    def p_expr() -> ex.Expr:
        parts = [p_term()]
        while True:
            kind, val, _ = lx.peek()
            if kind == "op" and val in "+-":
                lx.next()
                t = p_term()
                parts.append(t if val == "+" else ex.neg(t))
            else:
                return ex.add(*parts)

    def p_term() -> ex.Expr:
        out = p_unary()
        while True:
            kind, val, _ = lx.peek()
            if kind == "op" and val in "*/":
                lx.next()
                rhs = p_unary()
                out = ex.mul(out, rhs) if val == "*" else ex.div(out, rhs)
            else:
                return out

    def p_unary() -> ex.Expr:
        negate = False
        while True:
            kind, val, _ = lx.peek()
            if kind == "op" and val in "+-":
                lx.next()
                if val == "-":
                    negate = not negate
            else:
                break
        out = p_power()
        return ex.neg(out) if negate else out

    def p_power() -> ex.Expr:
        base = p_atom()
        kind, val, _ = lx.peek()
        if kind == "op" and val == "^":
            lx.next()
            return ex.pw(base, p_exponent())
        return base

    def p_exponent() -> Fraction:
        # bare exponents are integers; fractional exponents need parens,
        # otherwise x^2/4 would be ambiguous with (x^2)/4
        kind, val, pos = lx.peek()
        if kind == "op" and val == "(":
            lx.next()
            q = p_signed_rational(allow_fraction=True)
            lx.expect_op(")")
            return q
        return p_signed_rational(allow_fraction=False)

    def p_signed_rational(allow_fraction: bool) -> Fraction:
        sign = 1
        kind, val, start = lx.peek()
        if kind == "op" and val == "-":
            lx.next()
            sign = -1
        kind, val, pos = lx.next()
        if kind != "num" or "." in val:
            raise ParseError(f"expected an integer exponent, found {val!r}", pos)
        q = Fraction(sign * int(val))
        kind, val, _ = lx.peek()
        if allow_fraction and kind == "op" and val == "/":
            lx.next()
            kind, val, pos = lx.next()
            if kind != "num" or "." in val:
                raise ParseError(f"expected an integer denominator, found {val!r}", pos)
            q /= int(val)
        if abs(q) > MAX_EXPONENT:
            raise ParseError(f"exponent {q} exceeds {MAX_EXPONENT} in absolute value",
                             start)
        return q

    def p_atom() -> ex.Expr:
        kind, val, pos = lx.next()
        if kind == "num":
            return ex.rat(Fraction(val))
        if kind == "ident":
            k2, v2, _ = lx.peek()
            if k2 == "op" and v2 == "(":
                if val not in FUNCTIONS:
                    raise UnknownIdentifierError(f"unknown function {val!r}", pos)
                _, _, paren = lx.next()
                return FUNCTIONS[val](p_nested(paren))
            if val in FUNCTIONS:
                raise ParseError(f"function {val!r} needs an argument list", pos)
            if allowed is not None and val not in allowed:
                raise UnknownIdentifierError(
                    f"unknown identifier {val!r}; {where}", pos)
            return ex.var(val)
        if kind == "op" and val == "(":
            return p_nested(pos)
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)

    try:
        out = p_expr()
    except ex.ConstantTooLargeError as err:
        raise ParseError(str(err), 0) from None
    kind, val, pos = lx.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {val!r}", pos)
    _check_exponents(out)
    return out


def _check_exponents(e: ex.Expr) -> None:
    """Raise ParseError for a power whose exponent, as nested powers and
    products folded it, exceeds MAX_EXPONENT in absolute value.  Each shared
    node is visited once."""
    seen = set()
    stack = [e]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, ex.Pow):
            if abs(x.exponent) > MAX_EXPONENT:
                raise ParseError(f"folded exponent {x.exponent} exceeds {MAX_EXPONENT} "
                                 f"in absolute value", 0)
            stack.append(x.base)
        elif isinstance(x, ex.Sum):
            stack.extend(x.terms)
        elif isinstance(x, ex.Prod):
            stack.extend(x.factors)
        elif isinstance(x, ex.Fun):
            stack.append(x.arg)
