"""Exact rational matrices and polynomials.

Every matrix computation here runs on one form, `QMat`: integer rows over
one positive common denominator, so the inner loops multiply and add Python
integers only.  gcds are taken where a matrix enters the form (`qmat`, one
lcm of the denominators) and where a Fraction leaves it (`to_mat`, `qdet`,
`qscalar`), never per multiply-add.  A Fraction matrix (`Mat`, a tuple of
tuples of Fraction) is only an input or an output.  Polynomials are
coefficient tuples in increasing degree over Fraction; `char_poly` and
`rational_eigenvalues` give the exact spectrum of a rational matrix, such
as the generator B of a degree homomorphism |r|^B sign(r)^C.  Everything
here is exactly decidable; no tolerances are involved.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import isqrt, lcm
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

Mat = Tuple[Tuple[Fraction, ...], ...]
Poly = Tuple[Fraction, ...]

__all__ = ["rmat", "rident", "char_poly", "rational_eigenvalues",
           "UnsupportedMatrixError", "nullspace", "iroot", "rroot", "QMat",
           "qmat", "to_mat", "qmul", "qtranspose", "qeq", "qscalar", "qsolve",
           "qdet"]


class UnsupportedMatrixError(ValueError):
    """Matrix falls outside the exactly-decidable class handled here."""


def rmat(rows) -> Mat:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def rident(n: int) -> Mat:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


class QMat(NamedTuple):
    """The matrix with entries rows[i][j] / den, den > 0.  den need not be
    the least common denominator.  No function mutates rows in place, so a
    QMat may be shared."""

    rows: List[List[int]]
    den: int


def qmat(a) -> QMat:
    """Integer form of a matrix of ints or Fractions, over the least common
    denominator of its entries."""
    den = lcm(*(v.denominator for row in a for v in row))
    return QMat([[v.numerator * (den // v.denominator) for v in row]
                 for row in a], den)


def to_mat(a: QMat) -> Mat:
    """Back to Fraction entries, each reduced by its own gcd."""
    den = a.den
    return tuple(tuple(Fraction(v, den) for v in row) for row in a.rows)


def qmul(a: QMat, *rest: QMat) -> QMat:
    """The product a b c ... : integer row-by-column sums, and the
    denominators multiply."""
    rows, den = a
    for b in rest:
        cols = list(zip(*b.rows))
        rows = [[sum(map(mul, row, col)) for col in cols] for row in rows]
        den *= b.den
    return QMat(rows, den)


def qtranspose(a: QMat) -> QMat:
    return QMat([list(col) for col in zip(*a.rows)], a.den)


def qeq(a: QMat, b: QMat) -> bool:
    """Entrywise equality, cross-multiplied when the denominators differ."""
    da, db = a.den, b.den
    if da == db:
        return a.rows == b.rows
    return all(x * db == y * da for ra, rb in zip(a.rows, b.rows)
               for x, y in zip(ra, rb))


def qscalar(a: QMat) -> Optional[Fraction]:
    """Return c when a == c * I, else None."""
    c = a.rows[0][0]
    for i, row in enumerate(a.rows):
        for j, v in enumerate(row):
            if v != (c if i == j else 0):
                return None
    return Fraction(c, a.den)


def _eliminate(rows: List[List[int]], ncols: int):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer
    rows, pivoting on the first ncols columns; replaces the rows in place.

    With p the current pivot and prev the one before it, every other row
    becomes (p*row - f*pivot_row) // prev, f its entry in the pivot column.
    The division is exact: each entry stays a minor of the input.  At the
    end each pivot row holds the last pivot in its own pivot column and 0
    in the other pivot columns, and for a square nonsingular input the last
    pivot is sign * det.  Returns (pivot columns, last pivot, sign of the
    row permutation)."""
    pivots: List[int] = []
    prev, sign, r = 1, 1, 0
    for c in range(ncols):
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i == r or (f == 0 and p == prev):
                continue
            rows[i] = [(p * v - f * w) // prev for v, w in zip(row, prow)]
        prev = p
        pivots.append(c)
        r += 1
    return pivots, prev, sign


def qsolve(a: QMat, b: QMat) -> QMat:
    """X with a X = b, by one elimination of the block rows [a | b];
    raises ZeroDivisionError when a is singular.  The elimination leaves
    [p I | p a^-1 b] up to the denominators, so X is the adjugate of a
    applied to b, over det a."""
    n = len(a.rows)
    work = [ra + rb for ra, rb in zip(a.rows, b.rows)]
    pivots, p, _ = _eliminate(work, n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    scale = a.den if p > 0 else -a.den
    return QMat([[scale * v for v in row[n:]] for row in work], abs(p) * b.den)


def qdet(a: QMat) -> Fraction:
    n = len(a.rows)
    pivots, p, sign = _eliminate(list(a.rows), n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * p, a.den ** n)


def nullspace(a: Sequence[Sequence[Fraction]]) -> List[Tuple[Fraction, ...]]:
    """Basis of the right nullspace of a (rows x cols), exact: one basis
    vector per non-pivot column of the reduced row echelon form."""
    if not a:
        return []
    ncols = len(a[0])
    # zero and repeated rows add no equation
    rows = [list(row) for row in dict.fromkeys(map(tuple, qmat(rmat(a)).rows))
            if any(row)]
    pivots, p, _ = _eliminate(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = Fraction(-row[fc], p)
        basis.append(tuple(vec))
    return basis


def iroot(m: int, n: int) -> int:
    """floor(m ** (1/n)) for integers m >= 0 and n >= 1, in integer
    arithmetic only (Newton's iteration from above), so exact at any size."""
    if m < 2 or n == 1:
        return m
    if n == 2:
        return isqrt(m)
    if m.bit_length() <= n:              # 1 < m^(1/n) < 2
        return 1
    x = 1 << -(-m.bit_length() // n)     # 2^ceil(bits/n) > m^(1/n)
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def rroot(q: Fraction, n: int = 2) -> Optional[Fraction]:
    """Exact n-th root of a nonnegative rational, if it exists."""
    if q < 0:
        return None
    a, b = iroot(q.numerator, n), iroot(q.denominator, n)
    if a ** n != q.numerator or b ** n != q.denominator:
        return None
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# polynomials over Q (for the spectrum of a rational matrix)

def _deflate(p: Poly, c: Fraction) -> Optional[Poly]:
    """p / (x - c) by synthetic division (Horner's scheme from the leading
    coefficient down), or None when the remainder p(c) is not zero."""
    out = list(accumulate(reversed(p), lambda acc, a: a + c * acc))
    return None if out.pop() else tuple(reversed(out))


def char_poly(a: QMat) -> Poly:
    """Characteristic polynomial det(xI - A), exact: the power sums
    p_k = tr A^k, then Newton's identities k e_k = sum_{i=1..k}
    (-1)^(i-1) e_(k-i) p_i for the elementary symmetric functions e_k of
    the eigenvalues; the coefficient of x^(n-k) is (-1)^k e_k."""
    n = len(a.rows)
    p = [Fraction(sum(row[i] for i, row in enumerate(power.rows)), power.den)
         for power in accumulate(repeat(a, n), qmul)]
    e = [Fraction(1)]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i - 1]
                     for i in range(1, k + 1)) / k)
    return tuple((-1) ** (n - d) * e[n - d] for d in range(n + 1))


def rational_roots(p: Poly) -> List[Tuple[Fraction, int]]:
    """All rational roots of p with multiplicities, in increasing order.
    The candidates are 0 and +-a/b with a dividing the lowest nonzero and b
    the leading coefficient of the denominator-cleared polynomial (rational
    root theorem); each is divided out by synthetic division while it is a
    root."""
    den = lcm(*(c.denominator for c in p))
    ints = [int(c * den) for c in p]
    while len(ints) > 1 and ints[-1] == 0:
        ints.pop()

    def divisors(m: int):
        m = abs(m)
        return {d for k in range(1, isqrt(m) + 1) if m % k == 0 for d in (k, m // k)}

    candidates = {Fraction(0)} | {Fraction(s * a, b) for s in (1, -1)
                                  for a in divisors(next((v for v in ints if v), 1))
                                  for b in divisors(ints[-1] or 1)}
    work = tuple(map(Fraction, ints))
    roots = []
    for cand in sorted(candidates):
        mult = 0
        while len(work) > 1:
            q = _deflate(work, cand)
            if q is None:
                break
            work, mult = q, mult + 1
        if mult:
            roots.append((cand, mult))
    return roots


def rational_eigenvalues(a: QMat) -> List[Tuple[Fraction, int]]:
    """Eigenvalues with multiplicities; raises when the characteristic
    polynomial does not split over Q."""
    roots = rational_roots(char_poly(a))
    if sum(m for _, m in roots) != len(a.rows):
        raise UnsupportedMatrixError(
            "characteristic polynomial does not split over the rationals")
    return sorted(roots)

