"""Exact rational matrices.

Every matrix computation here runs on one form, `QMat`: integer rows over
one positive common denominator, so the inner loops multiply and add Python
integers only.  gcds are taken where a matrix enters the form (`qmat`, one
lcm of the denominators) and where a Fraction leaves it (`to_mat`, `qdet`,
`qscalar`), never per multiply-add.  A Fraction matrix (`Mat`, a tuple of
tuples of Fraction) is only an input or an output.  Everything here is
exactly decidable; no tolerances are involved.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul
from typing import List, NamedTuple, Optional, Sequence, Tuple

Mat = Tuple[Tuple[Fraction, ...], ...]

__all__ = ["rmat", "rident", "nullspace", "iroot", "rroot", "QMat", "qmat",
           "to_mat", "qmul", "qtranspose", "qeq", "qscalar", "qsolve", "qdet"]


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
