"""Small dense matrices with symbolic entries.

Sizes here are chart dimensions (at most 6 or so), so cofactor expansion
for determinants and adjugate inverses are fine and avoid pivoting
decisions that would need zero tests.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import List, Sequence

from . import expr as ex

__all__ = ["mat", "identity", "mat_mul", "mat_vec", "transpose", "mat_sub",
           "det", "inverse", "simplify_mat"]

Matrix = List[List[ex.Expr]]


def mat(rows) -> Matrix:
    return [[ex._coerce(v) for v in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[ex.ONE if i == j else ex.ZERO for j in range(n)] for i in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    return [[ex.add(*[ex.mul(a[i][t], b[t][j]) for t in range(k)])
             for j in range(m)] for i in range(n)]


def mat_vec(a: Matrix, v: Sequence[ex.Expr]):
    return [ex.add(*[ex.mul(a[i][j], v[j]) for j in range(len(v))])
            for i in range(len(a))]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[ex.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _minor_table(a: Matrix):
    """minor(rows, cols): the determinant of the submatrix of `a` on those
    index tuples (1 for the empty one), by cofactor expansion along its
    first row, skipping literal-zero entries.  Minors are memoised, so the
    determinant and every cofactor taken from one table share their
    subminors.  The table is a partial of the module-level _minor, not a
    closure that calls itself, so it is freed by reference count."""
    return functools.partial(_minor, a, {})


def _minor(a: Matrix, memo: dict, rows: tuple, cols: tuple) -> ex.Expr:
    if not rows:
        return ex.ONE
    if len(rows) == 1:
        return a[rows[0]][cols[0]]
    key = (rows, cols)
    hit = memo.get(key)
    if hit is not None:
        return hit
    r = rows[0]
    parts = []
    for k, c in enumerate(cols):
        entry = a[r][c]
        if entry.is_zero_literal():
            continue
        sub = _minor(a, memo, rows[1:], cols[:k] + cols[k + 1:])
        term = ex.mul(entry, sub)
        parts.append(term if k % 2 == 0 else ex.neg(term))
    out = ex.add(*parts) if parts else ex.ZERO
    memo[key] = out
    return out


def det(a: Matrix) -> ex.Expr:
    full = tuple(range(len(a)))
    return _minor_table(a)(full, full)


def inverse(a: Matrix) -> Matrix:
    """Adjugate inverse; entries are exact symbolic quotients by det."""
    n = len(a)
    minor = _minor_table(a)
    full = tuple(range(n))
    dinv = ex.pw(minor(full, full), Fraction(-1))

    def cofactor(i: int, j: int) -> ex.Expr:
        m = minor(full[:i] + full[i + 1:], full[:j] + full[j + 1:])
        return m if (i + j) % 2 == 0 else ex.neg(m)

    return [[ex.mul(cofactor(j, i), dinv) for j in range(n)] for i in range(n)]


def simplify_mat(a: Matrix, constraints=()) -> Matrix:
    return [[ex.simplify(x, constraints) for x in row] for row in a]
