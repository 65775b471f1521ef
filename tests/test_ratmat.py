"""The integer kernels of ratmat against the Fraction code they replaced.

The `_oracle_*` functions are the earlier Fraction implementations, kept
verbatim as the reference: every entry operation is a Fraction operation
with its own gcd, so they share no arithmetic with the kernels under test.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homogeo import ratmat as rm


def _oracle_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
                 for i in range(n))


def _oracle_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _oracle_inv(a):
    n = len(a)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [v - f * w for v, w in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def _oracle_det(a):
    n = len(a)
    work = [list(row) for row in a]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, n):
            if work[r][col] != 0:
                f = work[r][col] * inv
                work[r] = [v - f * w for v, w in zip(work[r], work[col])]
    return det


def _oracle_scalar(a):
    n = len(a)
    c = a[0][0]
    for i in range(n):
        for j in range(n):
            if (a[i][j] != c) if i == j else (a[i][j] != 0):
                return None
    return c


def _oracle_nullspace(a):
    rows = [list(map(Fraction, row)) for row in a]
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(tuple(vec))
    return basis


# small entries, integers (zeros included) and large numerators/denominators
_ENTRY = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.integers(-2, 2).map(Fraction),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 20)),
)
_SIZE = st.integers(1, 6)
_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None,
                     database=None)


def _mat(n, m):
    return st.lists(st.tuples(*[_ENTRY] * m), min_size=n, max_size=n).map(tuple)


@st.composite
def _square(draw):
    """A square matrix, generic or made singular or with a zero first pivot."""
    n = draw(_SIZE)
    a = [list(row) for row in draw(_mat(n, n))]
    kind = draw(st.sampled_from(["generic", "dependent row", "zero row",
                                 "zero first pivot"]))
    if kind == "dependent row" and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(_ENTRY)
        a[i] = [c * v for v in a[j]]
        if n > 2:
            k = next(t for t in range(n) if t not in (i, j))
            a[i] = [v + w for v, w in zip(a[i], a[k])]
    elif kind == "zero row":
        a[draw(st.integers(0, n - 1))] = [Fraction(0)] * n
    elif kind == "zero first pivot":
        a[0][0] = Fraction(0)
    return tuple(tuple(row) for row in a)


@st.composite
def _product_pair(draw):
    n, k, m = draw(_SIZE), draw(_SIZE), draw(_SIZE)
    return draw(_mat(n, k)), draw(_mat(k, m))


@_SETTINGS
@given(_product_pair())
def test_qmul_matches_oracle(pair):
    a, b = pair
    assert rm.to_mat(rm.qmul(rm.qmat(a), rm.qmat(b))) == _oracle_mul(a, b)


@_SETTINGS
@given(_square())
@example(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
@example(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))))
def test_qsolve_inverse_and_qdet_match_oracle(a):
    det = _oracle_det(a)
    q, ident = rm.qmat(a), rm.qmat(rm.rident(len(a)))
    assert rm.qdet(q) == det
    if det == 0:
        with pytest.raises(ZeroDivisionError):
            _oracle_inv(a)
        with pytest.raises(ZeroDivisionError):
            rm.qsolve(q, ident)
    else:
        assert rm.to_mat(rm.qsolve(q, ident)) == _oracle_inv(a)


@_SETTINGS
@given(_square(), st.integers(1, 3))
def test_qsolve_matches_inverse_times_rhs(a, m):
    b = tuple(tuple(Fraction(i - j, m) for j in range(m)) for i in range(len(a)))
    if _oracle_det(a) == 0:
        with pytest.raises(ZeroDivisionError):
            rm.qsolve(rm.qmat(a), rm.qmat(b))
        return
    got = rm.qsolve(rm.qmat(a), rm.qmat(b))
    assert got.den > 0
    assert rm.to_mat(got) == _oracle_mul(_oracle_inv(a), b)


@_SETTINGS
@given(_square(), _ENTRY, st.integers(0, 5))
def test_qeq_and_qscalar_match_oracle(a, c, where):
    n = len(a)
    scalar = tuple(tuple(c if i == j else Fraction(0) for j in range(n))
                   for i in range(n))
    nudged = [list(row) for row in scalar]
    nudged[where % n][(where // 2) % n] += Fraction(1, 7)
    nudged = tuple(tuple(row) for row in nudged)
    for x in (a, scalar, nudged):
        assert rm.qscalar(rm.qmat(x)) == _oracle_scalar(x)
        for y in (a, scalar, nudged):
            assert rm.qeq(rm.qmat(x), rm.qmat(y)) == _oracle_eq(x, y)
    # the same matrices over denominators that differ
    q = rm.qmat(nudged)
    wide = rm.QMat([[3 * v for v in row] for row in q.rows], 3 * q.den)
    assert rm.qeq(q, wide) and rm.qeq(wide, q)
    assert rm.qeq(wide, rm.qmat(scalar)) == _oracle_eq(nudged, scalar)
    assert rm.qscalar(wide) == _oracle_scalar(nudged)


@_SETTINGS
@given(_SIZE, _SIZE, st.integers(1, 4), st.data())
def test_nullspace_matches_oracle(n, m, rank, data):
    # a product n x r times r x m has rank at most r
    left = data.draw(_mat(n, rank))
    right = data.draw(_mat(rank, m))
    a = _oracle_mul(left, right)
    assert rm.nullspace(a) == _oracle_nullspace(a)


def test_det_and_inverse_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)

    def frac(x):
        return Fraction(int(x.p), int(x.q))

    for n in range(1, 6):
        for trial in range(4):
            a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                 for _ in range(n)]
            if trial == 3 and n > 1:
                a[-1] = [x - 2 * y for x, y in zip(a[0], a[1 % n])]
            a = tuple(tuple(row) for row in a)
            S = sympy.Matrix(n, n, lambda i, j: sympy.Rational(
                a[i][j].numerator, a[i][j].denominator))
            det = S.det()
            q, ident = rm.qmat(a), rm.qmat(rm.rident(n))
            assert rm.qdet(q) == frac(det)
            if det == 0:
                with pytest.raises(ZeroDivisionError):
                    rm.qsolve(q, ident)
            else:
                inv = S.inv()
                assert rm.to_mat(rm.qsolve(q, ident)) == tuple(
                    tuple(frac(inv[i, j]) for j in range(n)) for i in range(n))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.one_of(st.integers(0, 10 ** 6), st.integers(0, 2 ** 3000)),
       st.integers(1, 40), st.integers(-1, 1))
@example(10 ** 400, 3, 0)
@example(2 ** 300, 3, 0)
def test_iroot_matches_sympy(m, n, shift):
    # perfect powers and their neighbours, as well as arbitrary integers
    sympy = pytest.importorskip("sympy")
    for k in (m, max(0, (m % 10 ** 4) ** n + shift)):
        assert rm.iroot(k, n) == int(sympy.integer_nthroot(k, n)[0])


def test_rroot_is_exact_beyond_float_range():
    # a float estimate of the root is off by far more than 1 at this size,
    # and raises OverflowError above about 1e308
    assert rm.rroot(Fraction(2 ** 300), 3) == 2 ** 100
    assert rm.rroot(Fraction(10 ** 402, 3 ** 600), 3) == Fraction(10 ** 134, 3 ** 200)
    assert rm.rroot(Fraction(10 ** 400), 3) is None
    assert rm.rroot(Fraction(10 ** 400 + 1), 2) is None
    assert rm.rroot(Fraction(-8), 3) is None
    assert rm.iroot(7, 10 ** 100) == 1
