"""Exact rational matrix and polynomial utilities.

Matrices are tuples of tuples of Fraction.  Polynomials are coefficient
tuples in increasing degree, also over Fraction.  Everything here is
exactly decidable; no tolerances are involved.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Mat = Tuple[Tuple[Fraction, ...], ...]
Poly = Tuple[Fraction, ...]

__all__ = ["rmat", "rident", "rzeros", "rmul", "radd", "rsub", "rscale",
           "rtranspose", "req", "rinv", "rdet", "is_scalar",
           "char_poly", "rational_eigenvalues", "spectral_projectors",
           "UnsupportedMatrixError", "nullspace", "rsqrt"]


class UnsupportedMatrixError(ValueError):
    """Matrix falls outside the exactly-decidable class handled here."""


def rmat(rows) -> Mat:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def rident(n: int) -> Mat:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def rzeros(n: int, m: Optional[int] = None) -> Mat:
    m = n if m is None else m
    return tuple((Fraction(0),) * m for _ in range(n))


def rmul(a: Mat, b: Mat) -> Mat:
    n, k, m = len(a), len(b), len(b[0])
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
                 for i in range(n))


def radd(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def rsub(a: Mat, b: Mat) -> Mat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def rscale(a: Mat, s) -> Mat:
    s = Fraction(s)
    return tuple(tuple(s * x for x in row) for row in a)


def rtranspose(a: Mat) -> Mat:
    return tuple(zip(*a))


def req(a: Mat, b: Mat) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def rinv(a: Mat) -> Mat:
    """Gauss-Jordan inverse; raises ZeroDivisionError on singular input."""
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


def rdet(a: Mat) -> Fraction:
    """Fraction-free-ish elimination determinant."""
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


def is_scalar(a: Mat) -> Optional[Fraction]:
    """Return c when a == c * I, else None."""
    n = len(a)
    c = a[0][0]
    for i in range(n):
        for j in range(n):
            if (a[i][j] != c) if i == j else (a[i][j] != 0):
                return None
    return c


def nullspace(a: Sequence[Sequence[Fraction]]) -> List[Tuple[Fraction, ...]]:
    """Basis of the right nullspace of a (rows x cols), exact."""
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


def rsqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, if it exists."""
    if q < 0:
        return None
    import math
    a = math.isqrt(q.numerator)
    b = math.isqrt(q.denominator)
    if a * a == q.numerator and b * b == q.denominator:
        return Fraction(a, b)
    return None


# ---------------------------------------------------------------------------
# polynomials over Q (for the one-parameter subgroup evaluation)

def _ptrim(p: Sequence[Fraction]) -> Poly:
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return tuple(p)


def padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return _ptrim([ (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                    for i in range(n)])


def pmul(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def pscale(a: Poly, s: Fraction) -> Poly:
    return _ptrim([s * x for x in a])


def pdivmod(a: Poly, b: Poly) -> Tuple[Poly, Poly]:
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(v != 0 for v in a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        f = a[-1] / b[-1]
        q[shift] += f
        for i, x in enumerate(b):
            a[shift + i] -= f * x
        a.pop()
    return _ptrim(q), _ptrim(a or [Fraction(0)])


def peval_mat(p: Poly, m: Mat) -> Mat:
    n = len(m)
    out = rscale(rident(n), p[0])
    power = rident(n)
    for c in p[1:]:
        power = rmul(power, m)
        if c != 0:
            out = radd(out, rscale(power, c))
    return out


def char_poly(a: Mat) -> Poly:
    """Characteristic polynomial det(xI - A) via Faddeev-LeVerrier, exact."""
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = rzeros(n)
    c = Fraction(1)
    for k in range(1, n + 1):
        m = rmul(a, m)
        m = radd(m, rscale(rident(n), c))
        am = rmul(a, m)
        c = -Fraction(sum(am[i][i] for i in range(n)), k)
        coeffs[n - k] = c
    return tuple(coeffs)


def rational_roots(p: Poly) -> List[Tuple[Fraction, int]]:
    """All rational roots of p with multiplicities (rational root theorem
    on the denominator-cleared polynomial, then repeated deflation)."""
    from math import gcd
    den = 1
    for c in p:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    while len(ints) > 1 and ints[-1] == 0:
        ints.pop()
    work = _ptrim([Fraction(v) for v in ints])
    roots = []
    zmult = 0
    while work[0] == 0 and len(work) > 1:
        zmult += 1
        work = work[1:]
    if zmult:
        roots.append((Fraction(0), zmult))
    if len(work) == 1:
        return roots

    def divisors(m: int):
        m = abs(m)
        out = set()
        d = 1
        while d * d <= m:
            if m % d == 0:
                out.add(d)
                out.add(m // d)
            d += 1
        return sorted(out)

    a0, an = int(work[0]), int(work[-1])
    candidates = set()
    for pnum in divisors(a0 or 1):
        for qden in divisors(an or 1):
            candidates.add(Fraction(pnum, qden))
            candidates.add(Fraction(-pnum, qden))
    for cand in sorted(candidates):
        mult = 0
        while len(work) > 1:
            q, r = pdivmod(work, (-cand, Fraction(1)))
            if any(v != 0 for v in r):
                break
            work = q
            mult += 1
        if mult:
            roots.append((cand, mult))
    return roots


def rational_eigenvalues(a: Mat) -> List[Tuple[Fraction, int]]:
    """Eigenvalues with multiplicities; raises when the characteristic
    polynomial does not split over Q."""
    p = char_poly(a)
    roots = rational_roots(p)
    if sum(m for _, m in roots) != len(a):
        raise UnsupportedMatrixError(
            "characteristic polynomial does not split over the rationals")
    return sorted(roots)


def _poly_crt(moduli: List[Poly], targets: List[Poly]) -> Poly:
    """Find f with f = targets[i] mod moduli[i] (moduli pairwise coprime)."""

    def pgcd_ext(a: Poly, b: Poly):
        r0, r1 = a, b
        s0, s1 = (Fraction(1),), (Fraction(0),)
        t0, t1 = (Fraction(0),), (Fraction(1),)
        while any(v != 0 for v in r1):
            q, r = pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, padd(s0, pscale(pmul(q, s1), Fraction(-1)))
            t0, t1 = t1, padd(t0, pscale(pmul(q, t1), Fraction(-1)))
        return r0, s0, t0

    total = (Fraction(1),)
    for m in moduli:
        total = pmul(total, m)
    out = (Fraction(0),)
    for m, t in zip(moduli, targets):
        rest, _ = pdivmod(total, m)
        g, u, v = pgcd_ext(rest, m)
        # g is a nonzero constant; rest*u = g mod m
        ginv = Fraction(1) / g[0]
        e = pmul(rest, pscale(u, ginv))  # e = 1 mod m, 0 mod others
        out = padd(out, pmul(t, e))
    _, out = pdivmod(out, total)
    return out


def spectral_projectors(a: Mat):
    """For a matrix whose char poly splits over Q: eigenvalues lam_i with
    multiplicities m_i, projectors P_i onto generalized eigenspaces, and the
    nilpotent part N = A - sum lam_i P_i.  Exact Jordan-Chevalley data."""
    eigs = rational_eigenvalues(a)
    n = len(a)
    moduli = []
    for lam, m in eigs:
        f = (Fraction(1),)
        for _ in range(m):
            f = pmul(f, (-lam, Fraction(1)))
        moduli.append(f)
    projectors = []
    for i, (lam, m) in enumerate(eigs):
        targets = [((Fraction(1),) if j == i else (Fraction(0),))
                   for j in range(len(eigs))]
        p = _poly_crt(moduli, targets)
        projectors.append(peval_mat(p, a))
    s = rzeros(n)
    for (lam, _), proj in zip(eigs, projectors):
        s = radd(s, rscale(proj, lam))
    nil = rsub(a, s)
    # sanity: nil must be nilpotent
    power = nil
    for _ in range(n):
        if all(v == 0 for row in power for v in row):
            break
        power = rmul(power, nil)
    else:
        if not all(v == 0 for row in power for v in row):
            raise UnsupportedMatrixError("nilpotent part check failed")
    return eigs, projectors, nil
