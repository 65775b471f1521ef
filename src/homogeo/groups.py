"""Matrix groups inside GL_{n+1}(R): membership, normalizers, splittings,
and one-parameter degree homomorphisms.

Everything on rational matrices is exactly decidable.  The supported
groups are Sp_k (A^t J A = J), GL_k(C) embedded as the J-commutant
(A^{-1} J A = J), O_m (A^t A = I) and GL_m itself.  Normalizer membership
is tested through the defining products

    Sp:  J^t B^t J B  = p(B) I          (p in R^x)
    GLC: J^{-1} B^{-1} J B = (+-) I     (parity in Z_2)
    O:   B^t B = p(B) I                 (p in R^x_+)

Degree homomorphisms r -> A(r) are stored as the pair (B, C) with
A(r) = exp(B log r) for r > 0 and A(r) = C exp(B log|r|) for r < 0,
subject to C^2 = I and CB = BC.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import List, Optional, Tuple, Union

from . import expr as ex
from . import ratmat as rm
from . import symmat
from .zerotest import ZeroTestPolicy, DEFAULT_POLICY, all_zero, is_zero

__all__ = ["GroupId", "SP", "GLC", "O", "GL", "std_J", "member",
           "defining_product_symbolic", "in_normalizer", "normalizer_p",
           "NotInNormalizerError", "splitting", "DegreeHom", "hom_eval",
           "hom_eval_symbolic", "hom_eval_symbolic_full", "coset_eq",
           "member_symbolic", "scalar_mismatch", "rand_element", "rand_lie_element",
           "centralizer_basis", "contact_lift", "trivial_hom", "sqrt_abs_lift"]


class NotInNormalizerError(ValueError):
    pass


@dataclass(frozen=True)
class GroupId:
    family: str   # 'sp' | 'glc' | 'o' | 'gl'
    param: int    # k for sp/glc (ambient size 2k), m for o/gl

    def __post_init__(self):
        if self.family not in ("sp", "glc", "o", "gl"):
            raise ValueError(f"unknown group family {self.family!r}")
        if self.param < 1:
            raise ValueError("group parameter must be positive")

    @property
    def size(self) -> int:
        return 2 * self.param if self.family in ("sp", "glc") else self.param

    def __str__(self):
        names = {"sp": "Sp", "glc": "GL_C", "o": "O", "gl": "GL"}
        return f"{names[self.family]}({self.param})"


def SP(k: int) -> GroupId:
    return GroupId("sp", k)


def GLC(k: int) -> GroupId:
    return GroupId("glc", k)


def O(m: int) -> GroupId:
    return GroupId("o", m)


def GL(m: int) -> GroupId:
    return GroupId("gl", m)


def std_J(k: int) -> rm.Mat:
    """Block matrix ((0, I_k), (-I_k, 0)); J^2 = -I, J^t = -J."""
    n = 2 * k
    rows = []
    for i in range(n):
        row = [Fraction(0)] * n
        if i < k:
            row[k + i] = Fraction(1)
        else:
            row[i - k] = Fraction(-1)
        rows.append(tuple(row))
    return tuple(rows)


def _check_size(G: GroupId, M: rm.Mat):
    if len(M) != G.size or any(len(row) != G.size for row in M):
        raise ValueError(f"matrix size {len(M)} does not match {G} (size {G.size})")


def _qchecked(G: GroupId, M) -> rm.QMat:
    M = rm.rmat(M)
    _check_size(G, M)
    return rm.qmat(M)


@lru_cache(maxsize=None)
def _qJ(k: int) -> rm.QMat:
    return rm.qmat(std_J(k))


def member(G: GroupId, M) -> bool:
    """Exact membership test in rational arithmetic."""
    return _qmember(G, _qchecked(G, M))


def _qmember(G: GroupId, M: rm.QMat) -> bool:
    if G.family == "sp":
        J = _qJ(G.param)
        return rm.qeq(rm.qmul(rm.qtranspose(M), J, M), J)
    if G.family == "glc":
        J = _qJ(G.param)
        return rm.qdet(M) != 0 and rm.qeq(rm.qmul(M, J), rm.qmul(J, M))
    if G.family == "o":
        return rm.qscalar(rm.qmul(rm.qtranspose(M), M)) == 1
    return rm.qdet(M) != 0


def _qnormalizer_product(G: GroupId, B: rm.QMat) -> rm.QMat:
    if G.family == "sp":
        J = _qJ(G.param)
        return rm.qmul(rm.qtranspose(J), rm.qtranspose(B), J, B)
    if G.family == "glc":
        # J^-1 = J^t since J^2 = -I and J^t = -J; B^-1 (J B) is one solve
        J = _qJ(G.param)
        return rm.qmul(rm.qtranspose(J), rm.qsolve(B, rm.qmul(J, B)))
    if G.family == "o":
        return rm.qmul(rm.qtranspose(B), B)
    raise ValueError("GL is its own normalizer; no defining product")


def in_normalizer(G: GroupId, B) -> bool:
    if G.family == "gl":
        return rm.rdet(rm.rmat(B)) != 0
    try:
        normalizer_p(G, B)
    except (NotInNormalizerError, ZeroDivisionError):
        return False
    return True


def normalizer_p(G: GroupId, B) -> Union[Fraction, int]:
    """Quotient value of B in N(G): a nonzero rational for Sp, a parity
    (0 or 1) for GLC, a positive rational for O."""
    c = rm.qscalar(_qnormalizer_product(G, _qchecked(G, B)))
    if c is None:
        raise NotInNormalizerError(f"matrix is not in N({G}): defining product "
                                   "is not scalar")
    if G.family == "sp":
        if c == 0:
            raise NotInNormalizerError("defining product is zero")
        return c
    if G.family == "glc":
        if c == 1:
            return 0
        if c == -1:
            return 1
        raise NotInNormalizerError(f"defining product is {c} I, expected +-I")
    if c <= 0:
        raise NotInNormalizerError("defining product must be positive")
    return c


def splitting(G: GroupId, value) -> rm.Mat:
    """Section of the normalizer quotient: Sp: diag(I, r I); GLC: I or the
    block swap V; O: r^(1/2) I (r must have an exact rational square root)."""
    n = G.size
    if G.family == "sp":
        value = Fraction(value)
        if value == 0:
            raise ValueError("quotient value must be nonzero")
        k = G.param
        return tuple(tuple(Fraction(int(i == j)) * (1 if i < k else value)
                           for j in range(n)) for i in range(n))
    if G.family == "glc":
        if value not in (0, 1):
            raise ValueError("quotient value must be the parity 0 or 1")
        if value == 0:
            return rm.rident(n)
        k = G.param
        rows = []
        for i in range(n):
            row = [Fraction(0)] * n
            row[(i + k) % n] = Fraction(1)
            rows.append(tuple(row))
        return tuple(rows)
    if G.family == "o":
        value = Fraction(value)
        if value <= 0:
            raise ValueError("quotient value must be positive")
        root = rm.rroot(value)
        if root is None:
            raise ValueError(f"{value} has no exact rational square root; "
                             "pick a square value for exact arithmetic")
        return rm.rscale(rm.rident(n), root)
    raise ValueError("GL has a trivial quotient")


# ---------------------------------------------------------------------------
# degree homomorphisms

@dataclass(frozen=True)
class DegreeHom:
    """One-parameter family A(r) = exp(B log r) (r>0), C exp(B log|r|) (r<0)."""

    B: rm.Mat
    C: rm.Mat

    def __post_init__(self):
        B, C = rm.rmat(self.B), rm.rmat(self.C)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        n = len(B)
        if len(C) != n:
            raise ValueError("B and C must have the same size")
        if not rm.req(rm.rmul(C, C), rm.rident(n)):
            raise ValueError("C^2 must be the identity")
        if not rm.req(rm.rmul(C, B), rm.rmul(B, C)):
            raise ValueError("C must commute with B (hence with exp(Bt))")

    @property
    def size(self) -> int:
        return len(self.B)


def trivial_hom(n: int) -> DegreeHom:
    return DegreeHom(rm.rzeros(n), rm.rident(n))


def contact_lift(k: int) -> DegreeHom:
    """diag(I_k, r I_k): B = diag(0, I), C = identity... A(-1) = diag(I, -I)."""
    n = 2 * k
    B = tuple(tuple(Fraction(int(i == j and i >= k)) for j in range(n))
              for i in range(n))
    C = tuple(tuple(Fraction(int(i == j)) * (1 if i < k else -1)
                    for j in range(n)) for i in range(n))
    return DegreeHom(B, C)


def sqrt_abs_lift(n: int) -> DegreeHom:
    """|r|^(1/2) I: B = I/2, C = I."""
    return DegreeHom(rm.rscale(rm.rident(n), Fraction(1, 2)), rm.rident(n))


def hom_eval(A: DegreeHom, q) -> rm.Mat:
    """Exact evaluation at a nonzero rational.  Supported when B is
    semisimple with rational eigenvalues lam and |q|^lam is rational
    (always true at q = +-1)."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("degree homomorphisms are defined on r != 0")
    aq = abs(q)
    n = A.size
    if aq == 1:
        out = rm.rident(n)
    else:
        eigs, projectors, nil = rm.spectral_projectors(A.B)
        if any(v != 0 for row in nil for v in row):
            raise rm.UnsupportedMatrixError(
                "exact evaluation needs a semisimple B (log terms otherwise)")
        out = rm.rzeros(n)
        for (lam, _), P in zip(eigs, projectors):
            # aq ** lam must be rational
            root_num = _exact_pow(aq, lam)
            if root_num is None:
                raise rm.UnsupportedMatrixError(
                    f"{aq}^{lam} is irrational; pick a compatible rational")
            out = rm.radd(out, rm.rscale(P, root_num))
    if q < 0:
        out = rm.rmul(A.C, out)
    return out


def _exact_pow(q: Fraction, lam: Fraction) -> Optional[Fraction]:
    """q ** lam as an exact rational, or None."""
    if lam == 0:
        return Fraction(1)
    if lam.denominator == 1:
        return q ** lam.numerator
    root = rm.rroot(q, lam.denominator)
    if root is None:
        return None
    return root ** lam.numerator


def _exp_symbolic(B: rm.Mat, base: ex.Expr) -> List[List[ex.Expr]]:
    """exp(B log base) as a matrix of expressions:
    sum_i base^lam_i (log base)^j / j! P_i N^j.  Needs rational eigenvalues."""
    eigs, projectors, nil = rm.spectral_projectors(B)
    n = len(B)
    out = [[ex.ZERO] * n for _ in range(n)]
    for (lam, mult), P in zip(eigs, projectors):
        coeff_mat = P
        j = 0
        while True:
            scalar = ex.mul(ex.pw(base, lam),
                            ex.pw(ex.log_(base), j) if j else ex.ONE,
                            ex.rat(Fraction(1, factorial(j))))
            for i in range(n):
                for jj in range(n):
                    if coeff_mat[i][jj] != 0:
                        out[i][jj] = ex.add(out[i][jj],
                                            ex.mul(scalar, ex.rat(coeff_mat[i][jj])))
            j += 1
            coeff_mat = rm.rmul(coeff_mat, nil)
            if all(v == 0 for row in coeff_mat for v in row) or j > n:
                break
    return out


def hom_eval_symbolic(A: DegreeHom, param: str = "r") -> List[List[ex.Expr]]:
    """A(r) on the branch r > 0 as a matrix of expressions.  Needs rational
    eigenvalues."""
    return _exp_symbolic(A.B, ex.var(param))


def hom_eval_symbolic_full(A: DegreeHom, abs_value: ex.Expr,
                           sign_value: ex.Expr, invert: bool = False
                           ) -> List[List[ex.Expr]]:
    """A(r) (or its inverse) over both branches as a matrix of expressions,
    with |r| and sign(r) supplied as expressions:

        A(r) = exp(B log|r|) ((I + C)/2 + sign(r) (I - C)/2).

    All factors commute (C commutes with B, hence with every polynomial in
    B), and the inverse flips B while keeping C."""
    n = A.size
    exp_part = _exp_symbolic(rm.rscale(A.B, -1) if invert else A.B, abs_value)
    half = Fraction(1, 2)
    csplit = [[ex.add(ex.rat(half * (int(i == j) + A.C[i][j])),
                      ex.mul(sign_value,
                             ex.rat(half * (int(i == j) - A.C[i][j]))))
               for j in range(n)] for i in range(n)]
    return symmat.mat_mul(exp_part, csplit)


def member_symbolic(G: GroupId, M: List[List[ex.Expr]],
                    policy: ZeroTestPolicy) -> bool:
    """M, a matrix of expressions, lies in G at the zero test's sample
    points: the defining residuals vanish and, for GL_k(C) and GL, det M
    does not."""
    res = []
    if G.family == "o":
        res = symmat.mat_sub(symmat.mat_mul(symmat.transpose(M), M), symmat.identity(len(M)))
    elif G.family != "gl":
        J = [[ex.rat(v) for v in row] for row in std_J(G.param)]
        res = (symmat.mat_sub(symmat.mat_mul(symmat.mat_mul(symmat.transpose(M), J), M), J)
               if G.family == "sp" else
               symmat.mat_sub(symmat.mat_mul(M, J), symmat.mat_mul(J, M)))
    if not all_zero((((i, j), v) for i, row in enumerate(res) for j, v in enumerate(row)),
                    policy)[0]:
        return False
    return G.family in ("sp", "o") or not is_zero(symmat.det(M), policy)


def defining_product_symbolic(G: GroupId, M: List[List[ex.Expr]]
                              ) -> List[List[ex.Expr]]:
    """The defining product of N(G) (see the module docstring) for a
    homomorphism M(r) given as expressions in r > 0; M(r)^{-1} is taken as
    M(1/r).  GL has none."""
    if G.family == "o":
        return symmat.mat_mul(symmat.transpose(M), M)
    J = [[ex.rat(v) for v in row] for row in std_J(G.param)]
    if G.family == "sp":
        return symmat.mat_mul(symmat.mat_mul(symmat.mat_mul(symmat.transpose(J),
                                                            symmat.transpose(M)), J), M)
    if G.family == "glc":
        Minv = [[ex.subs(v, {"r": ex.pw(ex.var("r"), Fraction(-1))}) for v in row]
                for row in M]
        # J^{-1} = -J
        return symmat.mat_mul(symmat.mat_mul(symmat.mat_scale(J, ex.rat(-1)), Minv),
                              symmat.mat_mul(J, M))
    raise ValueError("GL is its own normalizer; no defining product")


def scalar_mismatch(P: List[List[ex.Expr]], c: ex.Expr,
                    policy: ZeroTestPolicy) -> Optional[Tuple[int, int]]:
    """The first entry (i, j) at which P differs from c I, or None."""
    n = len(P)
    ok, bad = all_zero((((i, j), ex.sub(P[i][j], c if i == j else ex.ZERO))
                        for i in range(n) for j in range(n)), policy)
    return None if ok else bad[0]


def coset_eq(G: GroupId, A1: DegreeHom, A2: DegreeHom,
             policy: ZeroTestPolicy = DEFAULT_POLICY) -> bool:
    """A1 = A2 mod G: A1(r) A2(r)^{-1} in G for symbolic r > 0 and at r = -1.

    Preconditions: both homs take values in N(G), checked exactly at
    r in {2, -1, 1/3} where the spectral form evaluates exactly, and
    symbolically through the defining product."""
    if A1.size != A2.size or A1.size != G.size:
        raise ValueError("size mismatch")
    pol = policy.with_constraints((ex.Constraint("r", ">", 0),))
    for A in (A1, A2):
        for q in (Fraction(2), Fraction(-1), Fraction(1, 3)):
            try:
                M = hom_eval(A, q)
            except rm.UnsupportedMatrixError:
                continue
            if not in_normalizer(G, M):
                raise NotInNormalizerError(
                    f"hom value at r={q} is not in N({G})")
        # the defining product of A(r) must be a scalar matrix
        M = hom_eval_symbolic(A)
        if G.family == "gl":
            normal = not is_zero(symmat.det(M), pol)
        else:
            P = defining_product_symbolic(G, M)
            normal = scalar_mismatch(P, P[0][0], pol) is None
        if not normal:
            raise NotInNormalizerError(
                f"hom does not take values in N({G}) for symbolic r > 0")
    # A2(r)^{-1} = A2(1/r) since A2 is a homomorphism
    M1 = hom_eval_symbolic(A1)
    M2inv = [[ex.subs(v, {"r": ex.pw(ex.var("r"), Fraction(-1))}) for v in row]
             for row in hom_eval_symbolic(A2)]
    if not member_symbolic(G, symmat.mat_mul(M1, M2inv), pol):
        return False
    # reflection: exact rational check at r = -1
    C = rm.rmul(hom_eval(A1, -1), rm.rinv(hom_eval(A2, -1)))
    return member(G, C)


# ---------------------------------------------------------------------------
# random elements (exact, via the Cayley transform of Lie algebra elements)

def _rand_frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def rand_lie_element(G: GroupId, rng: random.Random) -> rm.Mat:
    n = G.size
    if G.family == "sp":
        k = G.param
        A = [[_rand_frac(rng) for _ in range(k)] for _ in range(k)]
        Bsym = [[Fraction(0)] * k for _ in range(k)]
        Csym = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                Bsym[i][j] = Bsym[j][i] = _rand_frac(rng)
                Csym[i][j] = Csym[j][i] = _rand_frac(rng)
        rows = []
        for i in range(k):
            rows.append(tuple(A[i]) + tuple(Bsym[i]))
        for i in range(k):
            rows.append(tuple(Csym[i]) + tuple(-A[j][i] for j in range(k)))
        return tuple(rows)
    if G.family == "glc":
        k = G.param
        P = [[_rand_frac(rng) for _ in range(k)] for _ in range(k)]
        Q = [[_rand_frac(rng) for _ in range(k)] for _ in range(k)]
        rows = []
        for i in range(k):
            rows.append(tuple(P[i]) + tuple(-Q[i][j] for j in range(k)))
        for i in range(k):
            rows.append(tuple(Q[i]) + tuple(P[i]))
        return tuple(rows)
    if G.family == "o":
        A = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = _rand_frac(rng)
                A[i][j], A[j][i] = v, -v
        return tuple(tuple(row) for row in A)
    return tuple(tuple(_rand_frac(rng) for _ in range(n)) for _ in range(n))


def rand_element(G: GroupId, rng: random.Random) -> rm.Mat:
    """Random exact group element: Cayley transform (I-X)^{-1}(I+X) of a
    random Lie algebra element (O elements land in SO; a reflection is
    mixed in half the time for full O)."""
    for _ in range(50):
        rows, d = rm.qmat(rand_lie_element(G, rng))
        # (I - X) M = I + X, with both sides over the denominator d of X
        minus = [[d * (i == j) - v for j, v in enumerate(row)]
                 for i, row in enumerate(rows)]
        plus = [[d * (i == j) + v for j, v in enumerate(row)]
                for i, row in enumerate(rows)]
        try:
            M = rm.qsolve(rm.QMat(minus, 1), rm.QMat(plus, 1))
        except ZeroDivisionError:
            continue
        if G.family == "o" and rng.random() < 0.5:
            # M diag(-1, 1, ..., 1)
            M = rm.QMat([[-row[0]] + row[1:] for row in M.rows], M.den)
        if _qmember(G, M):
            return rm.to_mat(M)
    raise RuntimeError(f"could not sample an element of {G}")


def centralizer_basis(k: int) -> List[rm.Mat]:
    """Exact basis of the centralizer of the embedded GL_k(C) inside
    gl_{2k}(R), found by solving the commutation system against the block
    generators ((U,0),(0,U)) and ((0,U),(-U,0)) over a basis of U's."""
    n = 2 * k
    gens = []
    for a in range(k):
        for b in range(k):
            # U = E_ab, the matrix unit
            g1 = [[0] * n for _ in range(n)]
            g2 = [[0] * n for _ in range(n)]
            g1[a][b] = g1[k + a][k + b] = 1
            g2[a][k + b], g2[k + a][b] = 1, -1
            gens += [g1, g2]
    rows = []
    for g in gens:
        # (Xg - gX)[i][j] = 0, unknowns X flattened row-major
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for t in range(n):
                    row[i * n + t] += g[t][j]
                    row[t * n + j] -= g[i][t]
                rows.append(row)
    basis = rm.nullspace(rows)
    return [tuple(tuple(vec[i * n + j] for j in range(n)) for i in range(n))
            for vec in basis]
