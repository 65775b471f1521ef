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
subject to C^2 = I and CB = BC; `frames.transition` reads the pair off a
frame.  `frames.degree_coset` decides that A(r) lies in N(G) once per
branch: for r > 0 by one symbolic test, `quotient_symbolic`, and at
r = -1, where A(r) is C, exactly.

The exact arithmetic runs on `ratmat.QMat`.  `rand_element` and
`splitting` return one, and the membership tests take one as it is or
rows of rationals.  Fraction matrices are the public form of `std_J`,
`DegreeHom.B`/`C` and `centralizer_basis`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple, Union

from . import expr as ex
from . import ratmat as rm
from . import symmat
from .zerotest import ZeroTestPolicy, all_zero, is_zero

__all__ = ["GroupId", "SP", "GLC", "O", "GL", "std_J", "member",
           "quotient_symbolic", "normalizer_p", "NotInNormalizerError",
           "splitting", "DegreeHom", "DegreeHomError", "member_symbolic",
           "rand_element", "centralizer_basis"]


class NotInNormalizerError(ValueError):
    pass


class DegreeHomError(ex.InvalidObjectError):
    """A pair (B, C) that defines no degree homomorphism."""


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
    return rm.to_mat(_qJ(k))


@lru_cache(maxsize=None)
def _qJ(k: int) -> rm.QMat:
    n = 2 * k
    return rm.QMat([[(j == i + k) - (i == j + k) for j in range(n)]
                    for i in range(n)], 1)


def _qchecked(G: GroupId, M) -> rm.QMat:
    """M as a QMat (a QMat as it is, other rows through rmat), after
    checking that it is G.size x G.size."""
    if not isinstance(M, rm.QMat):
        M = rm.qmat(rm.rmat(M))
    lengths = [len(row) for row in M.rows]
    if lengths != [G.size] * G.size:
        raise ValueError(f"matrix with row lengths {lengths} does not match "
                         f"{G} (size {G.size})")
    return M


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


def splitting(G: GroupId, value) -> rm.QMat:
    """Section of the normalizer quotient: Sp: diag(I, r I); GLC: I or the
    block swap V; O: r^(1/2) I (r must have an exact rational square root)."""
    n = G.size
    if G.family == "glc":
        if value not in (0, 1):
            raise ValueError("quotient value must be the parity 0 or 1")
        # row i has its 1 in column i + k value (mod n)
        return rm.QMat([[int(j == (i + G.param * value) % n) for j in range(n)]
                        for i in range(n)], 1)
    if G.family == "sp":
        value = Fraction(value)
        if value == 0:
            raise ValueError("quotient value must be nonzero")
        diag = [Fraction(1)] * G.param + [value] * G.param
    elif G.family == "o":
        value = Fraction(value)
        if value <= 0:
            raise ValueError("quotient value must be positive")
        root = rm.rroot(value)
        if root is None:
            raise ValueError(f"{value} has no exact rational square root; "
                             "pick a square value for exact arithmetic")
        diag = [root] * n
    else:
        raise ValueError("GL has a trivial quotient")
    return rm.qmat([[v if i == j else 0 for j in range(n)]
                    for i, v in enumerate(diag)])


# ---------------------------------------------------------------------------
# degree homomorphisms

@dataclass(frozen=True)
class DegreeHom:
    """One-parameter family A(r) = exp(B log r) (r>0), C exp(B log|r|) (r<0)."""

    B: rm.Mat
    C: rm.Mat

    def __post_init__(self):
        B, C = rm.rmat(self.B), rm.rmat(self.C)
        for name, M in (("B", B), ("C", C)):
            if not M or any(len(row) != len(M) for row in M):
                raise DegreeHomError(f"{name} must be a nonempty square matrix")
        if len(C) != len(B):
            raise DegreeHomError("B and C must have the same size")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        qB, qC = rm.qmat(B), rm.qmat(C)
        if rm.qscalar(rm.qmul(qC, qC)) != 1:
            raise DegreeHomError("C^2 must be the identity")
        if not rm.qeq(rm.qmul(qC, qB), rm.qmul(qB, qC)):
            raise DegreeHomError("C must commute with B (hence with exp(Bt))")

    @property
    def size(self) -> int:
        return len(self.B)


def member_symbolic(G: GroupId, M: List[List[ex.Expr]],
                    policy: ZeroTestPolicy) -> bool:
    """M, a matrix of expressions, lies in G at the zero test's sample
    points: the defining residuals vanish and, for GL_k(C) and GL, det M
    does not."""
    res = []
    if G.family == "o":
        res = symmat.mat_sub(symmat.mat_mul(symmat.transpose(M), M), symmat.identity(len(M)))
    elif G.family != "gl":
        J = symmat.mat(std_J(G.param))
        res = (symmat.mat_sub(symmat.mat_mul(symmat.mat_mul(symmat.transpose(M), J), M), J)
               if G.family == "sp" else
               symmat.mat_sub(symmat.mat_mul(M, J), symmat.mat_mul(J, M)))
    if not all_zero((((i, j), v) for i, row in enumerate(res) for j, v in enumerate(row)),
                    policy)[0]:
        return False
    return G.family in ("sp", "o") or not is_zero(symmat.det(M), policy)


def _at_inverse(M: List[List[ex.Expr]]) -> List[List[ex.Expr]]:
    """M(r)^{-1} = M(1/r) for a homomorphism M given in r > 0."""
    return [[ex.subs(v, {"r": ex.pw(ex.var("r"), Fraction(-1))}) for v in row]
            for row in M]


def quotient_symbolic(G: GroupId, M: List[List[ex.Expr]], policy: ZeroTestPolicy
                      ) -> Tuple[Optional[ex.Expr], Optional[Tuple[int, int]]]:
    """Test that a homomorphism M(r), given as expressions in r > 0, takes
    values in N(G): its defining product (see the module docstring) must
    be c(r) I.  Returns (c, None), c = the product's simplified (0, 0)
    entry, or (None, (i, j)) for the first entry that differs from c I.
    GL is its own normalizer, with c = 1."""
    if G.family == "gl":
        return ex.ONE, None
    pol = policy.with_constraints((ex.Constraint("r", ">", 0),))
    if G.family == "o":
        P = symmat.mat_mul(symmat.transpose(M), M)
    else:
        J = symmat.mat(std_J(G.param))
        Jt = symmat.transpose(J)      # = J^{-1}
        P = (symmat.mat_mul(symmat.mat_mul(symmat.mat_mul(Jt, symmat.transpose(M)), J), M)
             if G.family == "sp" else
             symmat.mat_mul(symmat.mat_mul(Jt, _at_inverse(M)), symmat.mat_mul(J, M)))
    c = ex.simplify(P[0][0], pol.constraints)
    n = len(P)
    ok, bad = all_zero((((i, j), ex.sub(P[i][j], c if i == j else ex.ZERO))
                        for i in range(n) for j in range(n)), pol)
    return (c, None) if ok else (None, bad[0])


# ---------------------------------------------------------------------------
# random elements (exact, via the Cayley transform of Lie algebra elements)

def _rand_frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 4))


def _rand_lie_element(G: GroupId, rng: random.Random) -> rm.Mat:
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


def rand_element(G: GroupId, rng: random.Random) -> rm.QMat:
    """Random exact group element, as a QMat: Cayley transform
    (I-X)^{-1}(I+X) of a random Lie algebra element (O elements land in SO;
    a reflection is mixed in half the time for full O)."""
    for _ in range(50):
        rows, d = rm.qmat(_rand_lie_element(G, rng))
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
            return M
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
