"""Square-root-degree orthogonal frame structures: the (g, eta) dictionary,
the derivation-complex Levi-Civita connection and its curvature, the four
curvature tensors of the explicit formulas, and the sphere flat chart.

The derivation basis of the trivialized density bundle is (I, D_1..D_n)
with D_i = d_i + eta_i I.  Brackets: [D_i, D_j] = (deta)_{ij} I, [I, .] = 0.
The metric pairing G has Gram diag(1, g) over this basis.  The connection
is produced by the Koszul formula, where the first-order action of a basis
element on coefficient sections is D_i * f = d_i f + eta_i f and I * f = f
(this last twist is what makes the fiber direction curved).  Curvature of
the connection is compared against the closed-form expressions in the four
tensors A, B, C, D; the two pipelines share no code, so their agreement
pins every sign and slot convention at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Dict, List, Optional, Tuple

from . import expr as ex
from . import symmat
from .chart import Chart, ChartError, SmoothMap
from .frames import Frame, require_coset
from .groups import O as O_GROUP
from .linebundle import DEG0, DEG_ABS, DEG_SQRT_ABS, LineBundleScenario
from .metric import (DegeneracyError, christoffel, covariant_derivative_oneform,
                     covariant_derivative_twoform, metric_inverse, riemann)
from .tensors import KForm, SymTensor2, VectorField, d, one_form, pullback_sym
from .zerotest import ZeroTestPolicy, DEFAULT_POLICY, all_zero, is_zero, sample_values

__all__ = ["MetricTriple", "AlgebroidMetric", "AlgebroidConnection",
           "triple_to_G", "koszul_connection", "curvature_RD",
           "tensors_ABCD", "verify_rd_formulas", "RdFormulaReport",
           "triple_to_gtilde", "gtilde_to_triple", "frame_to_gtilde",
           "gtilde_frame", "sphere_triple", "sphere_flat_chart",
           "SphereChartReport", "flatness_report", "FlatnessReport"]


@dataclass(frozen=True)
class MetricTriple:
    scenario: LineBundleScenario
    g: SymTensor2   # definite metric on the base
    eta: KForm      # connection 1-form on the base

    def __post_init__(self):
        if self.g.chart != self.scenario.base:
            raise ChartError("metric must live on the base chart")
        if self.eta.chart != self.scenario.base or self.eta.degree != 1:
            raise ChartError("eta must be a 1-form on the base chart")

    def check_definite(self, policy: ZeroTestPolicy = DEFAULT_POLICY):
        """Positive definiteness: every leading principal minor is > 0 at
        each point of zerotest.sample_values (an undefined value fails)."""
        chart, rows = self.g.chart, self.g.rows()
        minors = [symmat.det([row[:lead] for row in rows[:lead]])
                  for lead in range(1, chart.dim + 1)]
        pol = policy.with_constraints(chart.constraints)
        bad = [lead for _, vals in sample_values(minors, list(chart.coords), pol, 0xDEF1)
               for lead, v in enumerate(vals, 1) if v is None or v <= 0]
        if bad:
            raise DegeneracyError(
                f"metric is not positive definite: leading {min(bad)}-minor "
                f"nonpositive at a sample point")


@dataclass(frozen=True)
class AlgebroidMetric:
    """Gram matrix over the twisted derivation basis (I, D_1..D_n)."""

    scenario: LineBundleScenario
    eta: KForm
    gram: Tuple[Tuple[ex.Expr, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.gram)

    def bracket_coeffs(self) -> List[List[List[ex.Expr]]]:
        """c[d][a][b] with [E_a, E_b] = sum_d c^d_{ab} E_d."""
        n1 = self.dim
        out = [[[ex.ZERO] * n1 for _ in range(n1)] for _ in range(n1)]
        out[0][1:] = [[ex.ZERO] + row for row in d(self.eta).rows()]
        return out

    def diamond(self, a: int, f: ex.Expr) -> ex.Expr:
        """First-order action of the basis derivation E_a on a coefficient."""
        chart = self.scenario.base
        if a == 0:
            return f
        i = a - 1
        return ex.add(ex.diff(f, chart.coords[i], chart.constraints),
                      ex.mul(self.eta.coeff((i,)), f))

    def anchor_apply(self, a: int, f: ex.Expr) -> ex.Expr:
        chart = self.scenario.base
        if a == 0:
            return ex.ZERO
        return ex.diff(f, chart.coords[a - 1], chart.constraints)


def triple_to_G(triple: MetricTriple) -> AlgebroidMetric:
    """Gram blocks G(I, I) = 1, G(I, D_i) = 0, G(D_i, D_j) = g_ij."""
    n = triple.scenario.base.dim
    rows = [[ex.ONE] + [ex.ZERO] * n]
    for i in range(n):
        rows.append([ex.ZERO] + [triple.g.mat[i][j] for j in range(n)])
    return AlgebroidMetric(triple.scenario, triple.eta,
                           tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class AlgebroidConnection:
    metric: AlgebroidMetric
    gamma: Tuple   # gamma[d][a][b]: coefficient of E_d in nabla_{E_a} E_b

    def symmetry_residuals(self):
        """((d, a, b), residual) of torsion-freeness,
        gamma^d_ab - gamma^d_ba = c^d_ab: with metricity_residuals, the
        conditions that define the Levi-Civita connection koszul_connection
        solves."""
        n1 = self.metric.dim
        c = self.metric.bracket_coeffs()
        for a in range(n1):
            for b in range(n1):
                for dd in range(n1):
                    yield ((dd, a, b),
                           ex.sub(ex.sub(self.gamma[dd][a][b], self.gamma[dd][b][a]),
                                  c[dd][a][b]))

    def metricity_residuals(self):
        """((a, b, c), residual) of metricity,
        a*G(b, c) = G(nabla_a b, c) + G(b, nabla_a c)."""
        G = self.metric.gram
        n1 = self.metric.dim
        for a in range(n1):
            for b in range(n1):
                for cc in range(n1):
                    lhs = self.metric.diamond(a, G[b][cc])
                    rhs_parts = []
                    for dd in range(n1):
                        rhs_parts.append(ex.mul(self.gamma[dd][a][b], G[dd][cc]))
                        rhs_parts.append(ex.mul(self.gamma[dd][a][cc], G[b][dd]))
                    yield ((a, b, cc), ex.sub(lhs, ex.add(*rhs_parts)))


def koszul_connection(G: AlgebroidMetric,
                      policy: ZeroTestPolicy = DEFAULT_POLICY) -> AlgebroidConnection:
    """2 G(nabla_a b, c) = a*G(bc) + b*G(ac) - c*G(ab)
                           + G([a,b],c) + G([c,a],b) + G([c,b],a)."""
    n1 = G.dim
    gram = [list(row) for row in G.gram]
    pol = policy.with_constraints(G.scenario.base.constraints)
    det = symmat.det(gram)
    if is_zero(det, pol):
        raise DegeneracyError("algebroid metric is degenerate at samples")
    ginv = symmat.inverse(gram)
    c = G.bracket_coeffs()

    def gbr(a, b, cc):
        return ex.add(*[ex.mul(c[dd][a][b], gram[dd][cc]) for dd in range(n1)])

    K = [[[ex.ZERO] * n1 for _ in range(n1)] for _ in range(n1)]
    for a in range(n1):
        for b in range(n1):
            for cc in range(n1):
                K[a][b][cc] = ex.add(
                    G.diamond(a, gram[b][cc]),
                    G.diamond(b, gram[a][cc]),
                    ex.neg(G.diamond(cc, gram[a][b])),
                    gbr(a, b, cc), gbr(cc, a, b), gbr(cc, b, a))
    half = ex.rat(Fraction(1, 2))
    gamma = [[[ex.ZERO] * n1 for _ in range(n1)] for _ in range(n1)]
    for a in range(n1):
        for b in range(n1):
            for dd in range(n1):
                gamma[dd][a][b] = ex.simplify(
                    ex.mul(half, ex.add(*[ex.mul(ginv[dd][cc], K[a][b][cc])
                                          for cc in range(n1)])),
                    G.scenario.base.constraints)
    return AlgebroidConnection(G, tuple(tuple(tuple(rr) for rr in plane)
                                        for plane in gamma))


def curvature_RD(conn: AlgebroidConnection) -> List:
    """R[e][c][a][b]: coefficient of E_e in R(E_a, E_b) E_c, using the
    anchor Leibniz rule (the fiber basis element has zero anchor).  Built
    for a < b, as R(X, Y) = -R(Y, X): R[e][c][b][a] is neg(R[e][c][a][b])
    and R[e][c][a][a] is ZERO, the nodes a loop over every (a, b) builds
    unless a bracket coefficient c[d][a][b] is a sum."""
    G = conn.metric
    n1 = G.dim
    gamma = conn.gamma
    c = G.bracket_coeffs()
    out = [[[[ex.ZERO] * n1 for _ in range(n1)] for _ in range(n1)]
           for _ in range(n1)]
    for a in range(n1):
        for b in range(a + 1, n1):
            for cc in range(n1):
                for e in range(n1):
                    parts = [G.anchor_apply(a, gamma[e][b][cc]),
                             ex.neg(G.anchor_apply(b, gamma[e][a][cc]))]
                    for dd in range(n1):
                        parts.append(ex.mul(gamma[dd][b][cc], gamma[e][a][dd]))
                        parts.append(ex.neg(ex.mul(gamma[dd][a][cc], gamma[e][b][dd])))
                        parts.append(ex.neg(ex.mul(c[dd][a][b], gamma[e][dd][cc])))
                    out[e][cc][a][b] = ex.simplify(ex.add(*parts),
                                                   G.scenario.base.constraints)
                    out[e][cc][b][a] = ex.neg(out[e][cc][a][b])
    return out


# ---------------------------------------------------------------------------
# the closed-form curvature tensors

def tensors_ABCD(triple: MetricTriple, policy: ZeroTestPolicy = DEFAULT_POLICY
                 ) -> Dict[str, object]:
    """A (1,1), B and C (1,2), D (1,3) plus their lowered-index variants,
    built from the Levi-Civita data of g and the 1-form eta."""
    scn = triple.scenario
    chart = scn.base
    n = chart.dim
    g = triple.g
    eta = triple.eta
    ginv = metric_inverse(g, policy.with_constraints(chart.constraints))
    gamma = christoffel(g, policy, ginv=ginv)
    Rm = riemann(g, policy, gamma=gamma)
    w = d(eta)
    W = w.rows()
    nabla_eta = covariant_derivative_oneform(gamma, eta)
    nabla_w = covariant_derivative_twoform(gamma, w)
    eta_up = [ex.add(*[ex.mul(ginv[a][b], eta.coeff((b,))) for b in range(n)])
              for a in range(n)]
    eta_norm2 = ex.add(*[ex.mul(eta_up[a], eta.coeff((a,))) for a in range(n)])
    # (i_{eta#} w)_c = sum_a eta^a w_{ac}
    iw = [ex.add(*[ex.mul(eta_up[a], W[a][cidx]) for a in range(n)])
          for cidx in range(n)]

    def S(i, j):
        """i_j nabla_i eta + i_i nabla_j eta - eta_i eta_j + |eta|^2 g_ij."""
        return ex.add(nabla_eta[i][j], nabla_eta[j][i],
                      ex.neg(ex.mul(eta.coeff((i,)), eta.coeff((j,)))),
                      ex.mul(eta_norm2, g.mat[i][j]))

    A_low = [[ex.simplify(
        ex.add(S(i, j),
               ex.neg(ex.add(*[ex.mul(ginv[c][dd], W[i][c], W[j][dd])
                               for c in range(n) for dd in range(n)]))),
        chart.constraints) for j in range(n)] for i in range(n)]
    A_up = symmat.mat_mul(ginv, A_low)

    B_low = [[[ex.simplify(
        ex.add(ex.mul(ex.rat(2), nabla_w[i][j][c]),
               ex.neg(ex.mul(ex.add(eta.coeff((j,)), iw[j]), g.mat[i][c])),
               ex.mul(g.mat[i][j], ex.add(eta.coeff((c,)), iw[c]))),
        chart.constraints)
        for c in range(n)] for j in range(n)] for i in range(n)]
    B_up = [[[ex.add(*[ex.mul(ginv[e][c], B_low[i][j][c]) for c in range(n)])
              for j in range(n)] for i in range(n)] for e in range(n)]
    # B_up[e][i][j] = B(d_i, d_j)^e

    # C_low, C_up and D_low are antisymmetric in (i, j): built for i < j,
    # with the negated node at [j][i] and ZERO where i = j
    C_low = [[[ex.ZERO] * n for _ in range(n)] for _ in range(n)]
    C_up = [[[ex.ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, j in combinations(range(n), 2):
        for c in range(n):
            C_low[i][j][c] = ex.sub(B_low[i][j][c], B_low[j][i][c])
            C_low[j][i][c] = ex.neg(C_low[i][j][c])
            C_up[c][i][j] = ex.sub(B_up[c][i][j], B_up[c][j][i])
            C_up[c][j][i] = ex.neg(C_up[c][i][j])

    def R_low(i, j, k, l):
        return ex.add(*[ex.mul(g.mat[l][m], Rm[m][k][i][j]) for m in range(n)])

    def Eterm(i, j, k, l):
        # the first deta-quadratic term carries slots (Z, W); the (W, Z)
        # order fails against the connection pipeline on any (g, eta)
        # with deta != 0
        return ex.add(
            ex.mul(ex.rat(2), R_low(i, j, k, l)),
            ex.mul(g.mat[i][k], g.mat[j][l]),
            ex.mul(S(i, k), g.mat[j][l]),
            ex.neg(ex.mul(ex.add(nabla_eta[i][l], nabla_eta[l][i],
                                 ex.neg(ex.mul(eta.coeff((i,)), eta.coeff((l,))))),
                          g.mat[j][k])),
            ex.mul(W[i][j], W[k][l]),
            ex.mul(W[i][k], W[j][l]))

    D_low = [[[[ex.ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i, j in combinations(range(n), 2):
        for k in range(n):
            for l in range(n):
                D_low[i][j][k][l] = ex.simplify(
                    ex.sub(Eterm(i, j, k, l), Eterm(j, i, k, l)), chart.constraints)
                D_low[j][i][k][l] = ex.neg(D_low[i][j][k][l])
    # D_up in full: g^el times the negated sum D_low[j][i][k][l] is a
    # product node other than the negated product
    D_up = [[[[ex.add(*[ex.mul(ginv[e][l], D_low[i][j][k][l]) for l in range(n)])
               for k in range(n)] for j in range(n)] for i in range(n)]
            for e in range(n)]
    # D_up[e][i][j][k] = D(d_i, d_j, d_k)^e

    return {"A": A_up, "A_low": A_low, "B": B_up, "B_low": B_low,
            "C": C_up, "C_low": C_low, "D": D_up, "D_low": D_low}


@dataclass(frozen=True)
class RdFormulaReport:
    agree: bool
    mismatch: Optional[tuple] = None


def verify_rd_formulas(triple: MetricTriple, t: dict, RD: List,
                       policy: ZeroTestPolicy = DEFAULT_POLICY) -> RdFormulaReport:
    """Curvature of the Koszul connection against the closed-form tensors:
    `t` is `tensors_ABCD` of this triple and `RD` the `curvature_RD` of its
    `koszul_connection`.  A false result is a first-class finding, not an
    error."""
    scn = triple.scenario
    n = scn.base.dim
    pol = policy.with_constraints(scn.base.constraints)
    quarter = ex.rat(Fraction(1, 4))

    def expected(e, cc, a, b):
        if a == 0 and b == 0:
            return ex.ZERO
        if a == 0 and b > 0:
            i = b - 1
            if cc == 0:
                return ex.ZERO if e == 0 else ex.mul(quarter, t["A"][e - 1][i])
            j = cc - 1
            if e == 0:
                return ex.neg(ex.mul(quarter, t["A_low"][i][j]))
            return ex.mul(quarter, t["B"][e - 1][i][j])
        if a > 0 and b == 0:
            v = expected(e, cc, b, a)
            return ex.neg(v)
        i, j = a - 1, b - 1
        if cc == 0:
            return ex.ZERO if e == 0 else ex.neg(ex.mul(quarter, t["C"][e - 1][i][j]))
        k = cc - 1
        if e == 0:
            # +C here (not -C): forced by metric antisymmetry of the
            # curvature together with the third formula, and confirmed by
            # the connection pipeline on random inputs
            return ex.mul(quarter, t["C_low"][i][j][k])
        return ex.mul(quarter, t["D"][e - 1][i][j][k])

    n1 = n + 1
    ok, bad = all_zero((((e, cc, a, b), ex.sub(RD[e][cc][a][b], expected(e, cc, a, b)))
                        for a in range(n1) for b in range(n1)
                        for cc in range(n1) for e in range(n1)), pol)
    return RdFormulaReport(True) if ok else RdFormulaReport(False, bad[0])


# ---------------------------------------------------------------------------
# upstairs metric dictionary

def triple_to_gtilde(triple: MetricTriple, u: ex.Expr = ex.ONE) -> SymTensor2:
    """The degree-|r| metric upstairs.  In the canonical trivialization
    (u = 1) the coefficient matrix is

        T_xx = |mu| (g + eta eta^t),  T_x,mu = -sign(mu) eta,
        T_mu,mu = 1/|mu|,

    written with abs/sign so the reflection mu -> -mu substitutes cleanly
    (on the working branch mu > 0 this is mu, -eta, 1/mu).  A non-unit u
    composes this with the fiber rescaling nu = mu u(x)."""
    scn = triple.scenario
    n = scn.base.dim
    amu = ex.abs_(scn.mu)
    smu = ex.sign_(scn.mu)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(ex.mul(amu, ex.add(triple.g.mat[i][j],
                                          ex.mul(triple.eta.coeff((i,)),
                                                 triple.eta.coeff((j,))))))
        row.append(ex.neg(ex.mul(smu, triple.eta.coeff((i,)))))
        rows.append(row)
    rows.append([ex.neg(ex.mul(smu, triple.eta.coeff((j,)))) for j in range(n)]
                + [ex.pw(amu, Fraction(-1))])
    gt = SymTensor2(scn.total, tuple(tuple(r) for r in rows))
    if u is ex.ONE:
        return gt
    scn.base.check_owns(u)
    comps = tuple(ex.var(c) for c in scn.base.coords) + (ex.mul(scn.mu, u),)
    rescale = SmoothMap(scn.total, scn.total, comps)
    return pullback_sym(rescale, gt)


def gtilde_to_triple(gt: SymTensor2, scn: LineBundleScenario,
                     policy: ZeroTestPolicy = DEFAULT_POLICY
                     ) -> Tuple[MetricTriple, ex.Expr]:
    """Recover (g, eta) in the canonical trivialization plus the section
    coefficient u that rescales the given trivialization to it."""
    if gt.chart != scn.total:
        raise ChartError("metric must live on the total chart")
    pol = scn.policy_for(policy)
    n = scn.base.dim
    mu = scn.mu
    E = scn.euler()
    u_up = gt(E, E)
    u = scn.descend_function(u_up, DEG_ABS, policy)   # raises if not homogeneous
    if is_zero(u, pol):
        raise DegeneracyError("g(E, E) vanishes")
    # move to the trivialization where the fiber coordinate is nu = mu u(x)
    comps = tuple(ex.var(c) for c in scn.base.coords) + (ex.div(mu, u),)
    to_canonical = SmoothMap(scn.total, scn.total, comps)
    T = pullback_sym(to_canonical, gt)
    eta_coeffs = []
    for i in range(n):
        val = ex.neg(T.mat[i][n])
        eta_coeffs.append(scn.descend_function(val, DEG0, policy))
    eta = one_form(scn.base, eta_coeffs)
    g_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            val = ex.sub(ex.div(T.mat[i][j], mu),
                         ex.mul(eta_coeffs[i], eta_coeffs[j]))
            row.append(scn.descend_function(val, DEG0, policy))
        g_rows.append(tuple(row))
    g = SymTensor2(scn.base, tuple(g_rows))
    triple = MetricTriple(scn, g, eta)
    triple.check_definite(policy)
    return triple, u


def frame_to_gtilde(frame: Frame, policy: ZeroTestPolicy = DEFAULT_POLICY) -> SymTensor2:
    """Sum of squares of the dual coframe: coefficient matrix (S S^t)^{-1};
    requires the square-root-of-absolute-value degree coset."""
    scn = frame.scenario
    n1 = scn.total.dim
    require_coset(frame, O_GROUP(n1), "O", ex.var("r"), Fraction(1), "|r|^(1/2)", policy)
    S = frame.matrix()
    gram = symmat.mat_mul(S, symmat.transpose(S))
    T = symmat.simplify_mat(symmat.inverse(gram), scn.total.constraints)
    return SymTensor2(scn.total, tuple(tuple(row) for row in T))


def gtilde_frame(gt: SymTensor2, scn: LineBundleScenario,
                 policy: ZeroTestPolicy = DEFAULT_POLICY) -> Frame:
    """An orthonormal frame of a diagonal upstairs metric (sufficient for
    the bundled scenarios; a general Gram-Schmidt would need square roots
    of non-diagonal entries)."""
    n1 = scn.total.dim
    for i in range(n1):
        for j in range(n1):
            if i != j and not gt.mat[i][j].is_zero_literal():
                raise ChartError("orthonormal frame construction needs a "
                                 "diagonal coefficient matrix")
    cols = []
    for a in range(n1):
        comps = [ex.ZERO] * n1
        # simplify without the fiber branch constraint so abs(mu) survives
        # and the frame stays valid under the reflection
        comps[a] = ex.simplify(ex.pw(gt.mat[a][a], Fraction(-1, 2)),
                               scn.base.constraints)
        cols.append(VectorField(scn.total, tuple(comps)))
    return Frame(scn, tuple(cols))


# ---------------------------------------------------------------------------
# spheres

_SPHERE_COORDS = {1: ("z",), 2: ("th", "ph"), 3: ("ps", "th", "ph")}
_ANGLE_BOUNDED = {"th": True, "ps": True, "z": False, "ph": False}


def _sphere_chart_constraints(coords):
    cons = []
    for c in coords:
        if _ANGLE_BOUNDED[c]:
            cons += [ex.Constraint(c, ">", Fraction(1, 10)),
                     ex.Constraint(c, "<", 3)]
    return tuple(cons)


def _sphere_angles(n: int, chart: Chart):
    """The chart's coordinates t_1..t_n (t_n the azimuth) and the sine
    products P_k = sin t_1 ... sin t_(k-1), k = 1..n (P_1 = 1)."""
    if chart.dim != n:
        raise ChartError(f"an {n}-sphere chart has {n} coordinates")
    ts = [chart.var(c) for c in chart.coords]
    return ts, list(accumulate((ex.sin_(t) for t in ts[:-1]), ex.mul, initial=ex.ONE))


def sphere_metric(n: int, chart: Chart) -> SymTensor2:
    """Round metric of the unit n-sphere in spherical coordinates:
    sum_k P_k^2 dt_k^2."""
    _, sines = _sphere_angles(n, chart)
    return SymTensor2(chart, tuple(tuple(ex.pw(p, 2) if i == k else ex.ZERO
                                         for i in range(n))
                                   for k, p in enumerate(sines)))


def sphere_embedding(n: int, chart: Chart) -> Tuple[ex.Expr, ...]:
    """Unit vectors Y^i of the spherical coordinate patch:
    (P_n cos t_n, P_n sin t_n, P_(n-1) cos t_(n-1), ..., P_1 cos t_1)."""
    ts, sines = _sphere_angles(n, chart)
    cosines = [ex.mul(p, ex.cos_(t)) for t, p in zip(ts, sines)]
    return (cosines[-1], ex.mul(sines[-1], ex.sin_(ts[-1])), *cosines[-2::-1])


def sphere_triple(n: int) -> MetricTriple:
    """g = 4 g(S^n), eta = 0 on a spherical coordinate patch."""
    if n not in _SPHERE_COORDS:
        raise ValueError("supported sphere dimensions are 1, 2, 3")
    coords = _SPHERE_COORDS[n]
    scn = LineBundleScenario(f"sphere_n{n}",
                             coords, _sphere_chart_constraints(coords))
    g4 = sphere_metric(n, scn.base).scale(ex.rat(4))
    return MetricTriple(scn, g4, KForm(scn.base, 1, {}))


@dataclass(frozen=True)
class SphereChartReport:
    flat: bool
    chart_reproduces_metric: bool
    homogeneous: bool
    failure: Optional[str] = None


def sphere_flat_chart(n: int, policy: ZeroTestPolicy = DEFAULT_POLICY
                      ) -> SphereChartReport:
    """chi^i = R Y^i with R = 2 |mu|^(1/2): verifies that the upstairs
    metric is flat, equals sum_i dchi^i . dchi^i, and that each chi^i is
    homogeneous of degree |r|^(1/2) (even under the reflection)."""
    triple = sphere_triple(n)
    scn = triple.scenario
    gt = triple_to_gtilde(triple)
    pol = scn.policy_for(policy)
    cons = scn.total.constraints

    R = ex.mul(ex.rat(2), ex.pw(ex.abs_(scn.mu), Fraction(1, 2)))
    chi = tuple(ex.mul(R, y) for y in sphere_embedding(n, scn.base))

    Rm = riemann(gt, policy.with_constraints(cons))
    n1 = scn.total.dim
    idx = range(n1)
    coords = scn.total.coords
    flat, bad_flat = all_zero(
        ((f"curvature entry {(e, k, i, j)} is nonzero", Rm[e][k][i][j])
         for e in idx for k in idx for i in idx for j in idx), pol)
    reproduces, bad_chart = all_zero(
        ((f"sum of chart differentials misses entry {(i, j)}",
          ex.sub(ex.add(*[ex.mul(ex.diff(c, coords[i], cons), ex.diff(c, coords[j], cons))
                          for c in chi]), gt.mat[i][j]))
         for i in idx for j in range(i, n1)), pol)

    hom_failure = None
    for i, c in enumerate(chi):
        ok, bad = scn.homogeneity_report(c, DEG_SQRT_ABS, policy)
        if not ok:
            hom_failure = f"chi^{i} is not homogeneous of degree |r|^(1/2): {bad[0]}"
            break
    # the last failing check names the failure
    failure = hom_failure or next((bad[0] for bad in (bad_chart, bad_flat) if bad), None)
    return SphereChartReport(flat, reproduces, hom_failure is None, failure)


@dataclass(frozen=True)
class FlatnessReport:
    A_zero: bool
    B_zero: bool
    C_zero: bool
    D_zero: bool
    RD_zero: bool
    equivalence_consistent: bool    # (A=B=D=0) <-> (RD = 0)
    witness: Optional[dict] = None


def _entries_last_first(arr, idx=()):
    """(index, entry) for every entry of a nested array of expressions, in
    descending index order: the order in which the reports' witnesses were
    found."""
    if isinstance(arr, ex.Expr):
        yield idx, arr
    else:
        for i in reversed(range(len(arr))):
            yield from _entries_last_first(arr[i], idx + (i,))


def flatness_report(triple: MetricTriple, t: dict, RD: List,
                    policy: ZeroTestPolicy = DEFAULT_POLICY) -> FlatnessReport:
    """Which of A, B, C, D (`t`, the `tensors_ABCD` of this triple) and
    the connection curvature `RD` vanish."""
    pol = policy.with_constraints(triple.scenario.base.constraints)
    sweeps = [all_zero(_entries_last_first(arr), pol)
              for arr in (t["A"], t["B"], t["C"], t["D"], RD)]
    a0, b0, c0, d0, rd0 = (ok for ok, _ in sweeps)
    # the report shows the first failing tensor's witness, so only that
    # one is searched for (a nonzero verdict searches when it is read)
    bad = next((bad for _, bad in sweeps if bad), None)
    return FlatnessReport(a0, b0, c0, d0, rd0,
                          equivalence_consistent=((a0 and b0 and d0) == rd0),
                          witness=bad and {"index": bad[0], **bad[1].witness_fields(str)})
