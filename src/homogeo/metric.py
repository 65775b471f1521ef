"""Metric machinery: Christoffel symbols, Riemann curvature, covariant
derivatives of forms.

Curvature convention: R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z
- nabla_[X,Y] Z.  Components are stored as R[l][k][i][j] with
R(d_i, d_j) d_k = R^l_{kij} d_l.  For a constant-curvature metric this
gives g(R(X,Y)Y, X) = kappa (|X|^2 |Y|^2 - g(X,Y)^2).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from . import expr as ex
from . import symmat
from .tensors import KForm, SymTensor2
from .zerotest import ZeroTestPolicy, DEFAULT_POLICY, is_zero

__all__ = ["DegeneracyError", "metric_inverse", "christoffel", "riemann",
           "covariant_derivative_oneform", "covariant_derivative_twoform"]


class DegeneracyError(ex.InvalidObjectError):
    pass


def metric_inverse(g: SymTensor2, policy: ZeroTestPolicy = DEFAULT_POLICY):
    if is_zero(symmat.det(g.rows()), policy.with_constraints(g.chart.constraints)):
        raise DegeneracyError("metric is degenerate at the sampled points")
    return symmat.inverse(g.rows())


def christoffel(g: SymTensor2, policy: ZeroTestPolicy = DEFAULT_POLICY,
                ginv=None) -> List:
    """Gamma[k][i][j] of the Levi-Civita connection,
    Gamma^k_{ij} = g^{kl}(d_i g_{jl} + d_j g_{il} - d_l g_{ij}) / 2.
    Built for j >= i; Gamma[k][j][i] is the node Gamma[k][i][j]."""
    chart = g.chart
    n = chart.dim
    cons = chart.constraints
    if ginv is None:
        ginv = metric_inverse(g, policy)
    dg = [[[ex.diff(g.mat[i][j], chart.coords[k], cons) for j in range(n)]
           for i in range(n)] for k in range(n)]
    half = ex.rat(Fraction(1, 2))
    out = [[[None] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                parts = [ex.mul(ginv[k][l], ex.add(dg[i][j][l], dg[j][i][l],
                                                   ex.neg(dg[l][i][j])))
                         for l in range(n)]
                out[k][i][j] = out[k][j][i] = ex.mul(half, ex.add(*parts))
    return out


def riemann(g: SymTensor2, policy: ZeroTestPolicy = DEFAULT_POLICY,
            gamma=None) -> List:
    """R[l][k][i][j] with R(d_i, d_j) d_k = R^l_{kij} d_l:
    R^l_{kij} = d_i G^l_{jk} - d_j G^l_{ik} + G^l_{im} G^m_{jk} - G^l_{jm} G^m_{ik}.
    Built for i < j; R[l][k][j][i] is neg(R[l][k][i][j]) and R[l][k][i][i]
    is ZERO, the nodes the formula gives there."""
    chart = g.chart
    n = chart.dim
    cons = chart.constraints
    if gamma is None:
        gamma = christoffel(g, policy)
    out = [[[[ex.ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(i + 1, n):
                    parts = [ex.diff(gamma[l][j][k], chart.coords[i], cons),
                             ex.neg(ex.diff(gamma[l][i][k], chart.coords[j], cons))]
                    for m in range(n):
                        parts.append(ex.mul(gamma[l][i][m], gamma[m][j][k]))
                        parts.append(ex.neg(ex.mul(gamma[l][j][m], gamma[m][i][k])))
                    out[l][k][i][j] = ex.add(*parts)
                    out[l][k][j][i] = ex.neg(out[l][k][i][j])
    return out


def covariant_derivative_oneform(gamma, eta: KForm) -> List:
    """(nabla_a eta)_b = d_a eta_b - Gamma^c_{ab} eta_c, returned as [a][b]."""
    chart = eta.chart
    n = chart.dim
    cons = chart.constraints
    out = []
    for a in range(n):
        row = []
        for b in range(n):
            parts = [ex.diff(eta.coeff((b,)), chart.coords[a], cons)]
            for c in range(n):
                parts.append(ex.neg(ex.mul(gamma[c][a][b], eta.coeff((c,)))))
            row.append(ex.add(*parts))
        out.append(row)
    return out


def covariant_derivative_twoform(gamma, w: KForm) -> List:
    """(nabla_a w)_{bc} = d_a w_{bc} - Gamma^d_{ab} w_{dc} - Gamma^d_{ac} w_{bd},
    returned as [a][b][c] with w_{bc} the full antisymmetric coefficient."""
    chart = w.chart
    n = chart.dim
    cons = chart.constraints
    W = w.rows()
    out = []
    for a in range(n):
        plane = []
        for b in range(n):
            row = []
            for c in range(n):
                parts = [ex.diff(W[b][c], chart.coords[a], cons)]
                for dd in range(n):
                    parts.append(ex.neg(ex.mul(gamma[dd][a][b], W[dd][c])))
                    parts.append(ex.neg(ex.mul(gamma[dd][a][c], W[b][dd])))
                row.append(ex.add(*parts))
            plane.append(row)
        out.append(plane)
    return out

