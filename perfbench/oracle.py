"""Independent curvature oracle for the generated metric triples.

The Gaussian curvature K = R_1212 / det g of the base metric is computed
twice at rational points: by the Brioschi formula in sympy, built from the
triple's coefficients without homogeo's parser, and from
`homogeo.metric.riemann` on the same DSL strings the scenario files carry.
The two must agree exactly.  This runs outside the timed region.
"""

from __future__ import annotations

from fractions import Fraction

import inputs

POINTS = ((Fraction(1, 3), Fraction(-1, 2)), (Fraction(2, 7), Fraction(3, 5)),
          (Fraction(-3, 4), Fraction(1, 5)))


def brioschi(triple: dict, point):
    """K at `point` by the Brioschi formula, as a sympy Rational."""
    import sympy as sp
    x, y = sp.symbols("x y")

    def entry(coeffs):
        a, b, c = (sp.Rational(q.numerator, q.denominator) for q in coeffs)
        return a + b * x + c * y

    P = [[entry(e) for e in row] for row in triple["P"]]
    E = 1 + P[0][0] ** 2 + P[1][0] ** 2
    F = P[0][0] * P[0][1] + P[1][0] * P[1][1]
    G = 1 + P[0][1] ** 2 + P[1][1] ** 2
    at = {x: sp.Rational(point[0].numerator, point[0].denominator),
          y: sp.Rational(point[1].numerator, point[1].denominator)}

    def v(expr, *wrt):
        return (sp.diff(expr, *wrt) if wrt else expr).subs(at)

    half = sp.Rational(1, 2)
    m1 = sp.Matrix([
        [-half * v(E, y, y) + v(F, x, y) - half * v(G, x, x),
         half * v(E, x), v(F, x) - half * v(E, y)],
        [v(F, y) - half * v(G, x), v(E), v(F)],
        [half * v(G, y), v(F), v(G)]])
    m2 = sp.Matrix([
        [0, half * v(E, y), half * v(G, x)],
        [half * v(E, y), v(E), v(F)],
        [half * v(G, x), v(F), v(G)]])
    return (m1.det() - m2.det()) / (v(E) * v(G) - v(F) ** 2) ** 2


def homogeo_curvature(triple: dict):
    """K = g(R(d_x, d_y) d_y, d_x) / det g as a homogeo expression, with
    R[l][k][i][j] = R^l_{kij} from homogeo.metric.riemann."""
    from homogeo import expr as ex
    from homogeo.linebundle import LineBundleScenario
    from homogeo.metric import riemann
    from homogeo.tensors import SymTensor2
    base = LineBundleScenario("oracle", inputs.COORDS).base
    g = SymTensor2(base, tuple(tuple(base.parse(s) for s in row)
                               for row in inputs.metric_dsl(triple)))
    R = riemann(g)
    r1212 = ex.add(*[ex.mul(g.mat[0][l], R[l][1][0][1]) for l in range(2)])
    det = ex.sub(ex.mul(g.mat[0][0], g.mat[1][1]), ex.mul(g.mat[0][1], g.mat[1][0]))
    return ex.div(r1212, det)


def mismatches(triples: dict):
    """Names of the triples on which the two curvature values disagree,
    with a reason each."""
    from homogeo import expr as ex
    bad = {}
    for name, triple in triples.items():
        try:
            K = homogeo_curvature(triple)
            for point in POINTS:
                want = brioschi(triple, point)
                got = ex.eval_exact(K, dict(zip(inputs.COORDS, point)))
                if got != Fraction(int(want.p), int(want.q)):
                    bad[name] = f"curvature at {point}: homogeo {got}, sympy {want}"
                    break
        except Exception as err:   # a broken kernel is a failed check, not a crash
            bad[name] = f"curvature oracle raised {err!r}"
    return bad
