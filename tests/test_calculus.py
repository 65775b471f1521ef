import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homogeo import expr as ex
from homogeo import symmat
from homogeo.chart import Chart, ChartError, SmoothMap
from homogeo.linebundle import DEG0, DEG1, LineBundleScenario
from homogeo.metric import DegeneracyError, christoffel, riemann
from homogeo.tensors import (KForm, SymTensor2, VectorField, coordinate_field,
                             d, interior, lie_bracket, lie_derivative, one_form,
                             pullback, pullback_sym, wedge)
from homogeo.zerotest import ZeroTestPolicy, is_zero

from homogeo.parser import parse

from conftest import (FUNCTION_DSL, RATIONAL_DSL, float_value, rand_point, rand_poly,
                      vf_apply_numeric)

B2 = Chart("b2", ("x", "y"))
B3 = Chart("b3", ("x", "y", "z"))
TOTAL = Chart("tot", ("u", "x", "p", "mu"), (ex.Constraint("mu", ">", 0),))


def rand_field(rng, chart):
    return VectorField(chart, tuple(rand_poly(rng, chart.coords)
                                    for _ in range(chart.dim)))


def rand_form(rng, chart, degree):
    from itertools import combinations
    coeffs = {idx: rand_poly(rng, chart.coords)
              for idx in combinations(range(chart.dim), degree)}
    return KForm(chart, degree, coeffs)


def forms_equal(a, b, pol=ZeroTestPolicy()):
    keys = set(a.coeffs) | set(b.coeffs)
    return all(is_zero(ex.sub(a.coeff(k), b.coeff(k)), pol) for k in keys)


# -- exterior derivative -------------------------------------------------------

def test_d_coordinate_one_form():
    w = one_form(B2, [ex.ZERO, ex.var("x")])   # x dy
    assert dict(d(w).coeffs) == {(0, 1): ex.ONE}


def test_d_constant_two_form():
    w = KForm(B2, 2, {(0, 1): ex.ONE})
    assert not d(w).coeffs


def test_d_darboux_potential():
    mu, p = ex.var("mu"), ex.var("p")
    w = one_form(TOTAL, [mu, ex.neg(ex.mul(mu, p)), ex.ZERO, ex.ZERO])
    got = d(w)
    want = {(0, 3): ex.rat(-1), (1, 3): p, (1, 2): mu}
    assert dict(got.coeffs) == want


def test_dd_zero_random():
    rng = random.Random(5)
    for degree in (0, 1, 2):
        for _ in range(50):
            w = rand_form(rng, B3, degree)
            assert all(is_zero(c) for c in d(d(w)).coeffs.values())


# -- wedge ---------------------------------------------------------------------

def test_wedge_nilpotent():
    dx = one_form(B3, [1, 0, 0])
    assert not wedge(dx, dx).coeffs


def test_wedge_convention_pin():
    dx = one_form(B3, [1, 0, 0])
    dy = one_form(B3, [0, 1, 0])
    w = wedge(dx, dy)
    assert w(coordinate_field(B3, 0), coordinate_field(B3, 1)) is ex.ONE
    assert w(coordinate_field(B3, 1), coordinate_field(B3, 0)) is ex.rat(-1)


def test_wedge_top_form():
    dx = one_form(B3, [1, 0, 0])
    dy = one_form(B3, [0, 1, 0])
    dz = one_form(B3, [0, 0, 1])
    top = wedge(dz, wedge(dx, dy))
    assert dict(top.coeffs) == {(0, 1, 2): ex.ONE}


def test_form_index_must_strictly_increase():
    assert KForm(B3, 3, {(0, 1, 2): 1}).coeffs == {(0, 1, 2): ex.ONE}
    for idx in ((1, 0), (1, 1), (0, 2, 1), (0, 0, 2)):
        with pytest.raises(ChartError) as err:
            KForm(B3, len(idx), {idx: 1})
        assert str(err.value) == f"index {idx} is not strictly increasing"


def test_wedge_chart_mismatch():
    with pytest.raises(ChartError):
        wedge(one_form(B2, [1, 0]), one_form(B3, [1, 0, 0]))


def test_wedge_graded_commutative():
    rng = random.Random(6)
    a = rand_form(rng, B3, 1)
    b = rand_form(rng, B3, 2)
    lhs = wedge(a, b)
    rhs = wedge(b, a)  # (-1)^{1*2} = +1
    assert forms_equal(lhs, rhs)


# -- brackets ------------------------------------------------------------------

def test_bracket_spec_examples():
    X = VectorField(B2, (ex.ZERO, ex.var("x")))   # x d_y
    Y = VectorField(B2, (ex.ONE, ex.ZERO))        # d_x
    assert lie_bracket(X, Y).comps == (ex.ZERO, ex.rat(-1))

    T = Chart("t", ("x", "mu"), (ex.Constraint("mu", ">", 0),))
    E = VectorField(T, (ex.ZERO, ex.var("mu")))
    F = VectorField(T, (ex.var("mu"), ex.ZERO))
    assert lie_bracket(E, F).comps == (ex.var("mu"), ex.ZERO)

    assert lie_bracket(coordinate_field(B2, 0),
                       coordinate_field(B2, 1)).comps == (ex.ZERO, ex.ZERO)


def test_bracket_against_composition_oracle():
    # [X, Y](f) = X(Y(f)) - Y(X(f)) evaluated numerically
    rng = random.Random(7)
    X, Y = rand_field(rng, B2), rand_field(rng, B2)
    br = lie_bracket(X, Y)
    f = rand_poly(rng, B2.coords, degree=3)
    for _ in range(5):
        p = rand_point(rng, B2.coords)
        want = vf_apply_numeric(X, Y(f), p) - vf_apply_numeric(Y, X(f), p)
        got = float_value(br(f), p)
        assert got == pytest.approx(want, rel=1e-4, abs=1e-4)


def test_jacobi_identity_random():
    rng = random.Random(8)
    for _ in range(5):
        X, Y, Z = (rand_field(rng, B2) for _ in range(3))
        total = lie_bracket(X, lie_bracket(Y, Z)) + \
            lie_bracket(Y, lie_bracket(Z, X)) + \
            lie_bracket(Z, lie_bracket(X, Y))
        assert all(is_zero(c) for c in total.comps)


# -- interior / transport --------------------------------------------------------

def test_interior_first_slot():
    du_dx = wedge(one_form(TOTAL, [1, 0, 0, 0]), one_form(TOTAL, [0, 1, 0, 0]))
    got = interior(coordinate_field(TOTAL, 0), du_dx)
    assert dict(got.coeffs) == {(1,): ex.ONE}


def test_pullback_scaling_map():
    T = Chart("t", ("x", "mu"), (ex.Constraint("mu", ">", 0),))
    r = ex.var("r")
    h = SmoothMap(T, T, (ex.var("x"), ex.mul(r, ex.var("mu"))))
    dmu = one_form(T, [0, 1])
    assert dict(pullback(h, dmu).coeffs) == {(1,): r}


def full_pullback_sym(f, g):
    """The (a, b) entries of pullback_sym from the full loop: every entry
    built, each g_ij pulled back once per term."""
    jac = f.jacobian()
    n, m = f.target.dim, f.source.dim
    return tuple(tuple(ex.add(*[ex.mul(f.pull_function(g.mat[i][j]), jac[i][a], jac[j][b])
                                for i in range(n) for j in range(n)
                                if not g.mat[i][j].is_zero_literal()])
                       for b in range(m)) for a in range(m))


def test_pullback_sym_pulls_each_entry_once(monkeypatch):
    """One pull_function call per nonzero entry, and the nodes of the full
    loop, on the scaling map, the reflection and a shear whose Jacobian has
    zero and nonconstant entries."""
    scn = LineBundleScenario("ps", ("x", "y"))
    x, y, mu = (ex.var(c) for c in scn.total.coords)
    shear = SmoothMap(scn.total, scn.total,
                      (ex.add(x, ex.mul(2, y)), ex.add(y, ex.mul(x, mu)), mu))
    rng = random.Random(4)
    dense = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            dense[i][j] = dense[j][i] = rand_poly(rng, scn.total.coords)
    sparse = [[v if i == j or {i, j} == {0, 1} else ex.ZERO for j, v in enumerate(row)]
              for i, row in enumerate(dense)]
    calls = []
    pull = SmoothMap.pull_function
    for mat in (dense, sparse):
        g = SymTensor2(scn.total, mat)
        for f in (scn.h_sym(), scn.reflection, shear):
            calls.clear()
            monkeypatch.setattr(SmoothMap, "pull_function",
                                lambda self, e: calls.append(e) or pull(self, e))
            got = pullback_sym(f, g).mat
            assert len(calls) == sum(not v.is_zero_literal() for row in mat for v in row)
            monkeypatch.setattr(SmoothMap, "pull_function", pull)
            want = full_pullback_sym(f, g)
            assert all(got[a][b] is want[a][b] for a in range(3) for b in range(3))


def test_vector_field_homogeneity():
    # (h_r)_* X = phi(r) X, decided component by component
    scn = LineBundleScenario("t", ("x",))
    d_mu = VectorField(scn.total, (ex.ZERO, ex.ONE))
    assert scn.is_homogeneous(scn.euler(), DEG0)
    assert not scn.is_homogeneous(scn.euler(), DEG1)
    assert scn.is_homogeneous(d_mu, DEG1)
    assert not scn.is_homogeneous(d_mu, DEG0)
    # sign(mu) d_x is invariant for r > 0 but flips under the reflection
    odd = VectorField(scn.total, (ex.sign_(scn.mu), ex.ZERO))
    ok, (where, _) = scn.homogeneity_report(odd, DEG0)
    assert not ok and where == "r=-1 reflection, component 0"
    with pytest.raises(ChartError):
        scn.is_homogeneous(VectorField(scn.base, (ex.ONE,)), DEG0)


def test_pullback_commutes_with_d():
    T = Chart("t", ("x", "mu"), (ex.Constraint("mu", ">", 0),))
    r = ex.var("r")
    h = SmoothMap(T, T, (ex.var("x"), ex.mul(r, ex.var("mu"))))
    rng = random.Random(9)
    pol = ZeroTestPolicy(constraints=T.constraints + (ex.Constraint("r", ">", 0),))
    for _ in range(5):
        w = rand_form(rng, T, 1)
        assert forms_equal(pullback(h, d(w)), d(pullback(h, w)), pol)


def test_cartan_magic_formula():
    rng = random.Random(10)
    for degree in (1, 2):
        for _ in range(5):
            X = rand_field(rng, B3)
            w = rand_form(rng, B3, degree)
            lhs = lie_derivative(X, w)
            rhs = interior(X, d(w)) + d(interior(X, w))
            assert forms_equal(lhs, rhs)


# -- metric machinery -------------------------------------------------------------

def test_flat_metric():
    g = SymTensor2(B2, ((ex.ONE, ex.ZERO), (ex.ZERO, ex.ONE)))
    gam = christoffel(g)
    assert all(v is ex.ZERO for plane in gam for row in plane for v in row)
    R = riemann(g)
    assert all(v is ex.ZERO for a in R for b in a for c in b for v in c)


def test_sphere_sectional_curvature_quarter():
    S = Chart("s2", ("th", "ph"), (ex.Constraint("th", ">", Fraction(1, 10)),
                                   ex.Constraint("th", "<", 3)))
    th = ex.var("th")
    g = SymTensor2(S, ((ex.rat(4), ex.ZERO),
                       (ex.ZERO, ex.mul(ex.rat(4), ex.pw(ex.sin_(th), 2)))))
    # R(d_th, d_ph) d_ph = R^l_{ph th ph} d_l, so the sectional curvature of
    # the (th, ph) plane is g_th,th R[0][1][0][1] / (g_th,th g_ph,ph) =
    # R[0][1][0][1] / (4 sin(th)^2), which is 1/4 exactly when R[0][1][0][1]
    # is sin(th)^2
    R = riemann(g)
    pol = ZeroTestPolicy(constraints=S.constraints)
    assert is_zero(ex.sub(R[0][1][0][1], ex.pw(ex.sin_(th), 2)), pol)


def test_cone_metric_is_flat():
    # dR . dR + R^2 g(S^1) in polar coordinates is the flat plane
    P = Chart("polar", ("R", "z"), (ex.Constraint("R", ">", 0),))
    R = ex.var("R")
    g = SymTensor2(P, ((ex.ONE, ex.ZERO), (ex.ZERO, ex.pw(R, 2))))
    pol = ZeroTestPolicy(constraints=P.constraints)
    Rm = riemann(g, pol)
    assert all(is_zero(v, pol) for a in Rm for b in a for c in b for v in c)


def test_flat_radial_sphere_metric_n2():
    # dR . dR + R^2 g(S^2): flat in spherical coordinates
    S = Chart("sph", ("R", "th", "ph"),
              (ex.Constraint("R", ">", 0),
               ex.Constraint("th", ">", Fraction(1, 10)),
               ex.Constraint("th", "<", 3)))
    R, th = ex.var("R"), ex.var("th")
    g = SymTensor2(S, ((ex.ONE, ex.ZERO, ex.ZERO),
                       (ex.ZERO, ex.pw(R, 2), ex.ZERO),
                       (ex.ZERO, ex.ZERO,
                        ex.mul(ex.pw(R, 2), ex.pw(ex.sin_(th), 2)))))
    pol = ZeroTestPolicy(constraints=S.constraints)
    Rm = riemann(g, pol)
    assert all(is_zero(v, pol) for a in Rm for b in a for c in b for v in c)


def test_degenerate_metric_raises():
    g = SymTensor2(B2, ((ex.ONE, ex.ONE), (ex.ONE, ex.ONE)))
    with pytest.raises(DegeneracyError):
        christoffel(g)


def test_first_bianchi_random_metrics():
    rng = random.Random(14)
    x, y = ex.var("x"), ex.var("y")
    for trial in range(3):
        f = rand_poly(rng, ("x", "y"), degree=2, terms=2, coeff_den=10)
        g = SymTensor2(B2, ((ex.add(ex.rat(2), ex.pw(f, 2)), f),
                            (f, ex.rat(2))))
        R = riemann(g)
        n = 2
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        total = ex.add(R[l][k][i][j], R[l][i][j][k], R[l][j][k][i])
                        assert is_zero(total)


# -- symbolic matrices against the cofactor-per-entry reference ------------------

def _ref_det(a):
    """Reference determinant: expansion along the first row, memoised for
    one call."""
    memo = {}

    def minor(rows, cols):
        if len(rows) == 1:
            return a[rows[0]][cols[0]]
        if (rows, cols) not in memo:
            parts = []
            for k, c in enumerate(cols):
                if a[rows[0]][c].is_zero_literal():
                    continue
                term = ex.mul(a[rows[0]][c], minor(rows[1:], cols[:k] + cols[k + 1:]))
                parts.append(term if k % 2 == 0 else ex.neg(term))
            memo[rows, cols] = ex.add(*parts) if parts else ex.ZERO
        return memo[rows, cols]

    return minor(tuple(range(len(a))), tuple(range(len(a))))


def _ref_inverse(a):
    """Reference adjugate inverse: each cofactor the determinant of its own
    submatrix, taken afresh."""
    n = len(a)

    def cofactor(i, j):
        sub = [[a[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
        m = _ref_det(sub) if sub else ex.ONE
        return m if (i + j) % 2 == 0 else ex.neg(m)

    dinv = ex.pw(_ref_det(a), Fraction(-1))
    return [[ex.mul(cofactor(j, i), dinv) for j in range(n)] for i in range(n)]


_ENTRY = st.one_of(st.just("0"), RATIONAL_DSL, FUNCTION_DSL)
_MATRIX = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_MATRIX)
def test_inverse_matches_cofactor_reference(texts):
    try:
        a = [[parse(t, names=["x", "y"]) for t in row] for row in texts]
    except (ZeroDivisionError, ex.DomainError):
        return      # a literal division by zero, or sign(0)
    assert symmat.det(a) is _ref_det(a)
    try:
        want = _ref_inverse(a)
    except ZeroDivisionError:   # the determinant is a literal zero
        with pytest.raises(ZeroDivisionError):
            symmat.inverse(a)
        return
    got = symmat.inverse(a)
    assert all(g is w for grow, wrow in zip(got, want) for g, w in zip(grow, wrow))


@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.dictionaries(st.sampled_from([(0, 1), (0, 2), (1, 2)]),
                       st.one_of(RATIONAL_DSL, FUNCTION_DSL)))
def test_two_form_rows_are_its_values_on_coordinate_fields(texts):
    try:
        w = KForm(B3, 2, {idx: parse(t, names=["x", "y"]) for idx, t in texts.items()})
    except (ZeroDivisionError, ex.DomainError):
        return
    W = w.rows()
    for i in range(3):
        for j in range(3):
            assert W[i][j] is w(coordinate_field(B3, i), coordinate_field(B3, j))
