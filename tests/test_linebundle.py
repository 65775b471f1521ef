import random
from fractions import Fraction

import pytest

from homogeo import expr as ex
from homogeo.linebundle import (DEG0, DEG1, DEG_ABS, DEG_SQRT_ABS, DegreeError,
                                LineBundleScenario, NotBasicError, ScalarDegree)
from homogeo.tensors import (KForm, VectorField, d, interior, lie_bracket,
                             one_form)
from homogeo.zerotest import ZeroTestPolicy, is_zero

from conftest import rand_poly

SCN = LineBundleScenario("m", ("u", "x", "p"))


def rand_base_form(rng, scn, degree):
    from itertools import combinations
    return KForm(scn.base, degree,
                 {idx: rand_poly(rng, scn.base.coords)
                  for idx in combinations(range(scn.base.dim), degree)})


def rand_degree1_form(rng, scn, degree):
    """mu * beta + dmu ^ gamma with random base forms: the general
    degree-1 k-form upstairs."""
    beta = rand_base_form(rng, scn, degree)
    gamma = rand_base_form(rng, scn, degree - 1)
    return scn.promote_atiyah_form(beta, gamma)


def forms_equal(a, b, pol):
    keys = set(a.coeffs) | set(b.coeffs)
    return all(is_zero(ex.sub(a.coeff(k), b.coeff(k)), pol) for k in keys)


# -- scenario structure ---------------------------------------------------------

def test_action_composes():
    h_r = SCN.h_sym()
    h_s = SCN.h_scaling(ex.var("s"))
    # h_r after h_s: each component of h_r pulled back along h_s
    comp = tuple(h_s.pull_function(c) for c in h_r.comps)
    pol = SCN.policy_for(ZeroTestPolicy()).with_constraints([ex.Constraint("s", ">", 0)])
    rs = ex.mul(ex.var("r"), ex.var("s"))
    want = tuple(ex.var(c) for c in SCN.base.coords) + (ex.mul(rs, SCN.mu),)
    assert all(is_zero(ex.sub(a, b), pol) for a, b in zip(comp, want))


# -- promotion dictionary ----------------------------------------------------------

def test_section_promotion_examples():
    # a section s promotes to phi(mu) s, which for DEG1 is mu s
    assert ex.mul(DEG1.fiber_factor(), ex.ONE) is SCN.mu
    assert ex.mul(DEG1.fiber_factor(), ex.var("x")) is ex.mul(ex.var("x"), SCN.mu)


def test_promote_descend_round_trip():
    rng = random.Random(31)
    pol = ZeroTestPolicy()
    for _ in range(20):
        s = rand_poly(rng, SCN.base.coords)
        back = SCN.descend_function(ex.mul(DEG1.fiber_factor(), s))
        assert is_zero(ex.sub(back, s), pol)


def test_promote_derivation_identity_is_euler():
    a = SCN.promote_derivation(VectorField(SCN.base, (ex.ZERO,) * 3), ex.ONE)
    assert a.comps == SCN.euler().comps


def test_promote_derivation_coordinate():
    a = SCN.promote_derivation(
        VectorField(SCN.base, (ex.ONE, ex.ZERO, ex.ZERO)), ex.ZERO)
    assert a.comps == (ex.ONE, ex.ZERO, ex.ZERO, ex.ZERO)


def test_promote_derivation_action_matches():
    # (x d_x, x) acting on mu*s equals mu*(x d_x(s) + x s)
    rng = random.Random(32)
    x = ex.var("x")
    X = VectorField(SCN.base, (ex.ZERO, x, ex.ZERO))
    prom = SCN.promote_derivation(X, x)
    pol = ZeroTestPolicy().with_constraints(SCN.total.constraints)
    for _ in range(5):
        s = rand_poly(rng, SCN.base.coords)
        lhs = prom(ex.mul(SCN.mu, s))
        rhs = ex.mul(SCN.mu, ex.add(X(s), ex.mul(x, s)))
        assert is_zero(ex.sub(lhs, rhs), pol)


def test_promotion_is_lie_algebra_map():
    rng = random.Random(33)
    pol = ZeroTestPolicy().with_constraints(SCN.total.constraints)
    for _ in range(5):
        X = VectorField(SCN.base, tuple(rand_poly(rng, SCN.base.coords)
                                        for _ in range(3)))
        Y = VectorField(SCN.base, tuple(rand_poly(rng, SCN.base.coords)
                                        for _ in range(3)))
        f, g = rand_poly(rng, SCN.base.coords), rand_poly(rng, SCN.base.coords)
        up = lie_bracket(SCN.promote_derivation(X, f),
                         SCN.promote_derivation(Y, g))
        # commutator derivation: ([X,Y], X(g) - Y(f))
        down = SCN.promote_derivation(lie_bracket(X, Y),
                                      ex.sub(X(g), Y(f)))
        assert all(is_zero(ex.sub(a, b), pol) for a, b in zip(up.comps, down.comps))


def test_descend_form_examples():
    mu, p = SCN.mu, ex.var("p")
    theta_up = one_form(SCN.total, [mu, ex.neg(ex.mul(mu, p)), ex.ZERO, ex.ZERO])
    got = SCN.descend_form(theta_up)
    assert dict(got.coeffs) == {(0,): ex.ONE, (1,): ex.neg(p)}

    w = KForm(SCN.total, 2, {(1, 2): mu})   # mu dx ^ dp
    got = SCN.descend_form(w)
    assert dict(got.coeffs) == {(0, 1): ex.ONE} or dict(got.coeffs) == {(1, 2): ex.ONE}


def test_descend_form_not_basic():
    dmu_dx = KForm(SCN.total, 2, {(1, 3): ex.rat(-1)})   # dmu ^ dx = -(dx ^ dmu)
    with pytest.raises(NotBasicError):
        SCN.descend_form(dmu_dx)


def test_atiyah_object_verifies_claim():
    # a homogeneity claim is checked by homogeneity_report, which names the
    # failing branch and residual
    ok, (where, rep) = SCN.homogeneity_report(SCN.mu, DEG0)
    assert not ok and where == "r>0 branch, function" and not rep.is_zero
    assert SCN.homogeneity_report(SCN.mu, DEG1) == (True, None)


# -- homogeneity -------------------------------------------------------------------

def test_is_homogeneous_functions():
    assert SCN.is_homogeneous(SCN.mu, DEG1)
    assert not SCN.is_homogeneous(SCN.mu, DEG0)
    assert SCN.is_homogeneous(ex.abs_(SCN.mu), DEG_ABS)
    # |mu| is NOT degree 1: the reflection flips the sign
    assert not SCN.is_homogeneous(ex.abs_(SCN.mu), DEG1)
    assert SCN.is_homogeneous(ex.pw(ex.abs_(SCN.mu), Fraction(1, 2)), DEG_SQRT_ABS)


def test_degree_error_names_a_certificate():
    # the residual is nested squares 20 deep, whose value at every rational
    # draw is over the bit budget, so it has a certificate but no rational
    # witness: the error shows its note
    f = SCN.total.parse("mu*(1 + " + "(1 + x*" * 20 + "x" + ")^2" * 20 + "*mu)")
    with pytest.raises(DegreeError, match=r"residual \{'note': 'nonzero residue \d+ "
                       r"mod p = \d+ at a uniform point; no rational sample is "
                       r"a witness'\}$"):
        SCN.descend_function(f)


def test_homogeneity_check_shows_a_certificate(certificate_verdicts):
    from homogeo.scenarios import _homogeneity_check
    check = _homogeneity_check(SCN, ex.mul(ex.var("x"), ex.pw(SCN.mu, 2)), DEG1,
                               ZeroTestPolicy(), "x*mu^2 has degree 1")
    assert check["verdict"] == "fail"
    assert check["witness"] == {"note": certificate_verdicts}


def test_is_homogeneous_darboux_form():
    mu, p = SCN.mu, ex.var("p")
    omega = d(one_form(SCN.total, [mu, ex.neg(ex.mul(mu, p)), ex.ZERO, ex.ZERO]))
    assert SCN.is_homogeneous(omega, DEG1)


def test_degree_arithmetic():
    rng = random.Random(34)
    pol = ZeroTestPolicy()
    degs = [DEG0, DEG1, DEG_ABS, DEG_SQRT_ABS, ScalarDegree(2, "odd")]
    for _ in range(10):
        d1, d2 = rng.choice(degs), rng.choice(degs)
        f1 = ex.mul(d1.fiber_factor(), rand_poly(rng, SCN.base.coords))
        f2 = ex.mul(d2.fiber_factor(), rand_poly(rng, SCN.base.coords))
        assert SCN.is_homogeneous(ex.mul(f1, f2), d1 * d2, pol)


def test_scalar_degree_composition():
    assert DEG1 * DEG1 == ScalarDegree(2, "even")
    assert DEG1 * DEG_ABS == ScalarDegree(2, "odd")
    assert (DEG_SQRT_ABS * DEG_SQRT_ABS) == DEG_ABS


# -- homotopy and acyclicity -----------------------------------------------------

def test_homotopy_identity_random():
    rng = random.Random(35)
    pol = ZeroTestPolicy().with_constraints(SCN.total.constraints)
    for degree in (1, 2, 3):
        for _ in range(7):
            w = rand_degree1_form(rng, SCN, degree)
            # d_D and i_I of the derivation complex are d and i_E upstairs
            h = d(interior(SCN.euler(), w)) + interior(SCN.euler(), d(w))
            assert forms_equal(h, w, pol)


def test_acyclicity_closed_forms_are_exact():
    rng = random.Random(36)
    pol = ZeroTestPolicy().with_constraints(SCN.total.constraints)
    for _ in range(10):
        beta = rand_base_form(rng, SCN, 2)
        closed = d(SCN.include_form(beta).scale(SCN.mu))   # exact, hence closed
        primitive = interior(SCN.euler(), closed)
        assert forms_equal(d(primitive), closed, pol)


def test_d_D_squares_to_zero():
    rng = random.Random(37)
    w = rand_degree1_form(rng, SCN, 1)
    dd = d(d(w))
    assert all(is_zero(c) for c in dd.coeffs.values())


def test_i_I_of_promoted_theta_vanishes():
    theta = one_form(SCN.base, [ex.ONE, ex.neg(ex.var("p")), ex.ZERO])
    up = SCN.include_form(theta).scale(SCN.mu)
    contracted = interior(SCN.euler(), up)
    assert all(is_zero(c) for c in contracted.coeffs.values())


def test_descend_derivation_round_trip():
    rng = random.Random(38)
    X = VectorField(SCN.base, tuple(rand_poly(rng, SCN.base.coords)
                                    for _ in range(3)))
    f = rand_poly(rng, SCN.base.coords)
    up = SCN.promote_derivation(X, f)
    Xb, fb = SCN.descend_derivation(up)
    pol = ZeroTestPolicy()
    assert all(is_zero(ex.sub(a, b), pol) for a, b in zip(Xb.comps, X.comps))
    assert is_zero(ex.sub(fb, f), pol)
    # a non-promoted field is rejected
    bad = VectorField(SCN.total, (SCN.mu, ex.ZERO, ex.ZERO, ex.ZERO))
    with pytest.raises(DegreeError):
        SCN.descend_derivation(bad)
