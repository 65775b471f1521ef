import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homogeo import expr as ex
from homogeo import ratmat as rm
from homogeo.contact import (ContactPair, InvalidPairError, check_pair,
                             frame_to_omega, integrability_report, kernel_basis,
                             omega_to_pair, pair_to_omega, sp_frame_from_omega,
                             standard_darboux_pair, symplectic_basis)
from homogeo.frames import chart_frame, frames_G_equivalent, transition
from homogeo.groups import SP, rand_element
from homogeo.linebundle import DegreeError, LineBundleScenario
from homogeo.metric import DegeneracyError
from homogeo.tensors import KForm, VectorField, one_form, zero_form
from homogeo.zerotest import ZeroTestPolicy, is_zero

from conftest import rand_poly

SCN3 = LineBundleScenario("m3", ("u", "x1", "p1"))


def forms_equal(a, b, pol):
    keys = set(a.coeffs) | set(b.coeffs)
    return all(is_zero(ex.sub(a.coeff(k), b.coeff(k)), pol) for k in keys)


def pairs_equal(p1, p2, pol):
    return forms_equal(p1.theta, p2.theta, pol) and \
        forms_equal(p1.upsilon, p2.upsilon, pol)


def rand_pair(rng, scn, with_upsilon=True, perturb=Fraction(1, 8)):
    """Valid pair: small polynomial perturbation of the standard one."""
    n = scn.base.dim
    coeffs = {(0,): ex.ONE}
    for i in range(1, (n + 1) // 2):
        pert = ex.mul(ex.rat(perturb), rand_poly(rng, scn.base.coords, degree=1))
        coeffs[(i,)] = ex.add(ex.neg(scn.base.var(f"p{i}")), pert)
    theta = KForm(scn.base, 1, coeffs)
    ups = {}
    if with_upsilon and n >= 3:
        from itertools import combinations
        for idx in combinations(range(n), 2):
            if rng.random() < 0.5:
                ups[idx] = ex.mul(ex.rat(perturb),
                                  rand_poly(rng, scn.base.coords, degree=1))
    return ContactPair(scn, theta, KForm(scn.base, 2, ups))


# -- promotion and descent ------------------------------------------------------

def test_pair_to_omega_darboux():
    pair = standard_darboux_pair(2)
    om = pair_to_omega(pair)
    mu, p1 = pair.scenario.mu, ex.var("p1")
    assert dict(om.coeffs) == {(0, 3): ex.rat(-1), (1, 3): p1, (1, 2): mu}


def test_pair_to_omega_k1():
    pair = standard_darboux_pair(1)
    om = pair_to_omega(pair)
    assert dict(om.coeffs) == {(0, 1): ex.rat(-1)}   # -du ^ dmu


def test_pair_to_omega_linearity_in_upsilon():
    scn = SCN3
    theta = KForm(scn.base, 1, {(0,): ex.ONE, (1,): ex.neg(ex.var("p1"))})
    ups = KForm(scn.base, 2, {(1, 2): ex.ONE})
    om0 = pair_to_omega(ContactPair(scn, theta, zero_form(scn.base, 2)))
    om1 = pair_to_omega(ContactPair(scn, theta, ups))
    dif = om1 - om0
    assert dict(dif.coeffs) == {(1, 2): scn.mu}


def test_omega_to_pair_round_trips_random():
    rng = random.Random(61)
    pol1 = ZeroTestPolicy(constraints=SCN3.base.constraints)
    scn1 = LineBundleScenario("k1", ("u",))
    for scn, count in ((scn1, 8), (SCN3, 12)):
        for _ in range(count):
            pair = rand_pair(rng, scn)
            om = pair_to_omega(pair)
            back = omega_to_pair(scn, om)
            assert pairs_equal(pair, back, pol1)


def test_omega_to_pair_closed_gives_zero_upsilon():
    pair = standard_darboux_pair(2)
    om = pair_to_omega(pair)
    back = omega_to_pair(pair.scenario, om)
    assert not back.upsilon.coeffs


def test_omega_to_pair_requires_homogeneity():
    om = KForm(SCN3.total, 2, {(0, 1): ex.ONE})   # degree-0 form
    with pytest.raises(DegreeError):
        omega_to_pair(SCN3, om)


# -- pair validity ---------------------------------------------------------------

def test_check_pair_darboux():
    pair = standard_darboux_pair(2)
    rep = check_pair(pair)
    assert rep.nondeg_on_H
    assert rep.omega_nondegenerate and rep.equivalence_consistent
    assert rep.curvature_routes_agree
    # kernel curvature of the standard pair: R_H(E_a, E_b) = +-1
    piv, basis = kernel_basis(pair)
    assert piv == 0
    vals = {ex.to_dsl(rep.gram[a][b]) for a in range(2) for b in range(2)}
    assert vals == {"0", "1", "-1"}


def test_check_pair_foliation_degenerate():
    scn = SCN3
    pair = ContactPair(scn, one_form(scn.base, [1, 0, 0]), zero_form(scn.base, 2))
    rep = check_pair(pair)
    assert not rep.nondeg_on_H and not rep.omega_nondegenerate
    assert rep.equivalence_consistent


def test_check_pair_upsilon_compensates():
    scn = SCN3
    pair = ContactPair(scn, one_form(scn.base, [1, 0, 0]),
                       KForm(scn.base, 2, {(1, 2): ex.ONE}))
    rep = check_pair(pair)
    assert rep.nondeg_on_H and rep.omega_nondegenerate


def test_check_pair_vanishing_theta():
    scn = SCN3
    pair = ContactPair(scn, zero_form(scn.base, 1), zero_form(scn.base, 2))
    with pytest.raises(InvalidPairError):
        check_pair(pair)


def test_vanishing_theta_names_the_point_in_dsl():
    pair = ContactPair(SCN3, zero_form(SCN3.base, 1), zero_form(SCN3.base, 2))
    with pytest.raises(InvalidPairError) as err:
        check_pair(pair)
    msg = str(err.value)
    assert msg.startswith("theta vanishes at sample point u=")
    assert "Fraction(" not in msg and "{" not in msg


def test_check_pair_isolated_zero_is_sampled_valid():
    # theta = u du vanishes only on a measure-zero set, which random
    # rational samples do not hit; the pair is then simply degenerate
    scn = SCN3
    pair = ContactPair(scn, one_form(scn.base, [ex.var("u"), 0, 0]),
                       zero_form(scn.base, 2))
    rep = check_pair(pair)
    assert not rep.omega_nondegenerate and not rep.nondeg_on_H
    assert rep.equivalence_consistent


def test_equivalence_suite_positive_and_negative():
    rng = random.Random(62)
    pol = ZeroTestPolicy()
    positives = negatives = 0
    for i in range(20):
        if i < 10:
            pair = rand_pair(rng, SCN3)
        else:
            # engineered degenerate: closed theta, upsilon with no kernel pairing
            pair = ContactPair(
                SCN3, one_form(SCN3.base, [1, 0, 0]),
                KForm(SCN3.base, 2,
                      {(0, 1): rand_poly(rng, SCN3.base.coords, degree=1)}))
        rep = check_pair(pair, pol)
        assert rep.equivalence_consistent
        positives += rep.nondeg_on_H
        negatives += not rep.nondeg_on_H
    assert positives >= 10 and negatives == 10


# -- symplectic Gram-Schmidt -------------------------------------------------------

_small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def antisymmetric_pairings(draw):
    """(W, degenerate): a random antisymmetric rational W of size 2, 4 or
    6.  A degenerate one is a matrix with a zero last row and column moved
    by the congruence P^T W P of a random unit upper-triangular P, so its
    kernel is not a coordinate axis."""
    n = draw(st.sampled_from([2, 4, 6]))
    degenerate = draw(st.integers(0, 3)) == 3
    W = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if not (degenerate and j == n - 1):
                W[i][j] = draw(_small)
                W[j][i] = -W[i][j]
    if degenerate:
        P = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                P[i][j] = draw(_small)
        qP = rm.qmat(P)
        W = rm.to_mat(rm.qmul(rm.qtranspose(qP), rm.qmat(W), qP))
    return W, degenerate


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(antisymmetric_pairings())
def test_symplectic_basis_pairings(case):
    W, degenerate = case
    W_expr = [[ex.rat(v) for v in row] for row in W]
    if degenerate or rm.qdet(rm.qmat(W)) == 0:
        with pytest.raises(DegeneracyError):
            symplectic_basis(W_expr, ZeroTestPolicy())
        return
    xs, ys = symplectic_basis(W_expr, ZeroTestPolicy())
    assert len(xs) == len(ys) == len(W) // 2

    def pairing(u, v):
        u, v = [ex.simplify(c).value for c in u], [ex.simplify(c).value for c in v]
        return sum(u[a] * W[a][b] * v[b] for a in range(len(W)) for b in range(len(W)))

    for i, (xi, yi) in enumerate(zip(xs, ys)):
        for j, (xj, yj) in enumerate(zip(xs, ys)):
            assert pairing(xi, yj) == (i == j)
            assert pairing(xi, xj) == 0 and pairing(yi, yj) == 0


# -- frames ------------------------------------------------------------------------

def test_sp_frame_from_omega_darboux():
    pair = standard_darboux_pair(2)
    om = pair_to_omega(pair)
    frame = sp_frame_from_omega(pair.scenario, om)
    tr = transition(frame)
    assert tr.homogeneous
    pol = ZeroTestPolicy(constraints=(ex.Constraint("r", ">", 0),))
    r = ex.var("r")
    for i in range(4):
        for j in range(4):
            want = (ex.ONE if i < 2 else r) if i == j else ex.ZERO
            assert is_zero(ex.sub(tr.matrix_sym[i][j], want), pol)
    # reconstruction identity
    om2 = frame_to_omega(frame)
    polt = ZeroTestPolicy(constraints=pair.scenario.total.constraints)
    assert forms_equal(om, om2, polt)
    # G-equivalent to the Darboux chart frame
    mu, p1, u, x1 = (SCN3.total.var(c) for c in ("mu", "p1", "u", "x1"))
    fchi = chart_frame(pair.scenario, (u, x1, ex.neg(mu), ex.mul(mu, p1)))
    assert frames_G_equivalent(frame, fchi, SP(2))


def test_sp_frame_k1():
    pair = standard_darboux_pair(1)
    om = pair_to_omega(pair)
    frame = sp_frame_from_omega(pair.scenario, om)
    om2 = frame_to_omega(frame)
    polt = ZeroTestPolicy(constraints=pair.scenario.total.constraints)
    assert forms_equal(om, om2, polt)


def test_sp_frame_rejects_wrong_degree():
    # mu * omega has degree 2, so its pairing on the derivation basis is
    # not fiber-constant and no frame of it has transition diag(I_k, r I_k)
    pair = standard_darboux_pair(1)
    omega = pair_to_omega(pair).scale(pair.scenario.mu)
    with pytest.raises(DegreeError):
        sp_frame_from_omega(pair.scenario, omega)


def test_sp_frame_random_reconstruction():
    rng = random.Random(63)
    polt = ZeroTestPolicy(constraints=SCN3.total.constraints)
    for _ in range(3):
        pair = rand_pair(rng, SCN3, with_upsilon=True)
        om = pair_to_omega(pair)
        frame = sp_frame_from_omega(SCN3, om)
        assert forms_equal(om, frame_to_omega(frame), polt)


def test_frame_to_omega_is_sp_invariant():
    rng = random.Random(64)
    pair = standard_darboux_pair(2)
    om = pair_to_omega(pair)
    frame = sp_frame_from_omega(pair.scenario, om)
    g = rm.to_mat(rand_element(SP(2), rng))
    om2 = frame_to_omega(frame.translate(g))
    polt = ZeroTestPolicy(constraints=pair.scenario.total.constraints)
    assert forms_equal(om, om2, polt)


def test_frame_to_omega_rejects_wrong_degree():
    scn = LineBundleScenario("c3", ("x", "y", "z"))
    comps = [VectorField(scn.total, tuple(ex.rat(int(i == j)) for i in range(4)))
             for j in range(3)]
    comps.append(scn.euler())
    from homogeo.frames import Frame
    with pytest.raises(ValueError):
        frame_to_omega(Frame(scn, tuple(comps)), quotient="identity")


# -- integrability ------------------------------------------------------------------

def test_integrability_darboux_all_true():
    pair = standard_darboux_pair(2)
    rep = integrability_report(pair, check_pair(pair))
    assert rep.integrable and rep.base and rep.homogeneous_integrable
    assert rep.falsification is None
    assert rep.chart_constructed
    chi = [ex.to_dsl(c) for c in rep.witness_chart]
    assert chi == ["u", "x1", "-mu", "p1*mu"]


def test_integrability_foliation_all_false():
    pair = ContactPair(SCN3, one_form(SCN3.base, [1, 0, 0]),
                       zero_form(SCN3.base, 2))
    rep = integrability_report(pair, check_pair(pair))
    assert not rep.integrable and not rep.base
    assert not rep.homogeneous_integrable
    assert rep.falsification is None


def test_integrability_twisted_not_integrable():
    pair = ContactPair(SCN3,
                       KForm(SCN3.base, 1, {(0,): ex.ONE,
                                            (1,): ex.neg(ex.var("p1"))}),
                       KForm(SCN3.base, 2, {(1, 2): ex.ONE}))
    rep = integrability_report(pair, check_pair(pair))
    assert not rep.integrable and not rep.base
    assert not rep.homogeneous_integrable
    assert rep.falsification is None


def test_base_side_enters_equivalence():
    """The base-side criterion (upsilon = 0 with nondegenerate kernel
    curvature) is compared with upstairs integrability: a report whose
    kernel pairing is degenerate is a falsification."""
    import dataclasses
    pair = standard_darboux_pair(2)
    rep = integrability_report(pair, dataclasses.replace(check_pair(pair),
                                                         nondeg_on_H=False))
    assert rep.integrable and not rep.base and rep.homogeneous_integrable
    assert rep.falsification == ("theorem equivalence violated: integrable=True, "
                                 "contact=False, homogeneous_integrable=True")


def test_darboux_chart_k123():
    for k in (1, 2, 3):
        pair = standard_darboux_pair(k)
        rep = integrability_report(pair, check_pair(pair))
        assert rep.chart_constructed, rep.note
        assert len(rep.witness_chart) == 2 * k


def test_darboux_chart_with_nonunit_trivialization():
    # theta = f (du - p dx) with positive nonconstant f is still recognized
    scn = SCN3
    f = ex.add(ex.rat(2), ex.pw(ex.var("x1"), 2))
    theta = KForm(scn.base, 1, {(0,): f, (1,): ex.neg(ex.mul(f, ex.var("p1")))})
    pair = ContactPair(scn, theta, zero_form(scn.base, 2))
    rep = integrability_report(pair, check_pair(pair))
    assert rep.integrable and rep.base and rep.homogeneous_integrable
    assert rep.chart_constructed


# -- structure equation property -------------------------------------------------

def test_omega_pairing_structure_equation():
    # omega(D, D') = D theta(X') - D' theta(X) - theta([X, X']) + upsilon(X, X')
    rng = random.Random(65)
    scn = SCN3
    pair = rand_pair(rng, scn)
    om = pair_to_omega(pair)
    pol = ZeroTestPolicy(constraints=scn.total.constraints)
    from homogeo.tensors import lie_bracket
    for _ in range(4):
        X = VectorField(scn.base, tuple(rand_poly(rng, scn.base.coords)
                                        for _ in range(3)))
        Y = VectorField(scn.base, tuple(rand_poly(rng, scn.base.coords)
                                        for _ in range(3)))
        fx, fy = rand_poly(rng, scn.base.coords), rand_poly(rng, scn.base.coords)
        DX = scn.promote_derivation(X, fx)
        DY = scn.promote_derivation(Y, fy)
        lhs = ex.div(om(DX, DY), scn.mu)
        tx, ty = pair.theta(X), pair.theta(Y)
        # derivation action on a section coefficient: X(t) + f t
        rhs = ex.add(ex.add(X(ty), ex.mul(fx, ty)),
                     ex.neg(ex.add(Y(tx), ex.mul(fy, tx))),
                     ex.neg(pair.theta(lie_bracket(X, Y))),
                     pair.upsilon(X, Y))
        assert is_zero(ex.sub(lhs, rhs), pol)


def test_frame_to_omega_equals_chart_differential_wedges():
    # for the model chart, the frame 2-form is d(chi^1)^d(chi^3) + d(chi^2)^d(chi^4)
    pair = standard_darboux_pair(2)
    scn = pair.scenario
    mu, p1, u, x1 = (scn.total.var(c) for c in ("mu", "p1", "u", "x1"))
    chi = (u, x1, ex.neg(mu), ex.mul(mu, p1))
    frame = chart_frame(scn, chi)
    om = frame_to_omega(frame)
    from homogeo.tensors import d as _d, wedge as _w
    dchi = [_d(KForm(scn.total, 0, {(): c})) for c in chi]
    want = _w(dchi[0], dchi[2]) + _w(dchi[1], dchi[3])
    polt = ZeroTestPolicy(constraints=scn.total.constraints)
    assert forms_equal(om, want, polt)
    # and that equals the promoted pair 2-form
    assert forms_equal(om, pair_to_omega(pair), polt)
