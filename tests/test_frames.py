import random
import re
from fractions import Fraction

import pytest

from homogeo import expr as ex
from homogeo import ratmat as rm
from homogeo import symmat
from homogeo.contact import check_pair, integrability_report, standard_darboux_pair
from homogeo.cosymplectic import (check_cosymplectic, integrability_report0,
                                  standard_cosymplectic_pair)
from homogeo.frames import (Frame, NotHomogeneousError, chart_frame, degree_coset,
                            frames_G_equivalent, homomorphism_law_holds,
                            is_homogeneous_chart, transition)
from homogeo.groups import GL, GLC, O, SP, DegreeHom, rand_element
from homogeo.linebundle import LineBundleScenario
from homogeo.metric import DegeneracyError
from homogeo.tensors import VectorField
from homogeo.zerotest import ZeroTestPolicy, is_zero

SCN1 = LineBundleScenario("m1", ("x",))
SCN3 = LineBundleScenario("m3", ("u", "x1", "p1"))


def vf(scn, comps):
    return VectorField(scn.total, tuple(ex._coerce(c) if not isinstance(c, str)
                                        else scn.total.parse(c) for c in comps))


def mat_is(mat, want, pol=ZeroTestPolicy(constraints=(ex.Constraint("r", ">", 0),))):
    for row, wrow in zip(mat, want):
        for v, w in zip(row, wrow):
            if not is_zero(ex.sub(v, ex._coerce(w) if not isinstance(w, str)
                                  else ex.var(w)), pol):
                return False
    return True


# -- transition --------------------------------------------------------------------

def test_transition_invariant_frame():
    f = Frame(SCN1, (vf(SCN1, ["1", "0"]), vf(SCN1, ["0", "mu"])))
    tr = transition(f)
    assert tr.homogeneous
    assert mat_is(tr.matrix_sym, [[1, 0], [0, 1]])
    assert tr.hom.B == rm.rmat([[0, 0], [0, 0]])
    assert tr.hom.C == rm.rident(2)


def test_transition_coordinate_frame():
    f = Frame(SCN1, (vf(SCN1, ["1", "0"]), vf(SCN1, ["0", "1"])))
    tr = transition(f)
    assert tr.homogeneous
    r = ex.var("r")
    assert mat_is(tr.matrix_sym, [[1, 0], [0, r]])
    assert tr.hom.B == rm.rmat([[0, 0], [0, 1]])
    assert tr.hom.C == rm.rmat([[1, 0], [0, -1]])
    assert homomorphism_law_holds(tr)


def test_transition_darboux_chart_frame():
    mu, p1, u, x1 = (SCN3.total.var(c) for c in ("mu", "p1", "u", "x1"))
    chi = (u, x1, ex.neg(mu), ex.mul(mu, p1))
    f = chart_frame(SCN3, chi)
    tr = transition(f)
    assert tr.homogeneous
    r = ex.var("r")
    want = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, r, 0], [0, 0, 0, r]]
    assert mat_is(tr.matrix_sym, want)


def test_transition_inhomogeneous_frame():
    f = Frame(SCN1, (vf(SCN1, ["1", "0"]), vf(SCN1, ["0", "1 + mu"])))
    tr = transition(f)
    assert not tr.homogeneous
    assert tr.failure and "mu" in tr.failure


def test_transition_reflection_must_not_vary():
    # A(r) = I for r > 0, but A(-1) = [[1, 2x], [0, -1]] varies along x
    f = Frame(SCN1, (vf(SCN1, ["1", "0"]), vf(SCN1, ["x*(1-sign(mu))", "mu*sign(mu)"])))
    tr = transition(f)
    assert not tr.homogeneous
    assert tr.failure == "reflection entry (0,1) varies along x: d/dx = 2"


def test_transition_degenerate_frame():
    f = Frame(SCN1, (vf(SCN1, ["1", "0"]), vf(SCN1, ["1", "0"])))
    with pytest.raises(DegeneracyError):
        transition(f)


def test_transition_reflection_parity():
    # |mu|^(1/2)-scaled frame: B = I/2, C is orthogonal with C^2 = I
    h = "sqrt(abs(mu))"
    f = Frame(SCN1, (vf(SCN1, [f"1/{h}", "0"]), vf(SCN1, ["0", h])))
    tr = transition(f)
    assert tr.homogeneous
    assert tr.hom.B == rm.rmat([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert rm.qscalar(rm.qmul(rm.qmat(tr.hom.C), rm.qmat(tr.hom.C))) == 1


# -- degree cosets ---------------------------------------------------------------

def test_degree_coset_darboux_identity():
    mu, p1, u, x1 = (SCN3.total.var(c) for c in ("mu", "p1", "u", "x1"))
    f = chart_frame(SCN3, (u, x1, ex.neg(mu), ex.mul(mu, p1)))
    rep = degree_coset(transition(f), SP(2))
    assert rep.in_normalizer
    pol = ZeroTestPolicy(constraints=(ex.Constraint("r", ">", 0),))
    assert is_zero(ex.sub(rep.quotient_value, ex.var("r")), pol)
    assert rep.quotient_value_neg1 == Fraction(-1)


def test_degree_coset_trivial_cosymplectic_frame():
    scn = LineBundleScenario("c3", ("x", "y", "z"))
    comps = [VectorField(scn.total, tuple(ex.rat(int(i == j)) for i in range(4)))
             for j in range(3)]
    comps.append(scn.euler())
    rep = degree_coset(transition(Frame(scn, tuple(comps))), SP(2))
    pol = ZeroTestPolicy(constraints=(ex.Constraint("r", ">", 0),))
    assert rep.in_normalizer
    assert is_zero(ex.sub(rep.quotient_value, ex.ONE), pol)
    assert rep.quotient_value_neg1 == Fraction(1)


def test_degree_coset_sqrt_abs():
    h = "sqrt(abs(mu))"
    f = Frame(SCN1, (vf(SCN1, [f"1/{h}", "0"]), vf(SCN1, ["0", h])))
    rep = degree_coset(transition(f), O(2))
    pol = ZeroTestPolicy(constraints=(ex.Constraint("r", ">", 0),))
    assert rep.in_normalizer
    assert is_zero(ex.sub(rep.quotient_value, ex.var("r")), pol)
    assert rep.quotient_value_neg1 == Fraction(1)


def test_degree_coset_invariance_failure():
    # diag(1, r) does not normalize O(2)
    f = Frame(SCN1, (vf(SCN1, ["1", "0"]), vf(SCN1, ["0", "1"])))
    rep = degree_coset(transition(f), O(2))
    assert not rep.in_normalizer
    assert rep.failure


def test_degree_coset_reflection_outside_normalizer():
    # A(r) = r^(1/2) I lies in N(O(2)) for r > 0, but A(-1) = C does not;
    # GL(2) is its own normalizer, with trivial quotient values
    h = "sqrt(abs(mu)^-1)"
    f = Frame(SCN1, (vf(SCN1, [h, "0"]),
                     vf(SCN1, [f"-{h}*sign(mu)/2 + {h}/2", f"mu*{h}*sign(mu)"])))
    tr = transition(f)
    assert tr.hom == DegreeHom(((Fraction(1, 2), 0), (0, Fraction(1, 2))),
                               ((1, 1), (0, -1)))
    rep = degree_coset(tr, O(2))
    assert not rep.in_normalizer
    assert rep.failure == "matrix is not in N(O(2)): defining product is not scalar"
    rep = degree_coset(tr, GL(2))
    assert rep.in_normalizer
    assert rep.quotient_value is ex.ONE and rep.quotient_value_neg1 == 1


def test_right_translation_preserves_coset():
    rng = random.Random(51)
    mu, p1, u, x1 = (SCN3.total.var(c) for c in ("mu", "p1", "u", "x1"))
    f = chart_frame(SCN3, (u, x1, ex.neg(mu), ex.mul(mu, p1)))
    g = rm.to_mat(rand_element(SP(2), rng))
    f2 = f.translate(g)
    rep = degree_coset(transition(f2), SP(2))
    pol = ZeroTestPolicy(constraints=(ex.Constraint("r", ">", 0),))
    assert rep.in_normalizer
    assert is_zero(ex.sub(rep.quotient_value, ex.var("r")), pol)
    assert frames_G_equivalent(f, f2, SP(2))


def test_degree_coset_rejects_a_group_of_another_size():
    tr = transition(Frame(SCN1, (vf(SCN1, ["1", "0"]), vf(SCN1, ["0", "mu"]))))
    for G in (SP(2), GL(3), O(1)):
        with pytest.raises(ValueError, match=re.escape(f"does not match {G} ")):
            degree_coset(tr, G)


# -- G-equivalence ---------------------------------------------------------------

def test_frames_equivalent_constant_translation():
    f = Frame(SCN1, (vf(SCN1, ["1", "0"]), vf(SCN1, ["0", "mu"])))
    g = ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)))
    assert frames_G_equivalent(f, f.translate(g), GL(2))


def test_frames_not_equivalent_outside_group():
    f = Frame(SCN1, (vf(SCN1, ["1", "0"]), vf(SCN1, ["0", "mu"])))
    stretch = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1)))
    assert not frames_G_equivalent(f, f.translate(stretch), O(2))


def test_frames_equivalent_in_glc():
    # GL_1(C) is the commutant of J = ((0, 1), (-1, 0)): rows (a, b), (-b, a)
    f = Frame(SCN1, (vf(SCN1, ["1", "0"]), vf(SCN1, ["0", "mu"])))
    x = SCN1.total.var("x")
    rotation = ((ex.ONE, ex.neg(x)), (x, ex.ONE))
    assert frames_G_equivalent(f, f.translate(rotation), GLC(1))
    shear = ((ex.ONE, x), (x, ex.ONE))
    assert not frames_G_equivalent(f, f.translate(shear), GLC(1))


def test_two_darboux_charts_sp_equivalent():
    # u' = u + 1, x' = 2x, p' = p/2 preserves theta = du - p dx
    mu, p1, u, x1 = (SCN3.total.var(c) for c in ("mu", "p1", "u", "x1"))
    chi1 = (u, x1, ex.neg(mu), ex.mul(mu, p1))
    chi2 = (ex.add(u, ex.ONE), ex.mul(ex.rat(2), x1), ex.neg(mu),
            ex.mul(mu, ex.div(p1, ex.rat(2))))
    f1 = chart_frame(SCN3, chi1)
    f2 = chart_frame(SCN3, chi2)
    assert frames_G_equivalent(f1, f2, SP(2))


# -- homogeneous charts -------------------------------------------------------------

def test_chart_log_mu():
    x = SCN1.total.var("x")
    rep = is_homogeneous_chart(SCN1, (x, ex.log_(SCN1.mu)))
    pol = ZeroTestPolicy(constraints=(ex.Constraint("r", ">", 0),))
    assert mat_is(rep.A_sym, [[1, 0], [0, 1]])
    assert is_zero(rep.b_sym[0], pol)
    assert is_zero(ex.sub(rep.b_sym[1], ex.log_(ex.var("r"))), pol)


def test_chart_darboux():
    mu, p1, u, x1 = (SCN3.total.var(c) for c in ("mu", "p1", "u", "x1"))
    rep = is_homogeneous_chart(SCN3, (u, x1, ex.neg(mu), ex.mul(mu, p1)))
    r = ex.var("r")
    assert mat_is(rep.A_sym, [[1, 0, 0, 0], [0, 1, 0, 0],
                              [0, 0, r, 0], [0, 0, 0, r]])
    pol = ZeroTestPolicy(constraints=(ex.Constraint("r", ">", 0),))
    assert all(is_zero(b, pol) for b in rep.b_sym)
    # the reflection acts on the chart through its frame's degree data
    want = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    assert transition(rep.frame).hom.C == rm.rmat(want)


def test_chart_mu_squared():
    x = SCN1.total.var("x")
    rep = is_homogeneous_chart(SCN1, (x, ex.pw(SCN1.mu, 2)))
    r = ex.var("r")
    assert mat_is(rep.A_sym, [[1, 0], [0, ex.pw(r, 2)]])
    pol = ZeroTestPolicy(constraints=(ex.Constraint("r", ">", 0),))
    assert all(is_zero(b, pol) for b in rep.b_sym)


def test_chart_not_homogeneous():
    # the transition matrix varies along the fiber, or along the base
    x, mu = SCN1.total.var("x"), SCN1.mu
    for chi, where in (((x, ex.add(mu, ex.pw(mu, 2))), "(1,1) varies along mu"),
                       ((x, ex.add(ex.mul(x, ex.log_(mu)), mu)), "(1,0) varies along x")):
        with pytest.raises(NotHomogeneousError,
                           match=re.escape(f"no affine relation: A entry {where}")):
            is_homogeneous_chart(SCN1, chi)


def test_chart_degenerate_jacobian():
    x = SCN1.total.var("x")
    with pytest.raises(DegeneracyError):
        is_homogeneous_chart(SCN1, (x, x))


def _darboux_chart(k):
    pair = standard_darboux_pair(k)
    return pair.scenario, integrability_report(pair, check_pair(pair)).witness_chart


def _cosymplectic_chart(k):
    pair = standard_cosymplectic_pair(k)
    return pair.scenario, integrability_report0(
        pair, check_cosymplectic(pair)).witness_chart


# the charts above, then the ones the bundled darboux_k1..3 and
# cosymplectic_k1/k2 scenarios construct (from their standard pairs)
_CHARTS = {
    "log-mu": lambda: (SCN1, (SCN1.total.var("x"), ex.log_(SCN1.mu))),
    "darboux": lambda: (SCN3, tuple(SCN3.total.parse(t) for t in ("u", "x1", "-mu", "mu*p1"))),
    "mu-squared": lambda: (SCN1, (SCN1.total.var("x"), ex.pw(SCN1.mu, 2))),
    **{f"darboux_k{k}": (lambda k=k: _darboux_chart(k)) for k in (1, 2, 3)},
    **{f"cosymplectic_k{k}": (lambda k=k: _cosymplectic_chart(k)) for k in (1, 2)},
}


@pytest.mark.parametrize("name", list(_CHARTS))
def test_chart_frame_transition_is_jacobian_route(name):
    # A(r) of a homogeneous chart is its coordinate frame's transition
    # matrix; the Jacobian route D(chi o h_r) . (D chi)^{-1} agrees entry
    # by entry
    scn, chi = _CHARTS[name]()
    pol = scn.policy_for(ZeroTestPolicy())
    cons = pol.constraints
    coords = scn.total.coords
    hchi = [ex.subs(c, {"mu": ex.mul(ex.var("r"), scn.mu)}) for c in chi]
    jac = [[ex.diff(c, v, cons) for v in coords] for c in chi]
    dh = [[ex.diff(c, v, cons) for v in coords] for c in hchi]
    A_jac = symmat.mat_mul(dh, symmat.inverse(jac))
    A = transition(chart_frame(scn, chi)).matrix_sym
    n = scn.total.dim
    assert all(is_zero(ex.sub(A[i][j], A_jac[i][j]), pol)
               for i in range(n) for j in range(n))
