import random
from fractions import Fraction

import pytest

from homogeo import expr as ex
from homogeo.chart import ChartError
from homogeo.contact import frame_to_omega
from homogeo.cosymplectic import (CosymplecticPair, check_cosymplectic,
                                  integrability_report0, pair_to_omega0,
                                  standard_cosymplectic_pair)
from homogeo.frames import Frame
from homogeo.linebundle import DEG0, LineBundleScenario
from homogeo.tensors import KForm, VectorField, d, interior, one_form
from homogeo.zerotest import ZeroTestPolicy, is_zero

from conftest import rand_poly

SCN3 = LineBundleScenario("c3", ("x", "y", "z"))


def rand_cosym_pair(rng, scn, closed=False):
    from itertools import combinations
    n = scn.base.dim
    mk = (lambda: ex.rat(Fraction(rng.randint(-3, 3), 4))) if closed else \
        (lambda: rand_poly(rng, scn.base.coords, degree=1))
    Omega = KForm(scn.base, 2, {idx: mk() for idx in combinations(range(n), 2)
                                if rng.random() < 0.8})
    eta = KForm(scn.base, 1, {(i,): mk() for i in range(n)
                              if rng.random() < 0.8})
    return CosymplecticPair(scn, Omega, eta)


def test_pair_to_omega0_standard():
    pair = standard_cosymplectic_pair(2)
    om = pair_to_omega0(pair)
    scn = pair.scenario
    assert scn.is_homogeneous(om, DEG0)
    # i_E omega = eta (convention pin)
    contracted = interior(scn.euler(), om)
    want = scn.include_form(pair.eta)
    pol = ZeroTestPolicy(constraints=scn.total.constraints)
    keys = set(contracted.coeffs) | set(want.coeffs)
    assert all(is_zero(ex.sub(contracted.coeff(k), want.coeff(k)), pol)
               for k in keys)


def test_check_standard_k2():
    rep = check_cosymplectic(standard_cosymplectic_pair(2))
    assert rep.volume and rep.cocycle and rep.omega_nondegenerate
    assert rep.nondegeneracy_consistent and rep.closure_consistent


def test_check_k1():
    scn = LineBundleScenario("c1", ("u",))
    pair = CosymplecticPair(scn, KForm(scn.base, 2, {}), one_form(scn.base, [1]))
    rep = check_cosymplectic(pair)
    assert rep.volume and rep.omega_nondegenerate and rep.cocycle


def test_check_noncocycle():
    pair = CosymplecticPair(SCN3,
                            KForm(SCN3.base, 2, {(0, 1): ex.ONE,
                                                 (1, 2): ex.var("x")}),
                            one_form(SCN3.base, [0, 0, 1]))
    rep = check_cosymplectic(pair)
    assert rep.volume and not rep.dOmega_zero and not rep.cocycle
    assert rep.closure_consistent


def test_check_degenerate():
    pair = CosymplecticPair(SCN3, KForm(SCN3.base, 2, {(0, 1): ex.ONE}),
                            one_form(SCN3.base, [1, 0, 0]))
    rep = check_cosymplectic(pair)
    assert not rep.volume and not rep.omega_nondegenerate
    assert rep.nondegeneracy_consistent


def test_dimension_mismatch():
    """A cosymplectic pair needs an odd base dimension."""
    scn = LineBundleScenario("c2", ("x", "y"))
    with pytest.raises(ChartError):
        CosymplecticPair(scn, KForm(scn.base, 2, {(0, 1): ex.ONE}),
                         one_form(scn.base, [1, 0]))


def test_equivalences_random_suite():
    rng = random.Random(71)
    scn1 = LineBundleScenario("c1", ("u",))
    for scn in (scn1, SCN3):
        for i in range(10):
            pair = rand_cosym_pair(rng, scn, closed=(i % 2 == 0))
            rep = check_cosymplectic(pair)
            assert rep.nondegeneracy_consistent
            assert rep.closure_consistent


def test_integrability_standard():
    pair = standard_cosymplectic_pair(2)
    rep = check_cosymplectic(pair)
    assert rep.omega_closed
    rep = integrability_report0(pair, rep)
    assert rep.integrable and rep.homogeneous_integrable
    assert rep.falsification is None and rep.chart_constructed
    chi = [ex.to_dsl(c) for c in rep.witness_chart]
    assert chi[0] == "log(mu)"


def test_integrability_constant_sheared_pair():
    # constant coefficients but not in normal form: chart still constructed
    pair = CosymplecticPair(SCN3,
                            KForm(SCN3.base, 2, {(0, 1): ex.rat(2),
                                                 (1, 2): ex.ONE}),
                            one_form(SCN3.base, [1, 0, ex.rat(3)]))
    rep = integrability_report0(pair, check_cosymplectic(pair))
    assert rep.integrable and rep.homogeneous_integrable
    assert rep.chart_constructed and rep.falsification is None


@pytest.mark.parametrize("field", ["volume", "cocycle"])
def test_base_side_enters_equivalence(field):
    """The base-side criterion (d Omega = d eta = 0 with a volume form) is
    compared with upstairs integrability: a report whose base side
    disagrees is a falsification."""
    import dataclasses
    pair = standard_cosymplectic_pair(2)
    rep = integrability_report0(pair, dataclasses.replace(
        check_cosymplectic(pair), **{field: False}))
    assert rep.integrable
    assert rep.falsification == ("theorem equivalence violated: cocycle_and_nondeg="
                                 "False, integrable=True, homogeneous_integrable=True")


def test_integrability_noncocycle():
    pair = CosymplecticPair(SCN3,
                            KForm(SCN3.base, 2, {(1, 2): ex.var("x")}),
                            one_form(SCN3.base, [0, 0, 1]))
    rep = check_cosymplectic(pair)
    assert not rep.omega_closed
    rep = integrability_report0(pair, rep)
    assert not rep.integrable
    assert not rep.homogeneous_integrable
    assert rep.falsification is None


def test_invariant_frame_gives_closed_omega():
    scn = SCN3
    comps = [VectorField(scn.total, tuple(ex.rat(int(i == j)) for i in range(4)))
             for j in range(3)]
    comps.append(scn.euler())
    om = frame_to_omega(Frame(scn, tuple(comps)), quotient="trivial")
    assert scn.is_homogeneous(om, DEG0)
    dom = d(om)
    pol = ZeroTestPolicy(constraints=scn.total.constraints)
    assert all(is_zero(c, pol) for c in dom.coeffs.values())


def test_pair_to_omega0_coefficient_structure():
    # (dx ^ dy, dz) -> dx ^ dy + (dmu/mu) ^ dz
    scn = SCN3
    pair = CosymplecticPair(scn, KForm(scn.base, 2, {(0, 1): ex.ONE}),
                            one_form(scn.base, [0, 0, 1]))
    om = pair_to_omega0(pair)
    mu = scn.mu
    assert om.coeff((0, 1)) is ex.ONE
    # dz ^ dmu coefficient is -1/mu (dmu/mu comes first in the convention)
    assert om.coeff((2, 3)) is ex.neg(ex.pw(mu, -1))
    assert om.coeff((0, 2)) is ex.ZERO
