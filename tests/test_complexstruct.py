import random
import pytest

from homogeo import expr as ex
from homogeo import ratmat as rm
from homogeo.complexstruct import (frame_to_j, integrability_report_c,
                                   nijenhuis, nijenhuis_fields)
from homogeo.frames import Frame
from homogeo.groups import GLC, rand_element
from homogeo.linebundle import DEG0, LineBundleScenario
from homogeo.tensors import Endo11, VectorField, coordinate_field
from homogeo.zerotest import ZeroTestPolicy, is_zero

from conftest import float_value, rand_point, rand_poly

SCN1 = LineBundleScenario("c1", ("x",))
SCN3 = LineBundleScenario("c3", ("x", "y", "z"))


def euler_frame(scn):
    comps = [VectorField(scn.total, tuple(ex.rat(int(i == j))
                                          for i in range(scn.total.dim)))
             for j in range(scn.base.dim)]
    comps.append(scn.euler())
    return Frame(scn, tuple(comps))


def twisted_frame(scn):
    mu, x = scn.mu, ex.var("x")
    cf = [VectorField(scn.total, tuple(ex.rat(int(i == j)) for i in range(4)))
          for j in range(3)]
    RY1 = VectorField(scn.total, (ex.ZERO, ex.cos_(x), ex.ZERO,
                                  ex.mul(ex.sin_(x), mu)))
    RY2 = VectorField(scn.total, (ex.ZERO, ex.neg(ex.sin_(x)), ex.ZERO,
                                  ex.mul(ex.cos_(x), mu)))
    return Frame(scn, (cf[0], cf[2], RY1, RY2))


def test_frame_to_j_k1():
    f = Frame(SCN1, (VectorField(SCN1.total, (ex.ONE, ex.ZERO)),
                     VectorField(SCN1.total, (ex.ZERO, SCN1.mu))))
    ac = frame_to_j(f)
    # d_x -> mu d_mu, mu d_mu -> -d_x
    got = ac.J.apply(coordinate_field(SCN1.total, 0))
    assert got.comps == (ex.ZERO, SCN1.mu)
    got = ac.J.apply(SCN1.euler())
    assert got.comps == (ex.rat(-1), ex.ZERO)


def test_frame_to_j_glc_translate_invariant():
    rng = random.Random(81)
    f = euler_frame(SCN3)
    ac = frame_to_j(f)
    g = rm.to_mat(rand_element(GLC(2), rng))
    ac2 = frame_to_j(f.translate(g))
    pol = ZeroTestPolicy(constraints=SCN3.total.constraints)
    assert all(is_zero(ex.sub(a, b), pol)
               for ra, rb in zip(ac.J.rows(), ac2.J.rows())
               for a, b in zip(ra, rb))


def test_frame_to_j_rejects_wrong_degree():
    # the Darboux-type frame has identity (not trivial) degree coset
    scn = LineBundleScenario("m3", ("u", "x1", "p1"))
    from homogeo.frames import chart_frame
    mu, p1, u, x1 = (scn.total.var(c) for c in ("mu", "p1", "u", "x1"))
    f = chart_frame(scn, (u, x1, ex.neg(mu), ex.mul(mu, p1)))
    with pytest.raises(ValueError):
        frame_to_j(f)


def test_invariants_verify():
    ac = frame_to_j(euler_frame(SCN3))
    assert ac.verify() is None
    assert SCN3.is_homogeneous(ac.J, DEG0)


def test_nijenhuis_constant_zero():
    ac = frame_to_j(euler_frame(SCN3))
    N = nijenhuis(ac.J)
    pol = ZeroTestPolicy(constraints=SCN3.total.constraints)
    assert all(is_zero(v, pol) for a in N for b in a for v in b)


def test_nijenhuis_dimension_two_identity():
    rng = random.Random(82)
    pol = ZeroTestPolicy(constraints=SCN1.total.constraints)
    for _ in range(5):
        # random J on a 2-dimensional chart with J^2 = -I:
        # J = ((a, b), (-(1 + a^2)/b, -a)) for nonzero b
        a = rand_poly(rng, SCN1.total.coords, degree=1)
        b = ex.add(ex.rat(2), ex.pw(rand_poly(rng, SCN1.total.coords, degree=1), 2))
        row2 = ex.neg(ex.div(ex.add(ex.ONE, ex.pw(a, 2)), b))
        J = Endo11(SCN1.total, ((a, b), (row2, ex.neg(a))))
        sq = [[ex.add(*[ex.mul(J.mat[i][k], J.mat[k][j]) for k in range(2)])
               for j in range(2)] for i in range(2)]
        assert all(is_zero(ex.sub(sq[i][j], ex.rat(-1 if i == j else 0)), pol)
                   for i in range(2) for j in range(2))
        N = nijenhuis(J)
        assert all(is_zero(v, pol) for x in N for y in x for v in y)


def _numeric_nijenhuis(J, c, a, b, point, h=1e-6):
    """Finite-difference oracle:
    N^c_ab = J^d_a d_d J^c_b - J^d_b d_d J^c_a - J^c_d d_a J^d_b + J^c_d d_b J^d_a."""
    chart = J.chart
    n = chart.dim
    fl = {k: float(v) for k, v in point.items()}

    def jval(i, j, pt):
        return float_value(J.mat[i][j], pt)

    def djval(i, j, wrt):
        up = dict(fl)
        dn = dict(fl)
        up[chart.coords[wrt]] += h
        dn[chart.coords[wrt]] -= h
        return (jval(i, j, up) - jval(i, j, dn)) / (2 * h)

    total = 0.0
    for dd in range(n):
        total += jval(dd, a, fl) * djval(c, b, dd)
        total -= jval(dd, b, fl) * djval(c, a, dd)
        total -= jval(c, dd, fl) * djval(dd, b, a)
        total += jval(c, dd, fl) * djval(dd, a, b)
    return total


def test_torsion_witness_of_a_certificate_is_its_note(certificate_verdicts):
    rep = integrability_report_c(frame_to_j(twisted_frame(SCN3)))
    assert not rep.torsion_zero
    assert rep.witness == {"component": rep.witness["component"],
                           "note": certificate_verdicts}


def test_nijenhuis_twisted_nonzero_with_numeric_oracle():
    rng = random.Random(83)
    ac = frame_to_j(twisted_frame(SCN3))
    rep = integrability_report_c(ac)
    assert not rep.torsion_zero
    assert rep.witness is not None
    N = nijenhuis(ac.J)
    n = SCN3.total.dim
    # compare symbolic torsion against the finite-difference oracle
    checked = 0
    for _ in range(5):
        point = rand_point(rng, SCN3.total.coords, lo=1, hi=2)
        for (c, a, b) in ((0, 0, 2), (1, 0, 1), (3, 0, 3)):
            want = _numeric_nijenhuis(ac.J, c, a, b, point)
            got = float_value(N[c][a][b], point)
            assert got == pytest.approx(want, rel=1e-4, abs=1e-5)
            checked += 1
    assert checked == 15


def test_torsion_tensorial():
    rng = random.Random(84)
    ac = frame_to_j(twisted_frame(SCN3))
    pol = ZeroTestPolicy(constraints=SCN3.total.constraints)
    f = rand_poly(rng, SCN3.total.coords, degree=2)
    X = coordinate_field(SCN3.total, 1)
    Y = VectorField(SCN3.total, (ex.ONE, ex.ZERO, ex.var("z"), ex.ZERO))
    lhs = nijenhuis_fields(ac.J, X.scale(f), Y)
    rhs = nijenhuis_fields(ac.J, X, Y).scale(f)
    assert all(is_zero(ex.sub(a, b), pol) for a, b in zip(lhs.comps, rhs.comps))


def test_torsion_J_antiinvariance():
    # N(JX, JY) = -N(X, Y)
    rng = random.Random(85)
    ac = frame_to_j(twisted_frame(SCN3))
    pol = ZeroTestPolicy(constraints=SCN3.total.constraints)
    X = VectorField(SCN3.total, tuple(rand_poly(rng, SCN3.base.coords, degree=1)
                                      for _ in range(4)))
    Y = VectorField(SCN3.total, tuple(rand_poly(rng, SCN3.base.coords, degree=1)
                                      for _ in range(4)))
    lhs = nijenhuis_fields(ac.J, ac.J.apply(X), ac.J.apply(Y))
    rhs = nijenhuis_fields(ac.J, X, Y).scale(ex.rat(-1))
    assert all(is_zero(ex.sub(a, b), pol) for a, b in zip(lhs.comps, rhs.comps))


def test_torsion_degree_preserved():
    # the torsion of a fiber-invariant J applied to fiber-invariant fields
    # is again fiber-invariant
    scn = SCN3
    ac = frame_to_j(twisted_frame(scn))
    from homogeo.linebundle import DEG0
    rng = random.Random(86)
    for _ in range(3):
        X = scn.promote_derivation(
            VectorField(scn.base, tuple(rand_poly(rng, scn.base.coords, degree=1)
                                        for _ in range(3))),
            rand_poly(rng, scn.base.coords, degree=1))
        Y = scn.promote_derivation(
            VectorField(scn.base, tuple(rand_poly(rng, scn.base.coords, degree=1)
                                        for _ in range(3))),
            rand_poly(rng, scn.base.coords, degree=1))
        out = nijenhuis_fields(ac.J, X, Y)
        assert scn.is_homogeneous(out, DEG0)


def test_report_dimension_falsification_guard():
    # a healthy 2-dimensional structure never trips the dimension identity
    f = Frame(SCN1, (VectorField(SCN1.total, (ex.ONE, ex.ZERO)),
                     VectorField(SCN1.total, (ex.ZERO, SCN1.mu))))
    rep = integrability_report_c(frame_to_j(f))
    assert rep.falsification is None and rep.torsion_zero
