"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime.  Tolerances and budgets are pinned here, not configurable:
exact rational arithmetic where stated, otherwise 20 samples at 1e-9.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import collections
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

from homogeo import expr as ex
from homogeo import ratmat as rm
from homogeo import riemannian
from homogeo import zerotest
from homogeo.contact import (ContactPair, check_pair, integrability_report,
                             omega_to_pair, pair_to_omega, standard_darboux_pair)
from homogeo.cosymplectic import CosymplecticPair, check_cosymplectic
from homogeo.complexstruct import frame_to_j, integrability_report_c, nijenhuis, nijenhuis_fields
from homogeo.frames import Frame
from homogeo.groups import (GLC, O, SP, member, normalizer_p, rand_element,
                            splitting)
from homogeo.linebundle import DEG0, DEG1, DEG_ABS, LineBundleScenario
from homogeo.riemannian import (MetricTriple, flatness_report, sphere_flat_chart,
                                sphere_triple, triple_to_gtilde,
                                verify_rd_formulas)
from homogeo.tensors import (Endo11, KForm, SymTensor2, VectorField,
                             coordinate_field, d, interior, one_form)
from homogeo.zerotest import ZeroTestPolicy, is_zero

from conftest import curvature, rand_poly

POLICY = ZeroTestPolicy(sample_count=20, tolerance=1e-9, seed=0)


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.name}: {status} ({elapsed:.2f}s / "
              f"budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.name} exceeded its {self.seconds}s budget ({elapsed:.2f}s)"
        return False


def _forms_equal(a, b, pol):
    keys = set(a.coeffs) | set(b.coeffs)
    return all(is_zero(ex.sub(a.coeff(k), b.coeff(k)), pol) for k in keys)


def test_criterion_1_homotopy_identity():
    """[d, i_E] = id on 20 random degree-1 forms, form degrees 1..3, n <= 4."""
    with _Budget("1 homotopy identity", 10):
        rng = random.Random(POLICY.seed)
        cases = 0
        for n, coords in ((2, ("a", "b")), (3, ("a", "b", "c")),
                          (4, ("a", "b", "c", "e"))):
            scn = LineBundleScenario(f"h{n}", coords)
            pol = POLICY.with_constraints(scn.total.constraints)
            for degree in (1, 2, 3):
                if degree > n + 1:
                    continue
                for _ in range(3):
                    if cases >= 20:
                        break
                    beta = KForm(scn.base, degree,
                                 {idx: rand_poly(rng, coords)
                                  for idx in combinations(range(n), degree)})
                    gamma = KForm(scn.base, degree - 1,
                                  {idx: rand_poly(rng, coords)
                                   for idx in combinations(range(n), degree - 1)})
                    w = scn.promote_atiyah_form(beta, gamma)
                    # d_D and i_I are d and i_E upstairs
                    E = scn.euler()
                    h = d(interior(E, w)) + interior(E, d(w))
                    assert _forms_equal(h, w, pol)
                    cases += 1
        assert cases == 20


def test_criterion_2_contact_correspondence():
    """Round trips on 20 random polynomial pairs (k = 1, 2) plus the
    nondegeneracy equivalence on 10 positive and 10 negative cases."""
    with _Budget("2 contact correspondence", 60):
        rng = random.Random(POLICY.seed)
        scn1 = LineBundleScenario("k1", ("u",))
        scn2 = LineBundleScenario("k2", ("u", "x1", "p1"))

        def rand_pair(scn, with_ups):
            n = scn.base.dim
            # nowhere-zero leading coefficient, random elsewhere
            lead = ex.add(ex.ONE, ex.pw(ex.mul(ex.rat(Fraction(1, 4)),
                                               rand_poly(rng, scn.base.coords,
                                                         degree=1)), 2))
            coeffs = {(0,): lead}
            for i in range(1, (n + 1) // 2):
                coeffs[(i,)] = ex.add(ex.neg(scn.base.var(f"p{i}")),
                                      ex.mul(ex.rat(Fraction(1, 8)),
                                             rand_poly(rng, scn.base.coords,
                                                       degree=1)))
            ups = {}
            if with_ups:
                for idx in combinations(range(n), 2):
                    if rng.random() < 0.5:
                        ups[idx] = ex.mul(ex.rat(Fraction(1, 8)),
                                          rand_poly(rng, scn.base.coords,
                                                    degree=1))
            return ContactPair(scn, KForm(scn.base, 1, coeffs),
                               KForm(scn.base, 2, ups))

        pol1 = POLICY
        for scn, count in ((scn1, 8), (scn2, 12)):
            for _ in range(count):
                pair = rand_pair(scn, with_ups=True)
                back = omega_to_pair(scn, pair_to_omega(pair), POLICY)
                assert _forms_equal(pair.theta, back.theta, pol1)
                assert _forms_equal(pair.upsilon, back.upsilon, pol1)

        positives = negatives = 0
        for i in range(20):
            if i < 10:
                pair = rand_pair(scn2, with_ups=True)
            else:
                pair = ContactPair(
                    scn2, one_form(scn2.base, [1, 0, 0]),
                    KForm(scn2.base, 2,
                          {(0, 1): rand_poly(rng, scn2.base.coords, degree=1)}))
            rep = check_pair(pair, POLICY)
            assert rep.equivalence_consistent
            positives += rep.nondeg_on_H
            negatives += not rep.nondeg_on_H
        assert positives >= 10 and negatives >= 10


def test_criterion_3_darboux_homogeneous_charts():
    """chi = (u, x^i, -mu, mu p_i) for k = 1, 2, 3: affine data
    diag(I_k, r I_k) with b = 0, chart frame symplectic; exact."""
    with _Budget("3 Darboux homogeneous charts", 10):
        for k in (1, 2, 3):
            pair = standard_darboux_pair(k)
            rep = integrability_report(pair, check_pair(pair, POLICY), POLICY)
            assert rep.chart_constructed, rep.note
            names = [ex.to_dsl(c) for c in rep.witness_chart]
            assert names[0] == "u" and names[k] == "-mu"


def test_criterion_4_normalizer_lemmas():
    """Exact-sequence and splitting identities on 50 random elements per
    group, k <= 3 and m <= 7, in exact rational arithmetic."""
    with _Budget("4 normalizer lemmas", 30):
        rng = random.Random(POLICY.seed)
        groups = [SP(k) for k in (1, 2, 3)] + [GLC(k) for k in (1, 2, 3)] + \
            [O(m) for m in range(2, 8)]
        values = {"sp": [Fraction(2), Fraction(-3), Fraction(1, 5)],
                  "glc": [0, 1],
                  "o": [Fraction(4), Fraction(9, 4), Fraction(1, 16)]}
        for G in groups:
            neutral = 0 if G.family == "glc" else Fraction(1)
            for i in range(50):
                g = rand_element(G, rng)
                assert member(G, g)
                assert normalizer_p(G, g) == neutral
                v = values[G.family][i % len(values[G.family])]
                assert normalizer_p(G, rm.qmul(g, splitting(G, v))) == v


def test_criterion_5_rd_cross_check(monkeypatch):
    """Connection curvature equals the closed-form tensors on the flat
    plane, the radius-2 sphere, and 5 seeded random (g, eta) on the
    2-dimensional base.  Also pins how its sampled rational queries are
    decided: a query alone is zero at one uniform point of GF(p)^n, or has
    a nonzero residue there and goes on to the witness path, a search for
    an exact nonzero value at rational draws; after a sweep's first GF(p)
    zero, the rest of its rational residuals are decided together at one
    shared point ("shared point" counts those calls, "shared roots" the
    residuals they decide).  And pins how many residuals the sweep skips:
    each (b, a) residual that is the negation of an (a, b) residual already
    decided zero over GF(p) makes no query, nor does a residual whose
    residue at a shared point is zero."""
    mix = collections.Counter()
    real = zerotest._uniform_residue

    def record(e, tape, policy):
        residues, p, count = real(e, tape, policy)
        if len(residues) > 1:
            mix["shared point"] += 1
            mix["shared roots"] += len(residues)
        else:
            mix["uniform point" if residues == [0] else "witness path"] += 1
        return residues, p, count

    swept = collections.Counter()
    real_report, real_sweep = zerotest.zero_report, riemannian.all_zero

    def report(e, policy):
        swept["queried"] += 1
        return real_report(e, policy)

    def sweep(pairs, policy):
        taken, asked = [], swept["queried"]

        def counted():
            for pair in pairs:
                taken.append(pair)
                yield pair

        result = real_sweep(counted(), policy)
        swept["skipped"] += len(taken) - (swept["queried"] - asked)
        return result

    monkeypatch.setattr(zerotest, "_uniform_residue", record)
    monkeypatch.setattr(zerotest, "zero_report", report)
    monkeypatch.setattr(riemannian, "all_zero", sweep)
    with _Budget("5 curvature formula cross-check", 300):
        from homogeo import symmat
        flat2 = LineBundleScenario("e2", ("x", "y"))
        g2 = SymTensor2(flat2.base, ((ex.ONE, ex.ZERO), (ex.ZERO, ex.ONE)))
        for triple in (MetricTriple(flat2, g2, KForm(flat2.base, 1, {})),
                       sphere_triple(2)):
            assert verify_rd_formulas(triple, *curvature(triple, POLICY), POLICY).agree

        def rand_affine(rng, coords):
            parts = [ex.rat(Fraction(rng.randint(-2, 2), 10))]
            for c in coords:
                parts.append(ex.mul(ex.rat(Fraction(rng.randint(-2, 2), 10)),
                                    ex.var(c)))
            return ex.add(*parts)

        for seed in range(5):
            scn = LineBundleScenario("r2", ("x", "y"))
            rng = random.Random(seed)
            P = [[rand_affine(rng, ("x", "y")) for _ in range(2)]
                 for _ in range(2)]
            PtP = symmat.mat_mul(symmat.transpose(P), P)
            rows = [[ex.add(ex.rat(int(i == j)), PtP[i][j]) for j in range(2)]
                    for i in range(2)]
            triple = MetricTriple(scn, SymTensor2(scn.base,
                                                  tuple(tuple(r) for r in rows)),
                                  one_form(scn.base,
                                           [rand_affine(rng, ("x", "y")),
                                            rand_affine(rng, ("x", "y"))]))
            triple.check_definite(POLICY)
            assert verify_rd_formulas(triple, *curvature(triple, POLICY), POLICY).agree
    assert mix == {"uniform point": 5, "witness path": 10, "shared point": 5,
                   "shared roots": 150}
    assert swept["skipped"] == 265


def test_criterion_6_flatness_equivalence():
    """Sphere cases n = 1, 2: A = B = D = 0, connection curvature zero, flat
    upstairs metric, and square-root homogeneity of the flat chart; the flat
    plane is the negative control with an explicit witness."""
    with _Budget("6 flatness equivalence", 120):
        for n in (1, 2):
            triple = sphere_triple(n)
            rep = flatness_report(triple, *curvature(triple, POLICY), POLICY)
            assert rep.A_zero and rep.B_zero and rep.D_zero and rep.RD_zero
            assert rep.equivalence_consistent
            chart = sphere_flat_chart(n, POLICY)
            assert chart.flat and chart.chart_reproduces_metric
            assert chart.homogeneous, chart.failure
        flat2 = LineBundleScenario("e2", ("x", "y"))
        g2 = SymTensor2(flat2.base, ((ex.ONE, ex.ZERO), (ex.ZERO, ex.ONE)))
        triple = MetricTriple(flat2, g2, KForm(flat2.base, 1, {}))
        control = flatness_report(triple, *curvature(triple, POLICY), POLICY)
        assert not control.D_zero and not control.RD_zero
        assert control.equivalence_consistent
        assert control.witness is not None


def test_criterion_7_complex_torsion():
    """Constant frame: torsion exactly zero.  Dimension-2 identity on 5
    random structures.  One engineered non-integrable structure with a
    witness point.  Tensoriality against a random function."""
    with _Budget("7 complex torsion", 60):
        rng = random.Random(POLICY.seed)
        scn3 = LineBundleScenario("c3", ("x", "y", "z"))
        cf = [VectorField(scn3.total, tuple(ex.rat(int(i == j)) for i in range(4)))
              for j in range(3)]
        const = Frame(scn3, (cf[0], cf[1], cf[2], scn3.euler()))
        ac = frame_to_j(const, POLICY)
        N = nijenhuis(ac.J)
        assert all(v.is_zero_literal() for a in N for b in a for v in b)

        scn1 = LineBundleScenario("c1", ("x",))
        pol1 = POLICY.with_constraints(scn1.total.constraints)
        for _ in range(5):
            a = rand_poly(rng, scn1.total.coords, degree=1)
            b = ex.add(ex.rat(2), ex.pw(rand_poly(rng, scn1.total.coords,
                                                  degree=1), 2))
            row2 = ex.neg(ex.div(ex.add(ex.ONE, ex.pw(a, 2)), b))
            J = Endo11(scn1.total, ((a, b), (row2, ex.neg(a))))
            N1 = nijenhuis(J)
            assert all(is_zero(v, pol1) for x in N1 for y in x for v in y)

        mu, x = scn3.mu, ex.var("x")
        RY1 = VectorField(scn3.total, (ex.ZERO, ex.cos_(x), ex.ZERO,
                                       ex.mul(ex.sin_(x), mu)))
        RY2 = VectorField(scn3.total, (ex.ZERO, ex.neg(ex.sin_(x)), ex.ZERO,
                                       ex.mul(ex.cos_(x), mu)))
        twisted = frame_to_j(Frame(scn3, (cf[0], cf[2], RY1, RY2)), POLICY)
        rep = integrability_report_c(twisted, POLICY)
        assert not rep.torsion_zero
        assert rep.witness is not None and rep.witness["point"] is not None

        pol3 = POLICY.with_constraints(scn3.total.constraints)
        f = rand_poly(rng, scn3.total.coords, degree=2)
        X = coordinate_field(scn3.total, 1)
        Y = VectorField(scn3.total, (ex.ONE, ex.ZERO, ex.var("z"), ex.ZERO))
        lhs = nijenhuis_fields(twisted.J, X.scale(f), Y)
        rhs = nijenhuis_fields(twisted.J, X, Y).scale(f)
        assert all(is_zero(ex.sub(p, q), pol3)
                   for p, q in zip(lhs.comps, rhs.comps))


def test_criterion_8_cosymplectic_dictionary():
    """Nondegeneracy and closure equivalences on 10 random pairs per
    k in {1, 2}."""
    with _Budget("8 cosymplectic dictionary", 30):
        rng = random.Random(POLICY.seed)
        scn1 = LineBundleScenario("s1", ("u",))
        scn3 = LineBundleScenario("s3", ("x", "y", "z"))
        for scn in (scn1, scn3):
            n = scn.base.dim
            for i in range(10):
                closed = i % 2 == 0
                mk = (lambda: ex.rat(Fraction(rng.randint(-3, 3), 4))) if closed \
                    else (lambda: rand_poly(rng, scn.base.coords, degree=1))
                Omega = KForm(scn.base, 2,
                              {idx: mk() for idx in combinations(range(n), 2)
                               if rng.random() < 0.8})
                eta = KForm(scn.base, 1, {(j,): mk() for j in range(n)
                                          if rng.random() < 0.8})
                rep = check_cosymplectic(CosymplecticPair(scn, Omega, eta), POLICY)
                assert rep.nondegeneracy_consistent
                assert rep.closure_consistent


def test_criterion_9_homogeneity_certificates():
    """Every constructed upstairs object carries its degree for symbolic
    r > 0 and under the reflection r = -1."""
    with _Budget("9 homogeneity certificates", 60):
        pair = standard_darboux_pair(2)
        scn = pair.scenario
        assert scn.is_homogeneous(pair_to_omega(pair), DEG1, POLICY)

        from homogeo.cosymplectic import pair_to_omega0, standard_cosymplectic_pair
        cpair = standard_cosymplectic_pair(2)
        assert cpair.scenario.is_homogeneous(pair_to_omega0(cpair), DEG0, POLICY)

        scn3 = LineBundleScenario("c3", ("x", "y", "z"))
        cf = [VectorField(scn3.total, tuple(ex.rat(int(i == j)) for i in range(4)))
              for j in range(3)]
        ac = frame_to_j(Frame(scn3, (cf[0], cf[1], cf[2], scn3.euler())), POLICY)
        assert scn3.is_homogeneous(ac.J, DEG0, POLICY)

        triple = sphere_triple(2)
        gt = triple_to_gtilde(triple)
        assert triple.scenario.is_homogeneous(gt, DEG_ABS, POLICY)

        chart = sphere_flat_chart(2, POLICY)
        assert chart.homogeneous   # chi scales by |r|^(1/2) including r = -1


def test_criterion_10_full_bundled_suite():
    """The bundled scenario suite: no failures, no falsifications, and
    byte-identical reports for a fixed seed."""
    import os
    scenarios_dir = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "scenarios")
    with _Budget("10 full bundled suite", 600):
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "homogeo.cli", "suite", scenarios_dir,
                 "--json", "--seed", "0"],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        aggregate = json.loads(outputs[0])
        assert aggregate["summary"]["fail"] == 0
        assert aggregate["summary"]["falsification"] == 0
        assert aggregate["summary"]["input_errors"] == 0
        assert aggregate["summary"]["scenarios"] >= 20
