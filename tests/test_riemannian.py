import collections
import hashlib
import importlib.util
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from homogeo import expr as ex
from homogeo import zerotest
from homogeo import ratmat as rm
from homogeo import symmat
from homogeo.cli import main
from homogeo.frames import degree_coset, transition
from homogeo.groups import O, rand_element
from homogeo.linebundle import DEG_ABS, DegreeError, LineBundleScenario
from homogeo.metric import (DegeneracyError, christoffel, covariant_derivative_oneform,
                            metric_inverse, riemann)
from homogeo.riemannian import (MetricTriple, curvature_RD,
                                flatness_report, frame_to_gtilde,
                                gtilde_frame, gtilde_to_triple,
                                koszul_connection, sphere_embedding,
                                sphere_flat_chart, sphere_metric,
                                sphere_triple, tensors_ABCD, triple_to_G,
                                triple_to_gtilde, verify_rd_formulas)
from homogeo.scenarios import load_scenario, run_scenario
from homogeo.tensors import KForm, SymTensor2, d, one_form
from homogeo.zerotest import ZeroTestPolicy, is_zero, sample_values

from conftest import curvature

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def euclid_triple(n=2, coords=("x", "y")):
    scn = LineBundleScenario(f"e{n}", coords[:n])
    g = SymTensor2(scn.base, tuple(tuple(ex.rat(int(i == j)) for j in range(n))
                                   for i in range(n)))
    return MetricTriple(scn, g, KForm(scn.base, 1, {}))


def rand_affine(rng, coords, scale=Fraction(1, 10)):
    parts = [ex.rat(Fraction(rng.randint(-2, 2), 10))]
    for c in coords:
        parts.append(ex.mul(ex.rat(Fraction(rng.randint(-2, 2)) * scale),
                            ex.var(c)))
    return ex.add(*parts)


def rand_triple(seed):
    """Definite by construction: g = I + P^t P for a random affine P."""
    scn = LineBundleScenario("r2", ("x", "y"))
    rng = random.Random(seed)
    P = [[rand_affine(rng, ("x", "y")) for _ in range(2)] for _ in range(2)]
    PtP = symmat.mat_mul(symmat.transpose(P), P)
    rows = [[ex.add(ex.rat(int(i == j)), PtP[i][j]) for j in range(2)]
            for i in range(2)]
    g = SymTensor2(scn.base, tuple(tuple(r) for r in rows))
    eta = one_form(scn.base, [rand_affine(rng, ("x", "y")),
                              rand_affine(rng, ("x", "y"))])
    return MetricTriple(scn, g, eta)


# -- algebroid metric and connection ---------------------------------------------

def test_triple_to_G_blocks():
    tr = euclid_triple()
    G = triple_to_G(tr)
    assert G.gram[0][0] is ex.ONE
    assert G.gram[0][1] is ex.ZERO and G.gram[1][0] is ex.ZERO
    assert G.gram[1][1] is ex.ONE


def test_twisted_basis_brackets():
    scn = LineBundleScenario("t2", ("x", "y"))
    eta = one_form(scn.base, [ex.ZERO, ex.var("x")])   # deta = dx ^ dy
    g = SymTensor2(scn.base, ((ex.ONE, ex.ZERO), (ex.ZERO, ex.ONE)))
    G = triple_to_G(MetricTriple(scn, g, eta))
    c = G.bracket_coeffs()
    assert c[0][1][2] is ex.ONE and c[0][2][1] is ex.rat(-1)
    assert all(c[d][0][b] is ex.ZERO for d in range(3) for b in range(3))


def test_koszul_euclid_christoffels():
    conn = koszul_connection(triple_to_G(euclid_triple()))
    half = ex.rat(Fraction(1, 2))
    assert conn.gamma[0][0][0] is half
    assert conn.gamma[1][0][1] is half and conn.gamma[1][1][0] is half
    assert conn.gamma[0][1][1] is ex.rat(Fraction(-1, 2))


def test_koszul_residuals_random():
    pol = ZeroTestPolicy()
    for seed in (0, 1):
        conn = koszul_connection(triple_to_G(rand_triple(seed)))
        assert all(is_zero(r, pol) for _, r in conn.symmetry_residuals())
        assert all(is_zero(r, pol) for _, r in conn.metricity_residuals())


# -- reference builders: the full loops over every index pair ----------------------
# The library builds an antisymmetric (symmetric) array on one half of each
# index pair and fills the other half with the negated (the same) node.
# These loops build both halves; the tests below check node identity.

def full_christoffel(g, ginv):
    chart, n = g.chart, g.chart.dim
    dg = [[[ex.diff(g.mat[i][j], chart.coords[k], chart.constraints)
            for j in range(n)] for i in range(n)] for k in range(n)]
    half = ex.rat(Fraction(1, 2))
    return [[[ex.mul(half, ex.add(*[
        ex.mul(ginv[k][l], ex.add(dg[i][j][l], dg[j][i][l], ex.neg(dg[l][i][j])))
        for l in range(n)])) for j in range(n)] for i in range(n)] for k in range(n)]


def full_riemann(g, gamma):
    chart, n = g.chart, g.chart.dim
    cons = chart.constraints
    out = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for l, k, i, j in itertools.product(range(n), repeat=4):
        parts = [ex.diff(gamma[l][j][k], chart.coords[i], cons),
                 ex.neg(ex.diff(gamma[l][i][k], chart.coords[j], cons))]
        for m in range(n):
            parts.append(ex.mul(gamma[l][i][m], gamma[m][j][k]))
            parts.append(ex.neg(ex.mul(gamma[l][j][m], gamma[m][i][k])))
        out[l][k][i][j] = ex.add(*parts)
    return out


def full_curvature_RD(conn):
    G, gamma = conn.metric, conn.gamma
    n1 = G.dim
    c = G.bracket_coeffs()
    out = [[[[None] * n1 for _ in range(n1)] for _ in range(n1)] for _ in range(n1)]
    for a, b, cc, e in itertools.product(range(n1), repeat=4):
        parts = [G.anchor_apply(a, gamma[e][b][cc]),
                 ex.neg(G.anchor_apply(b, gamma[e][a][cc]))]
        for dd in range(n1):
            parts.append(ex.mul(gamma[dd][b][cc], gamma[e][a][dd]))
            parts.append(ex.neg(ex.mul(gamma[dd][a][cc], gamma[e][b][dd])))
            parts.append(ex.neg(ex.mul(c[dd][a][b], gamma[e][dd][cc])))
        out[e][cc][a][b] = ex.simplify(ex.add(*parts), G.scenario.base.constraints)
    return out


def full_D_low(triple):
    """D_low of tensors_ABCD from the full loop, on full_christoffel and
    full_riemann."""
    g, eta = triple.g, triple.eta
    chart, n = g.chart, g.chart.dim
    ginv = metric_inverse(g)
    gamma = full_christoffel(g, ginv)
    Rm = full_riemann(g, gamma)
    W = d(eta).rows()
    nabla_eta = covariant_derivative_oneform(gamma, eta)
    eta_up = [ex.add(*[ex.mul(ginv[a][b], eta.coeff((b,))) for b in range(n)])
              for a in range(n)]
    eta_norm2 = ex.add(*[ex.mul(eta_up[a], eta.coeff((a,))) for a in range(n)])

    def S(i, j):
        return ex.add(nabla_eta[i][j], nabla_eta[j][i],
                      ex.neg(ex.mul(eta.coeff((i,)), eta.coeff((j,)))),
                      ex.mul(eta_norm2, g.mat[i][j]))

    def Eterm(i, j, k, l):
        R_low = ex.add(*[ex.mul(g.mat[l][m], Rm[m][k][i][j]) for m in range(n)])
        return ex.add(
            ex.mul(ex.rat(2), R_low),
            ex.mul(g.mat[i][k], g.mat[j][l]),
            ex.mul(S(i, k), g.mat[j][l]),
            ex.neg(ex.mul(ex.add(nabla_eta[i][l], nabla_eta[l][i],
                                 ex.neg(ex.mul(eta.coeff((i,)), eta.coeff((l,))))),
                          g.mat[j][k])),
            ex.mul(W[i][j], W[k][l]),
            ex.mul(W[i][k], W[j][l]))

    return [[[[ex.simplify(ex.sub(Eterm(i, j, k, l), Eterm(j, i, k, l)),
                           chart.constraints)
               for l in range(n)] for k in range(n)] for j in range(n)]
            for i in range(n)]


def _node_mismatches(got, want, idx=()):
    """Indices where two nested arrays of expressions hold different nodes."""
    if isinstance(want, ex.Expr):
        return [] if got is want else [idx]
    assert len(got) == len(want)
    return [bad for i, (a, b) in enumerate(zip(got, want))
            for bad in _node_mismatches(a, b, idx + (i,))]


def criterion_5_triples():
    """The triples of test_criterion_5_rd_cross_check: the flat plane, the
    radius-2 sphere and rand_triple(0..4), which its seeded triples equal."""
    return [euclid_triple(), sphere_triple(2), *map(rand_triple, range(5))]


def test_curvature_antisymmetry():
    """Every entry of curvature_RD, christoffel, riemann and tensors_ABCD's
    antisymmetric arrays is the node the full loop builds, so R(a, b) =
    -R(b, a) holds node by node: the half they skip is not assumed."""
    for triple in criterion_5_triples():
        conn = koszul_connection(triple_to_G(triple))
        RD = curvature_RD(conn)
        assert _node_mismatches(RD, full_curvature_RD(conn)) == []
        n1 = conn.metric.dim
        for e, c, a, b in itertools.product(range(n1), repeat=4):
            assert RD[e][c][b][a] is ex.neg(RD[e][c][a][b])
            assert a != b or RD[e][c][a][b] is ex.ZERO

        g = triple.g
        ginv = metric_inverse(g)
        gamma = christoffel(g, ginv=ginv)
        assert _node_mismatches(gamma, full_christoffel(g, ginv)) == []
        assert _node_mismatches(riemann(g, gamma=gamma), full_riemann(g, gamma)) == []
        t = tensors_ABCD(triple)
        assert _node_mismatches(t["D_low"], full_D_low(triple)) == []
        n = g.chart.dim
        assert _node_mismatches(t["C_low"], [[[ex.sub(t["B_low"][i][j][c], t["B_low"][j][i][c])
                                               for c in range(n)] for j in range(n)]
                                             for i in range(n)]) == []
        assert _node_mismatches(t["C"], [[[ex.sub(t["B"][e][i][j], t["B"][e][j][i])
                                           for j in range(n)] for i in range(n)]
                                         for e in range(n)]) == []


def test_curvature_metric_antisymmetry_in_last_slots():
    # G(R(a,b)c, e) = -G(R(a,b)e, c)
    G = triple_to_G(rand_triple(3))
    RD = curvature_RD(koszul_connection(G))
    gram = G.gram
    n1 = 3
    pol = ZeroTestPolicy()
    for a in range(n1):
        for b in range(n1):
            for c in range(n1):
                for e in range(n1):
                    lhs = ex.add(*[ex.mul(RD[d][c][a][b], gram[d][e])
                                   for d in range(n1)])
                    rhs = ex.add(*[ex.mul(RD[d][e][a][b], gram[d][c])
                                   for d in range(n1)])
                    assert is_zero(ex.add(lhs, rhs), pol)


def test_basis_independence_of_curvature():
    """Recompute the connection curvature over a constant GL-rotated basis
    (duck-typed metric with transformed gram, brackets, and actions) and
    compare through the tensor transformation law.  Flat g with eta = x dy
    keeps the entries polynomial while exercising nonzero brackets."""
    scn = LineBundleScenario("bi2", ("x", "y"))
    g = SymTensor2(scn.base, ((ex.ONE, ex.ZERO), (ex.ZERO, ex.ONE)))
    triple = MetricTriple(scn, g, one_form(scn.base, [ex.ZERO, ex.var("x")]))
    G = triple_to_G(triple)
    n1 = G.dim
    rng = random.Random(9)
    while True:
        M = [[Fraction(rng.randint(-2, 2)) for _ in range(n1)] for _ in range(n1)]
        try:
            Minv = rm.to_mat(rm.qsolve(rm.qmat(M), rm.qmat(rm.rident(n1))))
            break
        except ZeroDivisionError:
            continue
    Mex = [[ex.rat(v) for v in row] for row in M]
    Minvex = [[ex.rat(v) for v in row] for row in Minv]

    class Rotated:
        scenario = G.scenario
        dim = n1
        gram = symmat.mat_mul(symmat.mat_mul(symmat.transpose(Mex),
                                             [list(r) for r in G.gram]), Mex)

        def bracket_coeffs(self):
            base = G.bracket_coeffs()
            out = [[[ex.ZERO] * n1 for _ in range(n1)] for _ in range(n1)]
            for dd in range(n1):
                for a in range(n1):
                    for b in range(n1):
                        parts = []
                        for p in range(n1):
                            for q in range(n1):
                                for s in range(n1):
                                    t = base[s][p][q]
                                    if t.is_zero_literal():
                                        continue
                                    parts.append(ex.mul(Minvex[dd][s], t,
                                                        Mex[p][a], Mex[q][b]))
                        out[dd][a][b] = ex.add(*parts) if parts else ex.ZERO
            return out

        def diamond(self, a, f):
            return ex.add(*[ex.mul(Mex[b][a], G.diamond(b, f)) for b in range(n1)])

        def anchor_apply(self, a, f):
            return ex.add(*[ex.mul(Mex[b][a], G.anchor_apply(b, f))
                            for b in range(n1)])

    RD = curvature_RD(koszul_connection(G))
    RDr = curvature_RD(koszul_connection(Rotated()))
    pol = ZeroTestPolicy()
    for e in range(n1):
        for c in range(n1):
            for a in range(n1):
                for b in range(n1):
                    parts = []
                    for s in range(n1):
                        for p in range(n1):
                            for q in range(n1):
                                for t in range(n1):
                                    v = RD[s][t][p][q]
                                    if v.is_zero_literal():
                                        continue
                                    parts.append(ex.mul(Minvex[e][s], v,
                                                        Mex[t][c], Mex[p][a],
                                                        Mex[q][b]))
                    want = ex.add(*parts) if parts else ex.ZERO
                    assert is_zero(ex.sub(RDr[e][c][a][b], want), pol)


# -- tensors and the cross-check -----------------------------------------------------

def test_abcd_euclid_eta0():
    t = tensors_ABCD(euclid_triple())
    pol = ZeroTestPolicy()
    flat_arrays = [t["A"], t["B"], t["C"]]
    for arr in flat_arrays:
        stack = [arr]
        while stack:
            node = stack.pop()
            if isinstance(node, ex.Expr):
                assert is_zero(node, pol)
            else:
                stack.extend(node)
    # D_low(X,Y,Z,W) = g(X,Z)g(Y,W) - g(Y,Z)g(X,W)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    want = ex.rat(int(i == k and j == l) - int(j == k and i == l))
                    assert is_zero(ex.sub(t["D_low"][i][j][k][l], want), pol)


def test_abcd_golden_file():
    with open(os.path.join(GOLDEN, "abcd_flat3_eta_z.json")) as fh:
        golden = json.load(fh)
    scn = LineBundleScenario("e3", tuple(golden["coords"]))
    g = SymTensor2(scn.base, tuple(tuple(scn.base.parse(v) for v in row)
                                   for row in golden["g"]))
    eta = one_form(scn.base, [scn.base.parse(golden["eta"].get(c, "0"))
                              for c in golden["coords"]])
    t = tensors_ABCD(MetricTriple(scn, g, eta))

    def compare(got, want):
        if isinstance(got, ex.Expr):
            assert got is scn.base.parse(want)
            return
        assert len(got) == len(want)
        for a, b in zip(got, want):
            compare(a, b)

    for key in ("A", "A_low", "B", "B_low", "C", "C_low", "D", "D_low"):
        compare(t[key], golden[key])


def test_verify_rd_formulas_euclid_and_golden_case():
    triple = euclid_triple()
    assert verify_rd_formulas(triple, *curvature(triple)).agree
    with open(os.path.join(GOLDEN, "abcd_flat3_eta_z.json")) as fh:
        golden = json.load(fh)
    scn = LineBundleScenario("e3", tuple(golden["coords"]))
    g = SymTensor2(scn.base, tuple(tuple(scn.base.parse(v) for v in row)
                                   for row in golden["g"]))
    eta = one_form(scn.base, [scn.base.parse(golden["eta"].get(c, "0"))
                              for c in golden["coords"]])
    triple = MetricTriple(scn, g, eta)
    assert verify_rd_formulas(triple, *curvature(triple)).agree


def test_verify_rd_formulas_seeded_random():
    for seed in range(3):
        triple = rand_triple(seed)
        triple.check_definite()
        assert verify_rd_formulas(triple, *curvature(triple)).agree


# a fixed rational triple on (x, y): g = I + P^t P with P affine, every
# coefficient nonzero (as in the benchmark's curvature workload)
_PINNED_P = [["1/10 - 1/5*x + 1/10*y", "1/5 + 1/10*x - 1/10*y"],
             ["-1/10 + 1/5*x + 1/5*y", "1/10 - 1/10*x + 1/5*y"]]
_PINNED_ETA = {"x": "1/5 - 1/10*x + 1/10*y", "y": "-1/5 + 1/10*x - 1/5*y"}


def test_curvature_queries_pinned(tmp_path, monkeypatch, capsys):
    """The sampled zero-test decisions of a riemannian scenario on one
    fixed rational triple, in order, pinned by the count and sha256 of
    their keys: every residual is rational, so each query has a GF(p) key
    (zerotest._digest), as has each shared point that decides the rest of
    a sweep (one key for all its roots), and none is printed: the few with
    a nonzero residue key their witness stream by that same digest, and
    each is computed once a query.  A constructor change that moves a node on
    the curvature path (christoffels, curvature_RD, tensors_ABCD, the
    flatness test), or a residual added, dropped or reordered, moves the
    keys, as test_bundled_suite_queries_pinned does for the bundled
    scenarios.  The printed fingerprints of all 38 residuals decided over
    GF(p), alone or at a shared point, are pinned too: they are those of
    the 38 queries that deciding each residual alone makes."""
    g = [["1 + " + " + ".join(f"({_PINNED_P[k][i]})*({_PINNED_P[k][j]})"
                              for k in range(2)) if i == j else
          " + ".join(f"({_PINNED_P[k][i]})*({_PINNED_P[k][j]})" for k in range(2))
          for j in range(2)] for i in range(2)]
    path = tmp_path / "pinned_triple.json"
    path.write_text(json.dumps({
        "name": "pinned_triple", "kind": "riemannian",
        "policy": {"seed": 0, "samples": 20, "tolerance": 1e-9},
        "base": {"coords": ["x", "y"], "constraints": []},
        "objects": {"g": g, "eta": _PINNED_ETA}}))
    keys, printed, every_print = [], [], []
    digest, fingerprint = zerotest._digest, zerotest._fingerprint

    def record_key(e, policy):
        keys.append(digest(e, policy))
        every_print.extend(fingerprint(r, policy)
                           for r in ((e,) if isinstance(e, ex.Expr) else e))
        return keys[-1]

    def record_print(e, policy):
        printed.append(fingerprint(e, policy))
        return printed[-1]

    monkeypatch.setattr(zerotest, "_digest", record_key)
    monkeypatch.setattr(zerotest, "_fingerprint", record_print)
    assert main(["run", str(path)]) == 0
    capsys.readouterr()

    def sha(values):
        return hashlib.sha256("\n".join(map(str, values)).encode()).hexdigest()

    assert (len(keys), len(printed), len(every_print)) == (9, 0, 38)
    assert sha(keys) == \
        "2b59b71498d2c33144518a0e608d9d76daa27bb1756d3713d79c42fb8c8d1448"
    assert sha(every_print) == \
        "64850698f0d17540f14bbab0320c0c5aaf3515479e92935255b134bf3f0ccae5"


@pytest.fixture(scope="module")
def curvature_set(tmp_path_factory):
    """The benchmark's seed-7 curvature set: three riemannian scenarios."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "curvature_inputs", os.path.join(root, "perfbench", "inputs.py"))
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    directory = tmp_path_factory.mktemp("curvature_set")
    inputs.write_curvature_set(str(directory), 7)
    return str(directory)


def test_curvature_set_report_independent_of_hash_seed(curvature_set):
    # the witnesses searched for when a report reads them are keyed by the
    # digest, which reads no string hash: the same bytes under two seeds
    outs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-m", "homogeo.cli", "suite",
                               curvature_set, "--json"],
                              env={**os.environ, "PYTHONHASHSEED": hash_seed},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    witnesses = [c["witness"] for r in json.loads(outs[0])["scenarios"]
                 for c in r["checks"] if c.get("witness")]
    assert witnesses and all("point" in w for w in witnesses)


def test_curvature_pass_call_counts_pinned(tmp_path, monkeypatch):
    """One run_scenario on the triple of test_curvature_queries_pinned makes
    a pinned number of ex.simplify and ex.diff calls.  A builder that goes
    back to building both halves of an antisymmetric or symmetric array
    (curvature_RD, riemann, christoffel, tensors_ABCD) raises them: the
    full loops made 319 and 244, when each residual was also queried
    alone.  The 30 residuals decided at a sweep's shared GF(p) point make
    no query, and so none of the query's own simplify calls."""
    g = [[" + ".join([*(["1"] if i == j else []),
                      *(f"({_PINNED_P[k][i]})*({_PINNED_P[k][j]})" for k in range(2))])
          for j in range(2)] for i in range(2)]
    path = tmp_path / "pinned_triple.json"
    path.write_text(json.dumps({
        "name": "pinned_triple", "kind": "riemannian",
        "policy": {"seed": 0, "samples": 20, "tolerance": 1e-9},
        "base": {"coords": ["x", "y"], "constraints": []},
        "objects": {"g": g, "eta": _PINNED_ETA}}))
    data = load_scenario(str(path))
    calls = collections.Counter()
    for name in ("simplify", "diff"):
        def counted(*args, _real=getattr(ex, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(ex, name, counted)
    report = run_scenario(data)
    assert report["summary"] == {"pass": 4, "fail": 0, "falsification": 0}
    assert dict(calls) == {"simplify": 223, "diff": 148}


def test_c_antisymmetric_and_zero_with_b():
    t = tensors_ABCD(rand_triple(5))
    pol = ZeroTestPolicy()
    n = 2
    for e in range(n):
        for i in range(n):
            for j in range(n):
                assert is_zero(ex.add(t["C"][e][i][j], t["C"][e][j][i]), pol)
    t0 = tensors_ABCD(euclid_triple())   # B = 0 forces C = 0
    assert all(is_zero(v, pol) for e in t0["C"] for row in e for v in row)


def test_flatness_witness_of_a_certificate_is_its_note(certificate_verdicts):
    triple = euclid_triple()
    rep = flatness_report(triple, *curvature(triple))
    assert not rep.D_zero and rep.equivalence_consistent
    assert rep.witness == {"index": rep.witness["index"], "note": certificate_verdicts}


def test_flatness_report_searches_one_witness(monkeypatch):
    # the report shows the witness of its first failing tensor, so the
    # nonzero verdicts of the others search for none
    searches = []
    real = zerotest._witness_search
    monkeypatch.setattr(zerotest, "_witness_search",
                        lambda *args: searches.append(args) or real(*args))
    triple = rand_triple(0)
    rep = flatness_report(triple, *curvature(triple))
    failing = [not z for z in (rep.A_zero, rep.B_zero, rep.C_zero, rep.D_zero,
                               rep.RD_zero)]
    assert sum(failing) > 1 and "point" in rep.witness
    assert len(searches) == 1


def test_flatness_equivalence_suite():
    # spheres positive, euclid negative, random perturbations negative
    for n in (1, 2):
        triple = sphere_triple(n)
        rep = flatness_report(triple, *curvature(triple))
        assert rep.A_zero and rep.B_zero and rep.C_zero and rep.D_zero
        assert rep.RD_zero and rep.equivalence_consistent
    triple = euclid_triple()
    rep = flatness_report(triple, *curvature(triple))
    assert rep.A_zero and rep.B_zero and not rep.D_zero and not rep.RD_zero
    assert rep.equivalence_consistent and rep.witness is not None
    for seed in (0, 1):
        triple = rand_triple(seed)
        rep = flatness_report(triple, *curvature(triple))
        assert rep.equivalence_consistent
        assert not rep.RD_zero


# -- upstairs dictionary ----------------------------------------------------------

def test_triple_to_gtilde_structure():
    triple = euclid_triple()
    scn = triple.scenario
    gt = triple_to_gtilde(triple)
    E = scn.euler()
    pol = ZeroTestPolicy(constraints=scn.total.constraints)
    assert is_zero(ex.sub(gt(E, E), scn.mu), pol)
    assert scn.is_homogeneous(gt, DEG_ABS)


def test_gtilde_round_trip_with_shear_and_rescale():
    scn = LineBundleScenario("rt", ("x", "y"))
    x, y = ex.var("x"), ex.var("y")
    g = SymTensor2(scn.base, ((ex.add(ex.rat(2), ex.pw(x, 2)),
                               ex.mul(ex.rat(Fraction(1, 3)), x)),
                              (ex.mul(ex.rat(Fraction(1, 3)), x), ex.ONE)))
    eta = one_form(scn.base, [ex.mul(ex.rat(Fraction(1, 5)), y),
                              ex.rat(Fraction(1, 7))])
    triple = MetricTriple(scn, g, eta)
    u = ex.add(ex.rat(2), ex.mul(ex.rat(Fraction(1, 4)), ex.pw(x, 2)))
    gt = triple_to_gtilde(triple, u)
    assert scn.is_homogeneous(gt, DEG_ABS)
    rec, u_rec = gtilde_to_triple(gt, scn)
    pol = ZeroTestPolicy(constraints=scn.base.constraints)
    for i in range(2):
        assert is_zero(ex.sub(rec.eta.coeff((i,)), eta.coeff((i,))), pol)
        for j in range(2):
            assert is_zero(ex.sub(rec.g.mat[i][j], g.mat[i][j]), pol)
    assert is_zero(ex.sub(u_rec, u), pol)


def test_gtilde_orthogonal_case_recovers_zero_eta():
    triple = euclid_triple()
    rec, u_rec = gtilde_to_triple(triple_to_gtilde(triple), triple.scenario)
    assert all(c.is_zero_literal() for c in
               (rec.eta.coeff((0,)), rec.eta.coeff((1,))))
    assert u_rec is ex.ONE


def test_gtilde_to_triple_rejects_a_fiber_dependent_block():
    # g(E, E) = mu descends (u = 1), but the rescaled x-block
    # (mu^2 x^2 + mu)/mu = mu x^2 + 1 still depends on mu
    scn = LineBundleScenario("dep", ("x",))
    x, mu = ex.var("x"), scn.mu
    gt = SymTensor2(scn.total, ((ex.add(ex.mul(ex.pw(mu, 2), ex.pw(x, 2)), mu), ex.ZERO),
                                (ex.ZERO, ex.pw(mu, -1))))
    with pytest.raises(DegreeError, match=r"not homogeneous of the claimed degree: "
                       r"residual \{'point': \{'mu': .*, 'x': .*\}, 'value': "):
        gtilde_to_triple(gt, scn)


def test_frame_to_gtilde_sphere():
    triple = sphere_triple(1)
    scn = triple.scenario
    gt = triple_to_gtilde(triple)
    frame = gtilde_frame(gt, scn)
    rep = degree_coset(transition(frame), O(2))
    pol = ZeroTestPolicy(constraints=(ex.Constraint("r", ">", 0),))
    assert rep.in_normalizer
    assert is_zero(ex.sub(rep.quotient_value, ex.var("r")), pol)
    assert rep.quotient_value_neg1 == Fraction(1)
    back = frame_to_gtilde(frame)
    polt = ZeroTestPolicy(constraints=scn.total.constraints)
    for i in range(2):
        for j in range(2):
            assert is_zero(ex.sub(back.mat[i][j], gt.mat[i][j]), polt)


def test_frame_to_gtilde_o_translate_invariant():
    rng = random.Random(91)
    triple = sphere_triple(1)
    scn = triple.scenario
    gt = triple_to_gtilde(triple)
    frame = gtilde_frame(gt, scn)
    rot = rm.to_mat(rand_element(O(2), rng))
    back = frame_to_gtilde(frame.translate(rot))
    polt = ZeroTestPolicy(constraints=scn.total.constraints)
    for i in range(2):
        for j in range(2):
            assert is_zero(ex.sub(back.mat[i][j], gt.mat[i][j]), polt)


def test_frame_to_gtilde_rejects_wrong_degree():
    scn = LineBundleScenario("w", ("x",))
    from homogeo.frames import Frame
    from homogeo.tensors import VectorField
    f = Frame(scn, (VectorField(scn.total, (ex.ONE, ex.ZERO)),
                    VectorField(scn.total, (ex.ZERO, scn.mu))))
    with pytest.raises(ValueError):
        frame_to_gtilde(f)


def test_definiteness_propagation():
    for seed in range(3):
        triple = rand_triple(seed)
        G = triple_to_G(triple)
        minors = [symmat.det([list(row[:lead]) for row in G.gram[:lead]])
                  for lead in range(1, G.dim + 1)]
        pol = ZeroTestPolicy().with_constraints(triple.scenario.base.constraints)
        for _, vals in sample_values(minors, list(triple.scenario.base.coords),
                                     pol, seed, count=6):
            assert all(v is not None and v > 0 for v in vals)


def test_degenerate_metric_rejected():
    scn = LineBundleScenario("d2", ("x", "y"))
    g = SymTensor2(scn.base, ((ex.ONE, ex.ONE), (ex.ONE, ex.ONE)))
    with pytest.raises(DegeneracyError):
        MetricTriple(scn, g, KForm(scn.base, 1, {})).check_definite()


# -- spheres -----------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_flat_chart(n):
    rep = sphere_flat_chart(n)
    assert rep.flat, rep.failure
    assert rep.chart_reproduces_metric, rep.failure
    assert rep.homogeneous, rep.failure


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_embedding_is_unit_and_induces_the_round_metric(n):
    chart = sphere_triple(n).scenario.base
    Y = sphere_embedding(n, chart)
    g = sphere_metric(n, chart)
    pol = ZeroTestPolicy(constraints=chart.constraints)
    assert len(Y) == n + 1
    assert is_zero(ex.sub(ex.add(*[ex.pw(y, 2) for y in Y]), ex.ONE), pol)
    dY = [[ex.diff(y, c) for c in chart.coords] for y in Y]
    for i in range(n):
        for j in range(n):
            pulled = ex.add(*[ex.mul(row[i], row[j]) for row in dY])
            assert is_zero(ex.sub(pulled, g.mat[i][j]), pol), (i, j)


def test_sphere_rd_formulas():
    triple = sphere_triple(2)
    assert verify_rd_formulas(triple, *curvature(triple)).agree


def test_sphere_unsupported_dimension():
    with pytest.raises(ValueError):
        sphere_triple(4)
