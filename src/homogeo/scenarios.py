"""Scenario files: schema, loading, and the per-kind check pipelines.

A scenario is a JSON document with a kind (contact | cosymplectic |
complex | riemannian | frame | group), chart declarations, objects given
as DSL strings, optional expected outcomes, and zero-test policy
overrides.  Verdicts are pass / fail / FALSIFICATION, where FALSIFICATION
is reserved for violations of machine-checked equivalences that the
theory asserts (never for invalid input).  Reports are deterministic for
a fixed seed: no timing data unless explicitly requested.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from . import expr as ex
from .chart import ChartError
from .linebundle import DEG0, DEG1, DEG_ABS, LineBundleScenario
from .parser import ParseError
from .tensors import KForm, SymTensor2, VectorField
from .zerotest import ConfigError, ZeroTestPolicy, all_zero

__all__ = ["SchemaError", "load_scenario", "run_scenario", "Scenario",
           "render_text", "KINDS"]

KINDS = ("contact", "cosymplectic", "complex", "riemannian", "frame", "group")


class SchemaError(ValueError):
    """Scenario file violates the schema; message carries a pointer."""


@dataclass
class Scenario:
    name: str
    kind: str
    data: dict


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing required field {key!r}")
    return obj[key]


def _object(value, where: str) -> dict:
    """`value` if it is a JSON object, else a SchemaError naming the field."""
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: must be an object")
    return value


def _positive(value, where: str) -> float:
    """A finite JSON number > 0 (not true, "1e-9", NaN or infinity), or a
    SchemaError naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0 < value <= sys.float_info.max:
        raise SchemaError(f"{where}: {value!r} is not a finite number > 0")
    return float(value)


def _integer(value, where: str, minimum: Optional[int] = None) -> int:
    """An integral JSON number (2 or 2.0; not 2.5, "2" or true), at least
    `minimum` if given, or a SchemaError naming the field."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: {value!r} is not an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{where}: {value} is less than {minimum}")
    return value


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: not valid JSON ({err})")
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be an object")
    name = _need(data, "name", path)
    kind = _need(data, "kind", path)
    if kind not in KINDS:
        raise SchemaError(f"{path}: kind must be one of {KINDS}, got {kind!r}")
    expect = _object(data.get("expect", {}), "expect")
    for key, want in expect.items():
        if not isinstance(want, bool):     # "false" would read as true
            raise SchemaError(f"expect.{key}: {want!r} is not true or false")
    return Scenario(name=name, kind=kind, data=data)


def _policy_from(data: dict, overrides: dict) -> ZeroTestPolicy:
    pol = _object(data.get("policy", {}), "policy")
    seed = overrides.get("seed", pol.get("seed", 0))
    samples = overrides.get("samples", pol.get("samples", 20))
    tol = overrides.get("tolerance", pol.get("tolerance", 1e-9))
    try:
        return ZeroTestPolicy(
            sample_count=_integer(samples, "policy.samples"),
            tolerance=_positive(tol, "policy.tolerance"),
            seed=_integer(seed, "policy.seed"))
    except ConfigError as err:
        raise SchemaError(f"policy: {err}")


def _build_scenario_charts(data: dict) -> LineBundleScenario:
    base = _object(_need(data, "base", "scenario"), "base")
    coords = _need(base, "coords", "base")
    if not isinstance(coords, list) or not all(isinstance(c, str) for c in coords):
        raise SchemaError("base.coords: must be a list of strings")
    cons = []
    for i, text in enumerate(base.get("constraints", [])):
        try:
            cons.append(ex.Constraint.parse(text))
        except (ValueError, ArithmeticError) as err:
            raise SchemaError(f"base.constraints[{i}]: {err}")
    try:
        return LineBundleScenario(data.get("name", "scenario"), tuple(coords),
                                  tuple(cons))
    except ChartError as err:
        raise SchemaError(f"base: {err}")


def _parse_on(chart, text: str, where: str) -> ex.Expr:
    if not isinstance(text, str):
        raise SchemaError(f"{where}: expected a DSL string")
    try:
        return chart.parse(text)
    except ParseError as err:
        raise SchemaError(f"{where}: {err}")


def _form_from_dict(chart, degree: int, coeffs: dict, where: str) -> KForm:
    out = {}
    for key, text in _object(coeffs, where).items():
        names = [k.strip() for k in key.split(",")] if key else []
        if len(names) != degree:
            raise SchemaError(f"{where}.{key}: index must have {degree} "
                              "comma-separated coordinates")
        try:
            idx = tuple(chart.index(nm) for nm in names)
        except ValueError:
            raise SchemaError(f"{where}.{key}: unknown coordinate in index")
        if len(set(idx)) != degree or tuple(sorted(idx)) != idx:
            raise SchemaError(f"{where}.{key}: index must be strictly "
                              "increasing in chart order")
        out[idx] = _parse_on(chart, text, f"{where}.{key}")
    return KForm(chart, degree, out)


def _check(name: str, ok: bool, detail: str, witness=None,
           falsification: bool = False) -> dict:
    verdict = "pass" if ok else ("FALSIFICATION" if falsification else "fail")
    out = {"name": name, "verdict": verdict, "detail": detail}
    if witness is not None:
        out["witness"] = _jsonable(witness)
    return out


def _jsonable(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if isinstance(x, ex.Expr):
        return ex.to_dsl(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float):
        return x
    if isinstance(x, (int, str, bool)) or x is None:
        return x
    return str(x)


def _homogeneity_check(scn: LineBundleScenario, form, degree,
                       policy: ZeroTestPolicy, detail: str) -> dict:
    ok, bad = scn.homogeneity_report(form, degree, policy)
    return _check("homogeneity", ok, detail,
                  witness=None if ok else bad[1].witness_fields())


def _chart_suffix(irep) -> str:
    """The `; chart [...]` and `(note)` tail of an integrability detail."""
    return ((f"; chart {[ex.to_dsl(c) for c in irep.witness_chart]}"
             if irep.witness_chart else "")
            + (f" ({irep.note})" if irep.note else ""))


def _expectations(data: dict, computed: Dict[str, bool], checks: List[dict]):
    for key, want in sorted(data.get("expect", {}).items()):
        if key not in computed:
            raise SchemaError(f"expect.{key}: unknown outcome name "
                              f"(known: {sorted(computed)})")
        got = computed[key]
        checks.append(_check(f"expect {key}", got == want,
                             f"expected {want}, computed {got}"))


# ---------------------------------------------------------------------------
# kind pipelines

def _run_contact(data: dict, policy: ZeroTestPolicy) -> List[dict]:
    from . import contact as ct
    scn = _build_scenario_charts(data)
    objects = _object(_need(data, "objects", "scenario"), "objects")
    theta = _form_from_dict(scn.base, 1, _need(objects, "theta", "objects"),
                            "objects.theta")
    upsilon = _form_from_dict(scn.base, 2, objects.get("upsilon", {}),
                              "objects.upsilon")
    pair = ct.ContactPair(scn, theta, upsilon)
    checks: List[dict] = []

    try:
        rep = ct.check_pair(pair, policy)
    except ct.InvalidPairError as err:
        checks.append(_check("pair", False, str(err)))
        return checks
    checks.append(_check(
        "pair", rep.theta_nowhere_zero,
        f"theta nowhere zero (pivot {scn.base.coords[rep.pivot]}); kernel "
        f"pairing {'non' if rep.nondeg_on_H else ''}degenerate"))
    checks.append(_check("curvature routes", rep.curvature_routes_agree,
                         "bracket-mod-kernel equals -d(theta) on the kernel",
                         falsification=True))
    checks.append(_check("nondegeneracy equivalence", rep.equivalence_consistent,
                         f"pair criterion {rep.nondeg_on_H} vs upstairs "
                         f"nondegeneracy {rep.omega_nondegenerate}",
                         falsification=True))

    omega = ct.pair_to_omega(pair)
    checks.append(_homogeneity_check(
        scn, omega, DEG1, policy,
        "omega is degree 1 for r > 0 and under the reflection"))

    try:
        back = ct.omega_to_pair(scn, omega, policy)
        pol = policy.with_constraints(scn.base.constraints)
        rt, _ = all_zero(((k, ex.sub(got.coeff(k), want.coeff(k)))
                          for got, want in ((back.theta, theta), (back.upsilon, upsilon))
                          for k in set(got.coeffs) | set(want.coeffs)), pol)
        checks.append(_check("roundtrip", rt,
                             "descend(promote) recovers (theta, upsilon)"))
    except Exception as err:
        checks.append(_check("roundtrip", False, str(err)))

    irep = ct.integrability_report(pair, policy)
    checks.append(_check(
        "integrability agreement", irep.falsification is None,
        irep.falsification or
        f"integrable={irep.integrable}, contact={irep.contact}, "
        f"homogeneous_integrable={irep.homogeneous_integrable}"
        + _chart_suffix(irep),
        falsification=True))

    _expectations(data, {
        "integrable": irep.integrable,
        "contact": irep.contact,
        "homogeneous_integrable": irep.homogeneous_integrable,
        "nondegenerate": rep.omega_nondegenerate,
        "chart_constructed": irep.chart_constructed,
    }, checks)
    return checks


def _run_cosymplectic(data: dict, policy: ZeroTestPolicy) -> List[dict]:
    from . import cosymplectic as cs
    scn = _build_scenario_charts(data)
    if scn.base.dim % 2 != 1:
        raise SchemaError("base: cosymplectic scenarios need odd base dimension")
    k = (scn.base.dim + 1) // 2
    objects = _object(_need(data, "objects", "scenario"), "objects")
    Omega = _form_from_dict(scn.base, 2, objects.get("Omega", {}), "objects.Omega")
    eta = _form_from_dict(scn.base, 1, objects.get("eta", {}), "objects.eta")
    pair = cs.CosymplecticPair(scn, Omega, eta)
    checks: List[dict] = []

    rep = cs.check_cosymplectic(pair, k, policy)
    checks.append(_check(
        "dictionary", True,
        f"volume={rep.volume}, dOmega=0:{rep.dOmega_zero}, deta=0:{rep.deta_zero}"))
    checks.append(_check("nondegeneracy equivalence", rep.nondegeneracy_consistent,
                         f"volume {rep.volume} vs upstairs nondegeneracy "
                         f"{rep.omega_nondegenerate}", falsification=True))
    checks.append(_check("closure equivalence", rep.closure_consistent,
                         f"pair closed {rep.cocycle} vs upstairs closed "
                         f"{rep.omega_closed}", falsification=True))

    omega = cs.pair_to_omega0(pair)
    checks.append(_homogeneity_check(scn, omega, DEG0, policy,
                                     "omega is fiber-invariant (degree 0)"))

    irep = cs.integrability_report0(pair, k, policy)
    checks.append(_check(
        "integrability agreement", irep.falsification is None,
        irep.falsification or
        f"cocycle={irep.cocycle}, integrable={irep.integrable}, "
        f"homogeneous_integrable={irep.homogeneous_integrable}"
        + _chart_suffix(irep),
        falsification=True))

    _expectations(data, {
        "volume": rep.volume,
        "cocycle": irep.cocycle,
        "integrable": irep.integrable,
        "homogeneous_integrable": irep.homogeneous_integrable,
        "nondegenerate": rep.omega_nondegenerate,
        "chart_constructed": irep.chart_constructed,
    }, checks)
    return checks


def _frame_from(data: dict, scn: LineBundleScenario, where: str):
    from .frames import Frame
    comps = _need(data, "frame", where)
    if not isinstance(comps, list) or len(comps) != scn.total.dim:
        raise SchemaError(f"{where}.frame: need {scn.total.dim} component lists")
    fields = []
    for i, comp in enumerate(comps):
        if not isinstance(comp, list) or len(comp) != scn.total.dim:
            raise SchemaError(f"{where}.frame[{i}]: need {scn.total.dim} entries")
        fields.append(VectorField(scn.total, tuple(
            _parse_on(scn.total, c, f"{where}.frame[{i}][{j}]")
            for j, c in enumerate(comp))))
    return Frame(scn, tuple(fields))


def _run_complex(data: dict, policy: ZeroTestPolicy) -> List[dict]:
    from . import complexstruct as cx
    scn = _build_scenario_charts(data)
    objects = _object(_need(data, "objects", "scenario"), "objects")
    frame = _frame_from(objects, scn, "objects")
    checks: List[dict] = []
    try:
        ac = cx.frame_to_j(frame, policy)
    except (ValueError, ChartError) as err:
        checks.append(_check("structure", False, str(err)))
        return checks
    checks.append(_check("structure", True,
                         "J^2 = -I, fiber-invariant, trivial degree coset"))
    rep = cx.integrability_report_c(ac, policy)
    checks.append(_check(
        "torsion", True,
        f"torsion_zero={rep.torsion_zero}" +
        (f", witness at {_jsonable(rep.witness)}" if rep.witness else "")))
    checks.append(_check("dimension identity", rep.falsification is None,
                         rep.falsification or "no dimension-2 violation",
                         falsification=True))
    _expectations(data, {
        "torsion_zero": rep.torsion_zero,
        "integrable": rep.integrable,
    }, checks)
    return checks


def _run_riemannian(data: dict, policy: ZeroTestPolicy) -> List[dict]:
    from . import riemannian as rm
    checks: List[dict] = []
    objects = _object(data.get("objects", {}), "objects")
    if "sphere" in objects:
        n = _integer(objects["sphere"], "objects.sphere")
        if n not in (1, 2, 3):
            raise SchemaError("objects.sphere: supported dimensions are 1, 2, 3")
        triple = rm.sphere_triple(n)
        screen = rm.sphere_flat_chart(n, policy)
        checks.append(_check("sphere chart flat", screen.flat,
                             screen.failure or "upstairs curvature vanishes"))
        checks.append(_check("sphere chart reproduces metric",
                             screen.chart_reproduces_metric,
                             screen.failure or
                             "sum of chart differentials equals the metric"))
        checks.append(_check("sphere chart homogeneous", screen.homogeneous,
                             screen.failure or
                             "chi scales by sqrt(r), even under reflection"))
    else:
        scn = _build_scenario_charts(data)
        gspec = _need(objects, "g", "objects")
        n = scn.base.dim
        if not (isinstance(gspec, list) and len(gspec) == n):
            raise SchemaError(f"objects.g: need an {n} x {n} matrix")
        rows = []
        for i, row in enumerate(gspec):
            if not isinstance(row, list) or len(row) != n:
                raise SchemaError(f"objects.g[{i}]: need {n} entries")
            rows.append(tuple(_parse_on(scn.base, v, f"objects.g[{i}][{j}]")
                              for j, v in enumerate(row)))
        g = SymTensor2(scn.base, tuple(rows))
        eta = _form_from_dict(scn.base, 1, objects.get("eta", {}), "objects.eta")
        triple = rm.MetricTriple(scn, g, eta)

    try:
        triple.check_definite(policy)
        checks.append(_check("definite", True,
                             "leading principal minors positive at samples"))
    except rm.DegeneracyError as err:
        checks.append(_check("definite", False, str(err)))
        return checks

    checks.append(_homogeneity_check(
        triple.scenario, rm.triple_to_gtilde(triple), DEG_ABS, policy,
        "upstairs metric has degree |r| for r > 0 and under the reflection"))

    # both checks below share one build of the curvature tensors
    RD = rm.curvature_RD(rm.koszul_connection(rm.triple_to_G(triple), policy))
    tensors = rm.tensors_ABCD(triple, policy)
    rrep = rm.verify_rd_formulas(triple, policy, tensors=tensors, RD=RD)
    checks.append(_check(
        "curvature formulas", rrep.agree,
        "connection curvature matches the closed-form tensors" if rrep.agree
        else f"mismatch at component {rrep.mismatch}",
        witness=None if rrep.agree else {"component": rrep.mismatch},
        falsification=True))

    frep = rm.flatness_report(triple, policy, tensors=tensors, RD=RD)
    checks.append(_check(
        "flatness equivalence", frep.equivalence_consistent,
        f"A=0:{frep.A_zero} B=0:{frep.B_zero} C=0:{frep.C_zero} "
        f"D=0:{frep.D_zero} RD=0:{frep.RD_zero}",
        witness=frep.witness, falsification=True))

    _expectations(data, {
        "integrable": frep.RD_zero,
        "A_zero": frep.A_zero,
        "B_zero": frep.B_zero,
        "C_zero": frep.C_zero,
        "D_zero": frep.D_zero,
        "RD_zero": frep.RD_zero,
    }, checks)
    return checks


def _run_frame(data: dict, policy: ZeroTestPolicy) -> List[dict]:
    from . import frames as fr
    scn = _build_scenario_charts(data)
    objects = _object(_need(data, "objects", "scenario"), "objects")
    frame = _frame_from(objects, scn, "objects")
    checks: List[dict] = []
    tr = fr.transition(frame, policy)
    want_hom = data.get("expect", {}).get("homogeneous", True)
    checks.append(_check("homogeneous", tr.homogeneous == want_hom,
                         tr.failure or "transition matrix is point-independent"))
    computed = {"homogeneous": tr.homogeneous}
    if tr.homogeneous:
        law = fr.homomorphism_law_holds(tr, policy)
        checks.append(_check("homomorphism law", law,
                             "A(rs) = A(r) A(s) on two formal parameters"))
        checks.append(_check(
            "transition matrix", True,
            "A(r) = [" + "; ".join(
                ", ".join(ex.to_dsl(v) for v in row) for row in tr.matrix_sym)
            + "]"))
        gspec = objects.get("group")
        if gspec:
            G = _group_from(gspec, "objects.group")
            rep = fr.degree_coset(frame, G, policy)
            checks.append(_check(
                "degree coset", rep.in_normalizer,
                rep.failure or
                f"quotient value {ex.to_dsl(rep.quotient_value)} for r > 0, "
                f"{_jsonable(rep.quotient_value_neg1)} at r = -1"))
            computed["in_normalizer"] = rep.in_normalizer
    _expectations(data, computed, checks)
    return checks


def _group_from(gspec: dict, where: str):
    from . import groups as gr
    _object(gspec, where)
    family = _need(gspec, "family", where)
    param = _integer(_need(gspec, "param", where), f"{where}.param")
    try:
        return gr.GroupId(str(family), param)
    except ValueError as err:
        raise SchemaError(f"{where}: {err}")


def _run_group(data: dict, policy: ZeroTestPolicy) -> List[dict]:
    import random
    from . import groups as gr
    from . import ratmat as rmat
    objects = _object(_need(data, "objects", "scenario"), "objects")
    G = _group_from(objects, "objects")
    count = _integer(objects.get("elements", 50), "objects.elements",
                     minimum=1)
    rng = random.Random(policy.seed)
    checks: List[dict] = []

    neutral = Fraction(1) if G.family != "glc" else 0
    ok = True
    witness = None
    for i in range(count):
        g = gr.rand_element(G, rng)
        if not gr.member(G, g):
            ok, witness = False, {"index": i, "reason": "not a member"}
            break
        if G.family != "gl" and gr.normalizer_p(G, g) != neutral:
            ok, witness = False, {"index": i, "reason": "non-neutral quotient"}
            break
    checks.append(_check("members neutral", ok,
                         f"{count} random elements are members with neutral "
                         "quotient value", witness=witness))

    if G.family != "gl":
        ok = True
        witness = None
        values = {"sp": [Fraction(2), Fraction(-3), Fraction(1, 5)],
                  "glc": [0, 1],
                  "o": [Fraction(4), Fraction(9, 4), Fraction(1, 16)]}[G.family]
        for i in range(count):
            g = gr.rand_element(G, rng)
            v = values[i % len(values)]
            got = gr.normalizer_p(G, rmat.rmul(g, gr.splitting(G, v)))
            if got != v:
                ok, witness = False, {"index": i, "value": _jsonable(v),
                                      "got": _jsonable(got)}
                break
        checks.append(_check("splitting section", ok,
                             "p(g . splitting(v)) = v on random members",
                             witness=witness))

        ok = True
        witness = None
        for i in range(20):
            g = gr.rand_element(G, rng)
            B = gr.splitting(G, values[i % len(values)])
            conj = rmat.rmul(rmat.rmul(B, g), rmat.rinv(B))
            if not gr.member(G, conj):
                ok, witness = False, {"index": i}
                break
        checks.append(_check("normalizer conjugation", ok,
                             "splitting values conjugate the group into itself",
                             witness=witness))

    if G.family == "glc":
        basis = gr.centralizer_basis(G.param)
        checks.append(_check(
            "centralizer", len(basis) == 2,
            f"commutant of the generators has dimension {len(basis)} "
            "(identity and the complex unit)"))
    return checks


_RUNNERS = {
    "contact": _run_contact,
    "cosymplectic": _run_cosymplectic,
    "complex": _run_complex,
    "riemannian": _run_riemannian,
    "frame": _run_frame,
    "group": _run_group,
}


def run_scenario(scenario: Scenario, overrides: Optional[dict] = None,
                 with_timing: bool = False) -> dict:
    overrides = overrides or {}
    policy = _policy_from(scenario.data, overrides)
    t0 = time.perf_counter()
    checks = _RUNNERS[scenario.kind](scenario.data, policy)
    elapsed = time.perf_counter() - t0
    summary = {
        "pass": sum(1 for c in checks if c["verdict"] == "pass"),
        "fail": sum(1 for c in checks if c["verdict"] == "fail"),
        "falsification": sum(1 for c in checks if c["verdict"] == "FALSIFICATION"),
    }
    report = {
        "scenario": scenario.name,
        "kind": scenario.kind,
        "policy": {"seed": policy.seed, "samples": policy.sample_count,
                   "tolerance": policy.tolerance},
        "checks": checks,
        "summary": summary,
    }
    if with_timing:
        report["timing_ms"] = round(elapsed * 1000.0, 3)
    return report


def render_text(report: dict) -> str:
    lines = [f"scenario {report['scenario']} ({report['kind']})"]
    pol = report["policy"]
    lines.append(f"  policy seed={pol['seed']} samples={pol['samples']} "
                 f"tolerance={pol['tolerance']}")
    for c in report["checks"]:
        mark = {"pass": "pass", "fail": "FAIL", "FALSIFICATION": "FALSIFICATION"}
        lines.append(f"  [{mark[c['verdict']]}] {c['name']}: {c['detail']}")
        if c.get("witness") is not None and c["verdict"] != "pass":
            lines.append(f"        witness: {json.dumps(c['witness'], sort_keys=True)}")
    s = report["summary"]
    lines.append(f"  summary: {s['pass']} pass, {s['fail']} fail, "
                 f"{s['falsification']} FALSIFICATION")
    if "timing_ms" in report:
        lines.append(f"  timing: {report['timing_ms']} ms")
    return "\n".join(lines)
