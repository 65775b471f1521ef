"""Scenario files: schema, loading, and the per-kind check pipelines.

A scenario is a JSON document with a kind (contact | cosymplectic |
complex | riemannian | frame | group), chart declarations, objects given
as DSL strings, optional expected outcomes, and zero-test policy
overrides; one table (`_COMMON`, `_KIND_FIELDS`) gives each field's shape,
and `_OUTCOMES` the outcome names `expect` may hold for each kind.
Verdicts are pass / fail / FALSIFICATION, where FALSIFICATION is reserved
for violations of machine-checked equivalences that the theory asserts
(never for invalid input).  A pipeline that meets an invalid object
(ex.InvalidObjectError) stops there, and the report ends in one failed
check named `object`.  Reports are deterministic for a fixed seed: no
timing data unless explicitly requested.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from . import complexstruct as cx
from . import contact as ct
from . import cosymplectic as cs
from . import expr as ex
from . import frames as fr
from . import groups as gr
from . import ratmat as rm
from . import riemannian as riem
from .chart import ChartError
from .linebundle import DEG0, DEG1, DEG_ABS, LineBundleScenario
from .metric import DegeneracyError
from .tensors import KForm, SymTensor2, VectorField
from .zerotest import MAX_SAMPLES, ZeroTestPolicy, all_zero

__all__ = ["SchemaError", "load_scenario", "run_scenario", "render_text", "KINDS"]

KINDS = ("contact", "cosymplectic", "complex", "riemannian", "frame", "group")


class SchemaError(ValueError):
    """Scenario file violates the schema; message carries a pointer."""


# ---------------------------------------------------------------------------
# schema: one table of field shapes, one walker (`_walk`); the runners read
# only walked data, and check what depends on the chart where they build it

@dataclass(frozen=True)
class _Int:
    """An integral JSON number (2 or 2.0; not 2.5, "2" or true) in lo..hi."""
    lo: Optional[int] = None
    hi: Optional[int] = None


_NOUNS = {str: "a string", bool: "true or false"}
_POSITIVE = "a finite number > 0"    # not true, "1e-9", NaN or infinity
_FORM = {str: str}                   # index text -> DSL string
_MATRIX = [[str]]                    # rows of DSL strings
_BASE = {"coords": [str], "constraints": [str]}
_GROUP = {"family": ("sp", "glc", "o", "gl"), "param": _Int(1, 4)}

_HEAD = {"name": str, "kind": KINDS}
_COMMON = {**_HEAD, "policy": {"seed": _Int(), "samples": _Int(1, MAX_SAMPLES),
                               "tolerance": _POSITIVE}}
_KIND_FIELDS = {
    "contact": {"base": _BASE, "objects": {"theta": _FORM, "upsilon": _FORM}},
    "cosymplectic": {"base": _BASE, "objects": {"Omega": _FORM, "eta": _FORM}},
    "complex": {"base": _BASE, "objects": {"frame": _MATRIX}},
    "riemannian": {"objects": {"g": _MATRIX, "eta": _FORM}, "base": _BASE},
    # a riemannian scenario whose objects name a bundled sphere has no chart
    "sphere": {"objects": {"sphere": _Int(1, 3)}},
    "frame": {"base": _BASE, "objects": {"frame": _MATRIX, "group": _GROUP}},
    # GL has a trivial quotient, so a `group` run would have nothing to check
    "group": {"objects": {**_GROUP, "family": ("sp", "glc", "o"),
                          "elements": _Int(1, 1000)}},
}
_RIEMANNIAN = ("integrable", "A_zero", "B_zero", "C_zero", "D_zero", "RD_zero")
_OUTCOMES = {
    "contact": ("integrable", "contact", "homogeneous_integrable",
                "nondegenerate", "chart_constructed"),
    "cosymplectic": ("volume", "cocycle", "integrable", "homogeneous_integrable",
                     "nondegenerate", "chart_constructed"),
    "complex": ("torsion_zero", "integrable"),
    "riemannian": _RIEMANNIAN,
    "sphere": _RIEMANNIAN,
    "frame": ("homogeneous", "in_normalizer"),
    "group": (),
}
_DEFAULTS = {"expect": {}, "policy": {}, "seed": 0, "samples": 20,
             "tolerance": 1e-9, "constraints": [], "upsilon": {}, "Omega": {},
             "eta": {}, "elements": 50, "group": None}


def _walk(value, shape, path: str):
    """`value` checked against `shape`, or a SchemaError naming its JSON
    `path`.  A shape is `str`, `bool`, `_Int`, `_POSITIVE`, a tuple of
    allowed strings, `[shape]` (a list), `{str: shape}` (an object with any
    keys), `{names: shape}` (an object whose keys are outcome names from
    the tuple `names`) or a record `{"field": shape, ...}`.  A record field
    is required unless `_DEFAULTS` names it: then the default stands in for
    it, or it may be absent if that is None.  The result is normalised: integral
    floats become int, defaults are filled in, unknown fields dropped."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise SchemaError(f"{path or 'scenario'}: must be an object")
        keys = next(iter(shape))
        if keys is str or isinstance(keys, tuple):
            for k in value:
                if keys is not str and k not in keys:
                    raise SchemaError(f"{path}.{k}: unknown outcome name "
                                      f"(known: {sorted(keys)})")
            return {k: _walk(v, shape[keys], f"{path}.{k}") for k, v in value.items()}
        out = {}
        for key, field in shape.items():
            if key in value or _DEFAULTS.get(key) is not None:
                out[key] = _walk(value.get(key, _DEFAULTS.get(key)), field,
                                 f"{path}.{key}" if path else key)
            elif key not in _DEFAULTS:
                raise SchemaError(f"{path or 'scenario'}: missing required "
                                  f"field {key!r}")
        return out
    if isinstance(shape, list):
        if not isinstance(value, list):
            raise SchemaError(f"{path}: must be a list")
        return [_walk(v, shape[0], f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(shape, tuple):
        if value not in shape:
            raise SchemaError(f"{path}: must be one of {shape}, got {value!r}")
    elif shape in _NOUNS:
        if not isinstance(value, shape):    # "false" would read as true
            raise SchemaError(f"{path}: {value!r} is not {_NOUNS[shape]}")
    elif shape is _POSITIVE:
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not 0 < value <= sys.float_info.max:
            raise SchemaError(f"{path}: {value!r} is not {_POSITIVE}")
        return float(value)
    else:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{path}: {value!r} is not an integer")
        if shape.lo is not None and value < shape.lo:
            raise SchemaError(f"{path}: {value} is less than {shape.lo}")
        if shape.hi is not None and value > shape.hi:
            raise SchemaError(f"{path}: {value} is greater than {shape.hi}")
    return value


def load_scenario(path: str, overrides: Optional[dict] = None) -> dict:
    """The scenario file at `path`, walked against its kind's table once
    the command-line `overrides` (seed, samples, tolerance) have replaced
    its policy's.  The head (name, kind) is walked first, so a document
    that is not an object is a SchemaError before anything reads it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as err:   # bad UTF-8 or JSON, too deep
        raise SchemaError(f"{path}: not valid JSON ({err})")
    kind = _walk(data, _HEAD, "")["kind"]
    policy = data.get("policy", {})
    if overrides and isinstance(policy, dict):
        data = {**data, "policy": {**policy, **overrides}}
    objects = data.get("objects")
    if kind == "riemannian" and isinstance(objects, dict) and "sphere" in objects:
        kind = "sphere"
    return _walk(data, {**_COMMON, "expect": {_OUTCOMES[kind]: bool},
                        **_KIND_FIELDS[kind]}, "")


# ---------------------------------------------------------------------------
# chart-dependent reading of the walked data

def _scenario_chart(data: dict) -> LineBundleScenario:
    base = data["base"]
    cons = tuple(_read(ex.Constraint.parse, text, f"base.constraints[{i}]")
                 for i, text in enumerate(base["constraints"]))
    try:
        scn = LineBundleScenario(data["name"], tuple(base["coords"]), cons)
    except ChartError as err:
        raise SchemaError(f"base: {err}")
    if data["kind"] in ("cosymplectic", "complex") and scn.base.dim % 2 != 1:
        raise SchemaError(f"base: {data['kind']} scenarios need odd base dimension")
    return scn


def _read(parse, text: str, where: str):
    """parse(text), or a SchemaError naming `where` if the text is invalid
    (a parse error, a name the chart does not declare, such as the
    scaling parameters r and s, or a literal division by zero)."""
    try:
        return parse(text)
    except (ValueError, ArithmeticError) as err:
        raise SchemaError(f"{where}: {err}")


def _form_from_dict(chart, degree: int, coeffs: dict, where: str) -> KForm:
    out = {}
    for key, text in coeffs.items():
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
        out[idx] = _read(chart.parse, text, f"{where}.{key}")
    return KForm(chart, degree, out)


def _matrix(chart, rows: list, where: str) -> tuple:
    """The n x n matrix of DSL strings `rows`, parsed on `chart` (n = dim)."""
    n = chart.dim
    if len(rows) != n or any(len(row) != n for row in rows):
        raise SchemaError(f"{where}: need a {n} x {n} matrix")
    return tuple(tuple(_read(chart.parse, text, f"{where}[{i}][{j}]")
                       for j, text in enumerate(row)) for i, row in enumerate(rows))


def _frame_from(data: dict):
    """The frame of `objects.frame`, on the total chart of the scenario."""
    scn = _scenario_chart(data)
    rows = _matrix(scn.total, data["objects"]["frame"], "objects.frame")
    return fr.Frame(scn, tuple(VectorField(scn.total, row) for row in rows))


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


def _integrability_check(irep, detail: str) -> dict:
    """Whether the integrability routes of `irep` agree; `detail` is
    followed by the constructed chart and the report's note."""
    return _check("integrability agreement", irep.falsification is None,
                  irep.falsification or detail
                  + (f"; chart {[ex.to_dsl(c) for c in irep.witness_chart]}"
                     if irep.witness_chart else "")
                  + (f" ({irep.note})" if irep.note else ""),
                  falsification=True)


def _with_expectations(data: dict, computed: Dict[str, bool],
                       checks: List[dict]):
    """Append one check per expected outcome of the scenario to `checks`;
    an outcome the run did not compute fails."""
    for key, want in sorted(data["expect"].items()):
        got = computed.get(key)
        checks.append(_check(f"expect {key}", got == want, f"expected {want}, "
                             + ("not computed" if got is None else f"computed {got}")))


# ---------------------------------------------------------------------------
# kind pipelines: each appends its checks to `checks` and returns the
# outcomes it computed; an invalid object raises ex.InvalidObjectError

def _run_contact(data: dict, policy: ZeroTestPolicy, checks: List[dict]) -> dict:
    scn = _scenario_chart(data)
    objects = data["objects"]
    theta = _form_from_dict(scn.base, 1, objects["theta"], "objects.theta")
    upsilon = _form_from_dict(scn.base, 2, objects["upsilon"], "objects.upsilon")
    pair = ct.ContactPair(scn, theta, upsilon)

    rep = ct.check_pair(pair, policy)
    checks.append(_check(
        "pair", True,
        f"theta nowhere zero (pivot {scn.base.coords[rep.pivot]}); kernel "
        f"pairing {'non' if rep.nondeg_on_H else ''}degenerate"))
    checks.append(_check("curvature routes", rep.curvature_routes_agree,
                         "bracket-mod-kernel equals -d(theta) on the kernel",
                         falsification=True))
    checks.append(_check("nondegeneracy equivalence", rep.equivalence_consistent,
                         f"pair criterion {rep.nondeg_on_H} vs upstairs "
                         f"nondegeneracy {rep.omega_nondegenerate}",
                         falsification=True))

    checks.append(_homogeneity_check(
        scn, rep.omega, DEG1, policy,
        "omega is degree 1 for r > 0 and under the reflection"))

    back = ct.omega_to_pair(scn, rep.omega, policy)
    rt, _ = all_zero(((k, ex.sub(got.coeff(k), want.coeff(k)))
                      for got, want in ((back.theta, theta), (back.upsilon, upsilon))
                      for k in set(got.coeffs) | set(want.coeffs)),
                     policy.with_constraints(scn.base.constraints))
    checks.append(_check("roundtrip", rt, "descend(promote) recovers (theta, upsilon)"))

    irep = ct.integrability_report(pair, rep, policy)
    checks.append(_integrability_check(
        irep, f"integrable={irep.integrable}, contact={irep.base}, "
        f"homogeneous_integrable={irep.homogeneous_integrable}"))

    return {
        "integrable": irep.integrable,
        "contact": irep.base,
        "homogeneous_integrable": irep.homogeneous_integrable,
        "nondegenerate": rep.omega_nondegenerate,
        "chart_constructed": irep.chart_constructed,
    }


def _run_cosymplectic(data: dict, policy: ZeroTestPolicy, checks: List[dict]) -> dict:
    scn = _scenario_chart(data)
    objects = data["objects"]
    Omega = _form_from_dict(scn.base, 2, objects["Omega"], "objects.Omega")
    eta = _form_from_dict(scn.base, 1, objects["eta"], "objects.eta")
    pair = cs.CosymplecticPair(scn, Omega, eta)

    rep = cs.check_cosymplectic(pair, policy)
    checks.append(_check(
        "dictionary", True,
        f"volume={rep.volume}, dOmega=0:{rep.dOmega_zero}, deta=0:{rep.deta_zero}"))
    checks.append(_check("nondegeneracy equivalence", rep.nondegeneracy_consistent,
                         f"volume {rep.volume} vs upstairs nondegeneracy "
                         f"{rep.omega_nondegenerate}", falsification=True))
    checks.append(_check("closure equivalence", rep.closure_consistent,
                         f"pair closed {rep.cocycle} vs upstairs closed "
                         f"{rep.omega_closed}", falsification=True))

    checks.append(_homogeneity_check(scn, rep.omega, DEG0, policy,
                                     "omega is fiber-invariant (degree 0)"))

    irep = cs.integrability_report0(pair, rep, policy)
    checks.append(_integrability_check(
        irep, f"cocycle={rep.omega_closed}, integrable={irep.integrable}, "
        f"homogeneous_integrable={irep.homogeneous_integrable}"))

    return {
        "volume": rep.volume,
        "cocycle": rep.omega_closed,
        "integrable": irep.integrable,
        "homogeneous_integrable": irep.homogeneous_integrable,
        "nondegenerate": rep.omega_nondegenerate,
        "chart_constructed": irep.chart_constructed,
    }


def _run_complex(data: dict, policy: ZeroTestPolicy, checks: List[dict]) -> dict:
    ac = cx.frame_to_j(_frame_from(data), policy)
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
    return {"torsion_zero": rep.torsion_zero, "integrable": rep.torsion_zero}


def _run_riemannian(data: dict, policy: ZeroTestPolicy, checks: List[dict]) -> dict:
    objects = data["objects"]
    if "sphere" in objects:
        n = objects["sphere"]
        triple = riem.sphere_triple(n)
        screen = riem.sphere_flat_chart(n, policy)
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
        scn = _scenario_chart(data)
        rows = _matrix(scn.base, objects["g"], "objects.g")
        # SymTensor2 would average an asymmetric pair into another metric
        ok, bad = all_zero((((i, j), ex.sub(v, rows[j][i])) for i, row in enumerate(rows)
                            for j, v in enumerate(row) if j > i and v is not rows[j][i]),
                           policy.with_constraints(scn.base.constraints))
        if not ok:
            (i, j), _ = bad
            raise DegeneracyError(f"metric is not symmetric: entries ({i}, {j}) "
                                  f"and ({j}, {i}) differ")
        g = SymTensor2(scn.base, rows)
        eta = _form_from_dict(scn.base, 1, objects["eta"], "objects.eta")
        triple = riem.MetricTriple(scn, g, eta)

    triple.check_definite(policy)
    checks.append(_check("definite", True,
                         "leading principal minors positive at samples"))

    checks.append(_homogeneity_check(
        triple.scenario, riem.triple_to_gtilde(triple), DEG_ABS, policy,
        "upstairs metric has degree |r| for r > 0 and under the reflection"))

    # both checks below share one build of the curvature tensors
    RD = riem.curvature_RD(riem.koszul_connection(riem.triple_to_G(triple), policy))
    tensors = riem.tensors_ABCD(triple, policy)
    rrep = riem.verify_rd_formulas(triple, tensors, RD, policy)
    checks.append(_check(
        "curvature formulas", rrep.agree,
        "connection curvature matches the closed-form tensors" if rrep.agree
        else f"mismatch at component {rrep.mismatch}",
        witness=None if rrep.agree else {"component": rrep.mismatch},
        falsification=True))

    frep = riem.flatness_report(triple, tensors, RD, policy)
    checks.append(_check(
        "flatness equivalence", frep.equivalence_consistent,
        f"A=0:{frep.A_zero} B=0:{frep.B_zero} C=0:{frep.C_zero} "
        f"D=0:{frep.D_zero} RD=0:{frep.RD_zero}",
        witness=frep.witness, falsification=True))

    return {
        "integrable": frep.RD_zero,
        "A_zero": frep.A_zero,
        "B_zero": frep.B_zero,
        "C_zero": frep.C_zero,
        "D_zero": frep.D_zero,
        "RD_zero": frep.RD_zero,
    }


def _run_frame(data: dict, policy: ZeroTestPolicy, checks: List[dict]) -> dict:
    frame = _frame_from(data)
    G = gr.GroupId(**data["objects"]["group"]) if "group" in data["objects"] else None
    if G is not None and G.size != len(frame.components):
        raise SchemaError(f"objects.group: {G} has size {G.size}, but the frame "
                          f"has {len(frame.components)} fields")
    tr = fr.transition(frame, policy)
    want_hom = data["expect"].get("homogeneous", True)
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
        if G is not None:
            rep = fr.degree_coset(tr, G, policy)
            checks.append(_check(
                "degree coset", rep.in_normalizer,
                rep.failure or
                f"quotient value {ex.to_dsl(rep.quotient_value)} for r > 0, "
                f"{_jsonable(rep.quotient_value_neg1)} at r = -1"))
            computed["in_normalizer"] = rep.in_normalizer
    return computed


def _run_group(data: dict, policy: ZeroTestPolicy, checks: List[dict]) -> dict:
    objects = data["objects"]
    G = gr.GroupId(objects["family"], objects["param"])
    count = objects["elements"]
    rng = random.Random(policy.seed)

    neutral = Fraction(1) if G.family != "glc" else 0
    values = {"sp": [Fraction(2), Fraction(-3), Fraction(1, 5)],
              "glc": [0, 1],
              "o": [Fraction(4), Fraction(9, 4), Fraction(1, 16)]}[G.family]
    identity = rm.qmat(rm.rident(G.size))
    # index i draws one member (rand_element returns members only) for each
    # check due at i: the first two for i < count, conjugation for i < 20
    witness = {}    # check name -> the witness of its first failing index
    for i in range(max(count, 20)):
        g = gr.rand_element(G, rng)
        v = values[i % len(values)]
        B = gr.splitting(G, v)
        if i < count:
            if gr.normalizer_p(G, g) != neutral:
                witness.setdefault("members neutral",
                                   {"index": i, "reason": "non-neutral quotient"})
            got = gr.normalizer_p(G, rm.qmul(g, B))
            if got != v:
                witness.setdefault("splitting section", {
                    "index": i, "value": _jsonable(v), "got": _jsonable(got)})
        if i < 20 and not gr.member(G, rm.qmul(B, g, rm.qsolve(B, identity))):
            witness.setdefault("normalizer conjugation", {"index": i})

    checks += [_check(name, name not in witness, detail, witness=witness.get(name))
               for name, detail in (
                   ("members neutral", f"{count} random elements are members with "
                                       "neutral quotient value"),
                   ("splitting section", "p(g . splitting(v)) = v on random members"),
                   ("normalizer conjugation", "splitting values conjugate the group "
                                              "into itself"))]

    if G.family == "glc":
        basis = gr.centralizer_basis(G.param)
        checks.append(_check(
            "centralizer", len(basis) == 2,
            f"commutant of the generators has dimension {len(basis)} "
            "(identity and the complex unit)"))
    return {}


_RUNNERS = {
    "contact": _run_contact,
    "cosymplectic": _run_cosymplectic,
    "complex": _run_complex,
    "riemannian": _run_riemannian,
    "frame": _run_frame,
    "group": _run_group,
}


def run_scenario(data: dict, with_timing: bool = False) -> dict:
    """The report of the walked scenario `data` (from `load_scenario`).  A
    constant too large to print that escapes a pipeline is re-raised with
    the last check that finished, as an input error."""
    pol = data["policy"]
    policy = ZeroTestPolicy(sample_count=pol["samples"],
                            tolerance=pol["tolerance"], seed=pol["seed"])
    checks: List[dict] = []
    t0 = time.perf_counter()
    try:
        computed = _RUNNERS[data["kind"]](data, policy, checks)
    except ex.InvalidObjectError as err:     # the run stops at an invalid object
        checks.append(_check("object", False, str(err)))
        computed = {}
    except ex.ConstantTooLargeError as err:
        where = (f"after check {checks[-1]['name']!r}" if checks
                 else "before the first check")
        raise ex.ConstantTooLargeError(f"{where}: {err}") from None
    _with_expectations(data, computed, checks)
    elapsed = time.perf_counter() - t0
    verdicts = [c["verdict"] for c in checks]
    summary = {"pass": verdicts.count("pass"), "fail": verdicts.count("fail"),
               "falsification": verdicts.count("FALSIFICATION")}
    report = {"scenario": data["name"], "kind": data["kind"], "policy": pol,
              "checks": checks, "summary": summary}
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
