import ast
import copy
import functools
import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homogeo import numtape, zerotest
from homogeo.cli import INPUT_ERRORS, main
from homogeo.scenarios import SchemaError, load_scenario, run_scenario

from conftest import function_dsl

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(REPO, "scenarios")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_darboux_scenario(capsys):
    code, out, _ = run_cli(["run", os.path.join(SCENARIOS, "darboux_k2.json")],
                           capsys)
    assert code == 0
    assert "0 fail, 0 FALSIFICATION" in out
    assert "-mu" in out   # the constructed chart appears in the report


def test_run_json_report(capsys):
    code, out, _ = run_cli(["run", os.path.join(SCENARIOS, "euclidean_eta0.json"),
                            "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["scenario"] == "euclidean_eta0"
    names = {c["name"]: c["verdict"] for c in report["checks"]}
    assert names["expect integrable"] == "pass"
    assert "timing_ms" not in report


def test_run_timing_flag(capsys):
    code, out, _ = run_cli(["run", os.path.join(SCENARIOS, "frame_euler.json"),
                            "--json", "--timing"], capsys)
    assert code == 0
    assert "timing_ms" in json.loads(out)


def test_run_missing_field(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"name": "bad"}')
    code, _, err = run_cli(["run", str(p)], capsys)
    assert code == 2
    assert "kind" in err


def test_run_dsl_error_forwarded(tmp_path, capsys):
    p = tmp_path / "bad2.json"
    p.write_text(json.dumps({
        "name": "bad2", "kind": "contact",
        "base": {"coords": ["u"]},
        "objects": {"theta": {"u": "u + * 2"}}}))
    code, _, err = run_cli(["run", str(p)], capsys)
    assert code == 2
    assert "position" in err and "objects.theta.u" in err


@pytest.mark.parametrize("text, message", [
    ("x $ y", "unexpected character '$' (at position 2)"),
    ("(x + y", "expected ')' but input ended (at position 6)"),
    ("sin + x", "function 'sin' needs an argument list (at position 0)"),
    ("x^1.5", "expected an integer exponent, found '1.5' (at position 2)"),
    ("x^(1/y)", "expected an integer denominator, found 'y' (at position 5)"),
], ids=["character", "unclosed", "bare-function", "float-exponent",
        "symbolic-denominator"])
def test_run_parse_error_is_one_error_line(tmp_path, capsys, text, message):
    p = tmp_path / "parse_error.json"
    p.write_text(json.dumps({
        "name": "parse_error", "kind": "contact",
        "base": {"coords": ["x", "y", "z"]},
        "objects": {"theta": {"x": text}, "upsilon": {}}}))
    code, out, err = run_cli(["run", str(p)], capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: objects.theta.x: {message}"]


def test_run_text_timing_line_on_a_failing_run(tmp_path, capsys):
    # a rational triple of the curvature-rational benchmark set (seed
    # 2501), with an expectation it does not meet: the text report still
    # ends in its timing line
    a, b = "1/5 - 1/5*x - 1/10*y", "1/10 + 1/10*x + 1/10*y"
    c, d = "1/5 + 1/10*x + 1/10*y", "-1/5 - 1/10*x - 1/10*y"
    off = f"({a})*({b}) + ({c})*({d})"
    p = tmp_path / "rd_00.json"
    p.write_text(json.dumps({
        "name": "rd_00", "kind": "riemannian",
        "base": {"coords": ["x", "y"]},
        "objects": {"g": [[f"1 + ({a})^2 + ({c})^2", off],
                          [off, f"1 + ({b})^2 + ({d})^2"]],
                    "eta": {"x": "-1/10 + 1/5*x - 1/5*y", "y": "1/10 + 1/10*x + 1/5*y"}},
        "expect": {"A_zero": True}}))
    code, out, _ = run_cli(["run", str(p), "--timing"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert "  [FAIL] expect A_zero: expected True, computed False" in lines
    assert lines[-2] == "  summary: 4 pass, 1 fail, 0 FALSIFICATION"
    assert re.fullmatch(r"  timing: \d+(\.\d+)? ms", lines[-1])


def test_run_text_prints_the_witness_of_a_failed_check(capsys, monkeypatch):
    # no bundled scenario fails a check that has a witness, so a fault is
    # planted: element 7 of group_sp2 gets a non-neutral quotient.  The
    # text report prints the failed check's witness, as JSON, below it
    from homogeo import groups
    draws = []
    real_draw, real_p = groups.rand_element, groups.normalizer_p
    monkeypatch.setattr(groups, "rand_element",
                        lambda G, rng: draws.append(real_draw(G, rng)) or draws[-1])
    monkeypatch.setattr(groups, "normalizer_p", lambda G, g: real_p(G, g) * (
        2 if len(draws) == 8 and g is draws[-1] else 1))
    code, out, _ = run_cli(["run", os.path.join(SCENARIOS, "group_sp2.json")], capsys)
    assert code == 1
    lines = out.splitlines()
    at = lines.index(next(x for x in lines if x.startswith("  [FAIL] members neutral")))
    assert lines[at + 1] == \
        '        witness: {"index": 7, "reason": "non-neutral quotient"}'
    assert sum("witness:" in x for x in lines) == 1


def _nested_contact(path, depth):
    text = "u"
    for _ in range(depth):
        text = f"sin({text})"
    path.write_text(json.dumps({
        "name": "nested", "kind": "contact",
        "base": {"coords": ["u"]},
        "objects": {"theta": {"u": text}, "upsilon": {}}}))
    return str(path)


def test_run_nesting_limit(tmp_path):
    from homogeo.parser import MAX_DEPTH
    too_deep = _nested_contact(tmp_path / "deep.json", 400)
    proc = subprocess.run([sys.executable, "-m", "homogeo.cli", "run", too_deep],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: objects.theta.u: ")
    assert "nested more than" in proc.stderr and "Traceback" not in proc.stderr
    at_limit = _nested_contact(tmp_path / "limit.json", MAX_DEPTH)
    proc = subprocess.run([sys.executable, "-m", "homogeo.cli", "run", at_limit],
                          capture_output=True, text=True)
    assert proc.returncode in (0, 1) and proc.stderr == ""


@pytest.mark.parametrize("frame, message", [
    ([["mu^1000003", "0"], ["0", "mu^1000033"]],
     "objects.frame[0][0]: exponent 1000003 exceeds 10000"),
    ([["(10^400)^(1/3)", "0"], ["0", "mu"]],
     "could not find enough valid sample points (a constant is outside the float range)"),
    ([["10^400*sin(x) - 1", "0"], ["0", "mu"]],
     "could not find enough valid sample points (a constant is outside the float range)"),
    ([["(mu^10000)^10000", "0"], ["0", "mu"]],
     "objects.frame[0][0]: folded exponent 100000000 exceeds 10000"),
    ([["1", "0"], ["0", "mu^6000*mu^6000"]],
     "objects.frame[1][1]: folded exponent 12000 exceeds 10000"),
    ([["(10^10000)^10000", "0"], ["0", "mu"]],
     "objects.frame[0][0]: constant power exceeds 1048576 bits"),
    ([["1", "0"], ["0", "((3*mu)^10000)^10000"]],
     "objects.frame[1][1]: constant power exceeds 1048576 bits"),
    ([["mu*10^5000", "0"], ["0", "mu"]],
     "objects.frame[0][0]: folded constant has more than 4300 digits"),
    ([["1" * 5000, "0"], ["0", "mu"]],
     "objects.frame[0][0]: number has more than 4300 digits"),
    ([["1", "0"], ["0", "mu*10^2500*10^2500"]],
     "objects.frame[1][1]: folded constant has more than 4300 digits"),
], ids=["huge-exponent", "constant-beyond-float-range",
        "function-of-constant-beyond-float-range", "nested-power", "product-power",
        "constant-power", "coefficient-power", "coefficient-digits", "literal-digits",
        "folded-coefficient-digits"])
def test_run_frame_with_huge_numbers_is_input_error(tmp_path, frame, message):
    # the huge exponent, literal or folded from nested powers, once ran for
    # minutes in exact powers of the sampled point; the constant beyond the
    # float range ended in OverflowError; a constant raised to a folded
    # power hung inside the parser
    with open(os.path.join(SCENARIOS, "frame_euler.json")) as fh:
        scenario = json.load(fh)
    scenario["objects"]["frame"] = frame
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(scenario))
    proc = subprocess.run([sys.executable, "-m", "homogeo.cli", "run", str(path)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert message in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("name, form, field, text, codes, where", [
    ("riemann_eta_dz", "eta", "x", "10^2200*x", (0,), None),
    ("riemann_eta_dz", "eta", "z", "x^5000*y", (0, 1), None),
    ("riemann_eta_dz", "eta", "z", "10^2200*x", (0,), None),
    ("darboux_k2", "theta", "x1", "-10^2200*p1", (1,), None),
    ("riemann_eta_dz", "eta", "x", "10^2200*sin(x)", (2,),
     "after check 'curvature formulas'"),
], ids=["eta-certificate", "eta-witness-draw", "eta-unprintable-literal",
        "theta-not-darboux", "eta-float-fingerprint"])
def test_run_with_unprintable_derived_constant(tmp_path, capsys, name, form, field,
                                               text, codes, where):
    # each input parses, but a derived constant has more digits than Python
    # prints; each once ended in an internal error.  A rational query never
    # prints, so the verdicts are those of the input with a small constant:
    # a witness whose value does not print gives way to the GF(p)
    # certificate or, for a literal, to its note, and theta =
    # du - 10^2200*p1 dx1 is a contact form whose base coordinates are not
    # Darboux, so no chart is constructed (as for -2*p1), against the
    # expectation of the unedited scenario.  A float query prints its key,
    # so there the constant is an input error naming the last check that
    # finished before it.  No report prints an unprintable value.
    with open(os.path.join(SCENARIOS, name + ".json")) as fh:
        data = json.load(fh)
    data["objects"][form][field] = text
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    limit = sys.get_int_max_str_digits()
    for args in (["run", str(path)], ["run", str(path), "--json"]):
        code, out, err = run_cli(args, capsys)
        assert code in codes, err
        if code == 2:
            assert err == (f"error: {where}: constant has more than "
                           f"{limit} digits, too many to print\n")
            assert out == ""
        else:
            assert err == "" and ("summary" in out)
            assert all(len(digits) <= limit for digits in re.findall(r"\d+", out))


def test_cli_does_not_import_numpy():
    # the package has no runtime dependency; numpy is for perfbench only
    proc = subprocess.run([sys.executable, "-c",
                           "import homogeo.cli, sys; print('numpy' in sys.modules)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


def test_cli_import_loads_pinned_modules():
    # every homogeo module loads before `main` runs (perfbench's setup_s)
    # and none inside it (wall_s): a lazy import would move that time
    # between the two, so it has to change this list
    proc = subprocess.run([sys.executable, "-c",
                           "import homogeo.cli, sys; print(*sorted(m for m in "
                           "sys.modules if m.split('.')[0] == 'homogeo'))"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "homogeo", "homogeo.chart", "homogeo.cli", "homogeo.complexstruct",
        "homogeo.contact", "homogeo.cosymplectic", "homogeo.expr",
        "homogeo.frames", "homogeo.groups", "homogeo.linebundle",
        "homogeo.metric", "homogeo.numtape", "homogeo.parser", "homogeo.ratmat",
        "homogeo.riemannian", "homogeo.scenarios", "homogeo.symmat",
        "homogeo.tensors", "homogeo.zerotest"]


def test_package_reexports_nothing_and_scenarios_imports_at_top():
    # callers import modules by name; a function-local import in scenarios
    # would be a lazy import the pinned module list above does not allow
    src = os.path.join(REPO, "src", "homogeo")
    with open(os.path.join(src, "__init__.py")) as fh:
        init = ast.parse(fh.read())
    _doc, *rest = init.body
    assert [ast.unparse(t) for n in rest for t in getattr(n, "targets", [n])] \
        == ["__version__"]
    with open(os.path.join(src, "scenarios.py")) as fh:
        tree = ast.parse(fh.read())
    local = [ast.unparse(n) for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert local == []


@pytest.mark.parametrize("name, edit, message", [
    ("sphere_n1", lambda d: d["objects"].update(sphere=True),
     "objects.sphere: True is not an integer"),
    ("sphere_n1", lambda d: d["objects"].update(sphere="2"),
     "objects.sphere: '2' is not an integer"),
    ("frame_euler", lambda d: d["expect"].update(in_normalizer="false"),
     "expect.in_normalizer: 'false' is not true or false"),
    ("frame_euler", lambda d: d["expect"].update(homogeneous="false"),
     "expect.homogeneous: 'false' is not true or false"),
    ("darboux_k1", lambda d: d["expect"].update(integrable=1),
     "expect.integrable: 1 is not true or false"),
    ("frame_euler", lambda d: d.update(expect=[]), "expect: must be an object"),
    ("darboux_k1", lambda d: d.update(objects={"theta": {}}, expect={"x": True}),
     "expect.x: unknown outcome name (known: ['chart_constructed', 'contact', "
     "'homogeneous_integrable', 'integrable', 'nondegenerate'])"),
    ("group_sp2", lambda d: d.update(expect={"nonsense": True}),
     "expect.nonsense: unknown outcome name (known: [])"),
], ids=["sphere-bool", "sphere-text", "expect-text", "expect-homogeneous-text",
        "expect-number", "expect-list", "expect-name-invalid-pair",
        "expect-name-group"])
def test_mistyped_sphere_or_expect_is_input_error(tmp_path, capsys, name, edit, message):
    # each once ran as if valid (true as the circle, "false" as true, an
    # invalid pair's or a group's unknown outcome name), or ended in an
    # internal error (a frame scenario's list of expectations)
    with open(os.path.join(SCENARIOS, name + ".json")) as fh:
        data = json.load(fh)
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["run", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("name, objects, message", [
    ("sphere_n1", "sphere", "objects: must be an object"),
    ("darboux_k1", {"theta": ["u"]}, "objects.theta: must be an object"),
], ids=["objects-text", "form-list"])
def test_non_object_objects_is_input_error(tmp_path, capsys, name, objects, message):
    # a string for `objects` was read with a substring test, and a list for
    # a form dictionary had no .items(): both ended in an internal error
    with open(os.path.join(SCENARIOS, name + ".json")) as fh:
        data = json.load(fh)
    data["objects"] = objects
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["run", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_nowhere_defined_theta_is_input_error(tmp_path, capsys):
    # 1/((u+1)^2 - u^2 - 2*u - 1) is a pole at every point; its zero tests
    # once counted those poles as zeros and reported two FALSIFICATIONs, and
    # the complex kind once reported the input error as a failed check
    bad = "1 + 1/((u+1)^2 - u^2 - 2*u - 1)"
    darboux = copy.deepcopy(_BUNDLED["darboux_k1.json"])
    darboux["objects"]["theta"] = {"u": bad}
    complex_ = copy.deepcopy(_BUNDLED["complex_constant.json"])
    complex_["objects"]["frame"][0][0] = bad.replace("u", "x")
    for data in (darboux, complex_):
        path = tmp_path / "nowhere.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["run", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == ("error: could not find enough valid sample points "
                       "(expression may be singular on the whole domain)\n")


@pytest.mark.parametrize("name", ["complex_constant", "cosymplectic_k2"])
def test_even_base_dimension_is_input_error(tmp_path, capsys, name):
    # a complex frame on an even base once ended in a failed check
    data = copy.deepcopy(_BUNDLED[name + ".json"])
    data["base"]["coords"].append("w")
    path = tmp_path / "even.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["run", str(path)], capsys)
    assert code == 2 and out == ""
    kind = data["kind"]
    assert err == f"error: base: {kind} scenarios need odd base dimension\n"


def test_run_unknown_coordinate_in_index(tmp_path, capsys):
    p = tmp_path / "bad3.json"
    p.write_text(json.dumps({
        "name": "bad3", "kind": "cosymplectic",
        "base": {"coords": ["x", "y", "z"]},
        "objects": {"Omega": {"x,q": "1"}, "eta": {}}}))
    code, _, err = run_cli(["run", str(p)], capsys)
    assert code == 2
    assert "objects.Omega" in err


def test_failing_expectation_sets_exit_code(tmp_path, capsys):
    p = tmp_path / "fail.json"
    p.write_text(json.dumps({
        "name": "fail", "kind": "contact",
        "base": {"coords": ["u", "x1", "p1"]},
        "objects": {"theta": {"u": "1", "x1": "-p1"}, "upsilon": {}},
        "expect": {"integrable": False}}))
    code, out, _ = run_cli(["run", str(p)], capsys)
    assert code == 1
    assert "expected False, computed True" in out


@pytest.mark.parametrize("family, param", [("sp", 1), ("gl", 2), ("o", 2)])
def test_frame_varying_under_reflection_fails(tmp_path, capsys, family, param):
    # the frame's transition is the identity for r > 0, but A(-1) varies
    # along x, so the frame is not homogeneous whatever its group
    p = tmp_path / "reflection.json"
    p.write_text(json.dumps({
        "name": "reflection", "kind": "frame",
        "base": {"coords": ["x"]},
        "objects": {"group": {"family": family, "param": param},
                    "frame": [["1", "0"], ["x*(1-sign(mu))", "mu*sign(mu)"]]},
        "expect": {"homogeneous": True}}))
    code, out, _ = run_cli(["run", str(p)], capsys)
    assert code == 1
    assert "[FAIL] homogeneous: reflection entry (0,1) varies along x" in out


def _set_entry(matrix, i, j, text):
    return lambda d: d["objects"][matrix][i].__setitem__(j, text)


@pytest.mark.parametrize("name, edit, key, invalid", [
    ("frame_inhomogeneous", lambda d: d["expect"].update(in_normalizer=True),
     "in_normalizer", None),
    ("darboux_k1", lambda d: d.update(objects={"theta": {}}), "integrable",
     "theta vanishes at sample point u=-1/7"),
    ("frame_darboux_k2", _set_entry("frame", 0, 0, "0"), "homogeneous",
     "frame is degenerate at the sampled points"),
    ("frame_darboux_k2", _set_entry("frame", 3, 1, "log(-1/3)"), "in_normalizer",
     "constant -log(-1/3) evaluates to nan (expression leaves the chart "
     "domain, e.g. under the reflection)"),
    ("frame_darboux_k2", _set_entry("frame", 2, 1, "((cos(1/2))^(-3/2))^(2)"),
     "homogeneous", "C must commute with B (hence with exp(Bt))"),
    ("riemann_eta_dz", _set_entry("g", 0, 0, "0"), "A_zero",
     "metric is not positive definite: leading 1-minor nonpositive at a "
     "sample point"),
    ("riemann_eta_dz", _set_entry("g", 0, 0, "-10^-12"), "A_zero",
     "metric is not positive definite: leading 1-minor nonpositive at a "
     "sample point"),
], ids=["inhomogeneous-frame", "invalid-pair", "degenerate-frame",
        "frame-constant-off-domain", "frame-not-degree-hom", "degenerate-metric",
        "tiny-negative-metric"])
def test_expected_outcome_not_computed_fails(tmp_path, capsys, name, edit, key,
                                             invalid):
    # the frame was told `in_normalizer` is an unknown name; the invalid
    # pair dropped its expectations; the three frames ended in exit 3
    with open(os.path.join(SCENARIOS, name + ".json")) as fh:
        data = json.load(fh)
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(["run", str(path), "--json"], capsys)
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks[f"expect {key}"]["verdict"] == "fail"
    assert checks[f"expect {key}"]["detail"] == \
        f"expected {data['expect'][key]}, not computed"
    if invalid is not None:
        assert checks["object"] == {"name": "object", "verdict": "fail",
                                    "detail": invalid}


# identically 1, but 10^40 and 1 cancel only in exact arithmetic
_ONE_BY_CANCELLATION = "(x + 10^20)^2 - x^2 - 2*10^20*x - 10^40 + 1"


def _set_theta(coord, text):
    return lambda d: d["objects"]["theta"].__setitem__(coord, text)


_HALF = "sqrt(((1/2) * (x1))^(-1))"   # defined only for x1 > 0


@pytest.mark.parametrize("name, edit", [
    ("riemann_eta_dz", _set_entry("g", 0, 0, "10^-12")),
    ("riemann_eta_dz", _set_entry("g", 0, 0, _ONE_BY_CANCELLATION)),
    ("darboux_k1", _set_theta("u", "10^-12")),
    ("darboux_k1", _set_theta("u", _ONE_BY_CANCELLATION.replace("x", "u"))),
    ("frame_euler", _set_entry("frame", 0, 0, "10^-13")),
    ("complex_constant", _set_entry("frame", 0, 0, "10^-13")),
    ("darboux_k2", lambda d: d["objects"].update(
        theta={"u": _HALF, "x1": f"-(p1)*({_HALF})"})),
], ids=["tiny-metric", "cancelling-metric", "tiny-theta", "cancelling-theta",
        "tiny-frame", "tiny-complex-frame", "half-domain-chart"])
def test_valid_rational_objects_are_accepted(tmp_path, capsys, name, edit):
    # a definite metric, a nowhere-zero theta and an invariant frame whose
    # values at the sample points are below the float tolerance, or cancel
    # in floats: each point check reads them exactly.  The Darboux chart of
    # the half-domain theta has its b(r) read at the point where its frame's
    # transition was read, where the chart is defined (it was once read at
    # x1 < 0 and the run ended in exit 2)
    with open(os.path.join(SCENARIOS, name + ".json")) as fh:
        data = json.load(fh)
    edit(data)
    path = tmp_path / "valid.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["run", str(path), "--json"], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert [c for c in report["checks"] if c["verdict"] != "pass"] == []


@pytest.mark.parametrize("name", [
    "complex_constant", "contact_foliation", "contact_upsilon_twist",
    "darboux_k1", "darboux_k2", "darboux_k3", "euclidean_eta0",
    "frame_darboux_k2", "frame_euler", "riemann_eta_dz"])
def test_rational_scenarios_never_evaluate_floats(monkeypatch, name):
    # every object is rational, so every value at a sample point, in the
    # zero test and in the point checks alike, is exact
    def no_float(tape, points):
        raise AssertionError("float evaluation in a rational scenario")

    monkeypatch.setattr(numtape, "eval_tape", no_float)
    report = run_scenario(load_scenario(os.path.join(SCENARIOS, name + ".json")))
    assert report["summary"]["fail"] == report["summary"]["falsification"] == 0


def test_suite_filter(capsys):
    code, out, _ = run_cli(["suite", SCENARIOS, "--filter", "group_*"], capsys)
    assert code == 0
    assert "group_sp2" in out and "darboux_k2" not in out


def test_suite_no_match(capsys):
    code, _, err = run_cli(["suite", SCENARIOS, "--filter", "zzz*"], capsys)
    assert code == 2


def test_suite_deterministic_reports(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run_cli(["suite", SCENARIOS, "--filter", "frame_*",
                              "--json", "--seed", "7", "-o", str(target)],
                             capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_suite_with_a_failing_scenario_exits_1(tmp_path, capsys):
    with open(os.path.join(SCENARIOS, "frame_euler.json")) as fh:
        data = json.load(fh)
    data["expect"]["homogeneous"] = False
    (tmp_path / "frame_euler.json").write_text(json.dumps(data))
    code, out, err = run_cli(["suite", str(tmp_path)], capsys)
    assert code == 1 and err == ""
    assert "expected False, computed True" in out
    assert out.endswith("suite: 1 scenarios, 4 pass, 2 fail, 0 FALSIFICATION, "
                        "0 input errors\n")


def test_suite_on_a_missing_directory_is_input_error(tmp_path, capsys):
    code, out, err = run_cli(["suite", str(tmp_path / "missing")], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "missing" in err


@pytest.mark.parametrize("command, target", [
    ("run", os.path.join(SCENARIOS, "darboux_k1.json")),
    ("suite", SCENARIOS),
], ids=["run", "suite"])
def test_output_into_a_missing_directory_is_input_error(tmp_path, capsys, command,
                                                         target):
    missing = str(tmp_path / "missing" / "out.txt")
    code, out, err = run_cli([command, target, "-o", missing], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and missing in err and "Traceback" not in err


def test_closed_stdout_is_input_error(tmp_path):
    # more output than a pipe buffers, so the write fails once the reader
    # has gone whatever the scheduling
    with open(os.path.join(SCENARIOS, "complex_constant.json")) as fh:
        text = fh.read()
    for i in range(200):
        (tmp_path / f"copy{i:03}.json").write_text(text)
    proc = subprocess.Popen([sys.executable, "-m", "homogeo.cli", "suite",
                             str(tmp_path), "--json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            bufsize=0)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 2
    assert err == "error: [Errno 32] Broken pipe\n"


def test_samples_option_reaches_the_report(capsys):
    code, out, _ = run_cli(["run", os.path.join(SCENARIOS, "frame_euler.json"),
                            "--samples", "5", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["policy"]["samples"] == 5


@pytest.mark.parametrize("family, param, size", [
    ("sp", 2, 4), ("glc", 2, 4), ("o", 3, 3), ("gl", 3, 3), ("o", 1, 1)])
def test_frame_group_of_another_size_is_input_error(tmp_path, capsys, family,
                                                    param, size):
    # a group of another size than the frame once ended in an internal
    # error (AssertionError, or a row-length ValueError) or, for GL, passed
    with open(os.path.join(SCENARIOS, "frame_euler.json")) as fh:
        data = json.load(fh)
    data["objects"]["group"] = {"family": family, "param": param}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["run", str(path)], capsys)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("error: objects.group: ")
    assert f"has size {size}, but the frame has 2 fields" in err


def test_load_scenario_rejects_bad_kind(tmp_path):
    p = tmp_path / "k.json"
    p.write_text('{"name": "x", "kind": "nope"}')
    with pytest.raises(SchemaError):
        load_scenario(str(p))


@pytest.mark.parametrize("document", ["[]", '"x"', "1", "null"])
def test_document_not_an_object_is_input_error(tmp_path, capsys, document):
    # the head is walked before the policy overrides read the document
    p = tmp_path / "doc.json"
    p.write_text(document)
    code, out, err = run_cli(["run", str(p), "--seed", "1"], capsys)
    assert (code, out, err) == (2, "", "error: scenario: must be an object\n")


def test_policy_overrides_applied():
    scenario = load_scenario(os.path.join(SCENARIOS, "frame_euler.json"),
                             {"seed": 5, "samples": 7, "tolerance": 1e-7})
    rep = run_scenario(scenario)
    assert rep["policy"] == {"seed": 5, "samples": 7, "tolerance": 1e-7}


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "homogeo.cli", "run",
                          os.path.join(SCENARIOS, "cosymplectic_k1.json")],
                         capture_output=True, text=True)
    assert out.returncode == 0


def test_query_log_suite(tmp_path):
    # tools/query_log.py replaces zerotest.zero_report, so it runs in a
    # child process
    suite = tmp_path / "suite"
    suite.mkdir()
    for name in ("darboux_k2.json", "frame_euler.json"):
        (suite / name).write_text(json.dumps(_BUNDLED[name]))
    log = tmp_path / "queries.tsv"
    proc = subprocess.run([sys.executable, os.path.join(REPO, "tools", "query_log.py"),
                           "-o", str(log), "suite", str(suite)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = log.read_text().splitlines()
    assert lines
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 7
        assert fields[1] in ("zero", "nonzero") and fields[2] in ("exact", "float")


def test_query_log_unprintable_literal(tmp_path):
    # a literal too large to print has no fingerprint: its line carries a
    # fixed marker and the logged test still passes
    log = tmp_path / "queries.tsv"
    proc = subprocess.run([sys.executable, os.path.join(REPO, "tools", "query_log.py"),
                           "-o", str(log), "pytest", os.path.join(REPO, "tests"),
                           "-k", "test_printable_constants_follow_the_digit_limit"],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "unprintable" in [line.split("\t")[0] for line in log.read_text().splitlines()]


def test_reports_match_goldens():
    expected_dir = os.path.join(SCENARIOS, "expected")
    names = sorted(n for n in os.listdir(SCENARIOS) if n.endswith(".json"))
    assert names
    for name in names:
        scenario = load_scenario(os.path.join(SCENARIOS, name))
        got = run_scenario(scenario)
        with open(os.path.join(expected_dir,
                               name[:-5] + ".report.json")) as fh:
            want = json.load(fh)
        assert got == want, f"report drift for {name}"



def _write_suite(tmp_path, bad):
    """A suite directory holding `bad` (a scenario dict) and group_sp2."""
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "bad.json").write_text(json.dumps(bad))
    with open(os.path.join(SCENARIOS, "group_sp2.json")) as fh:
        (suite / "group_sp2.json").write_text(fh.read())
    return suite


_BAD_NUMBERS = {"name": "bad_numbers", "kind": "group",
                "policy": {"seed": 0, "samples": 20},
                "objects": {"family": "sp", "param": 1, "elements": 5}}


@pytest.mark.parametrize("section, key, value", [
    ("policy", "samples", "lots"),
    ("policy", "seed", None),
    ("objects", "elements", "many"),
    ("objects", "param", [1]),
    ("objects", "param", None),
    ("policy", "samples", 2.7),
    ("policy", "samples", "20"),
    ("policy", "seed", True),
    ("objects", "param", 1.5),
    ("objects", "elements", -5),
    ("objects", "elements", 0),
    ("policy", "tolerance", True),
    ("policy", "tolerance", "1e-9"),
    ("policy", "tolerance", 0),
    ("policy", "tolerance", float("nan")),
    ("policy", "tolerance", float("inf")),
    ("policy", "samples", zerotest.MAX_SAMPLES + 1),
    ("objects", "param", 5),
    ("objects", "elements", 1001),
    ("objects", "elements", 1e12),
    ("objects", "family", "gl"),
], ids=["samples-text", "seed-null", "elements-text", "param-list",
        "param-null", "samples-fraction", "samples-digits", "seed-bool",
        "param-fraction", "elements-negative", "elements-zero",
        "tolerance-bool", "tolerance-text", "tolerance-zero", "tolerance-nan",
        "tolerance-inf", "samples-past-draws", "param-large", "elements-large",
        "elements-huge", "family-gl"])
def test_non_integer_field_is_input_error(tmp_path, capsys, section, key, value):
    data = json.loads(json.dumps(_BAD_NUMBERS))
    data[section][key] = value
    suite = _write_suite(tmp_path, data)
    code, out, err = run_cli(["run", str(suite / "bad.json")], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {section}.{key}: ")
    # in a suite the bad file is listed under errors; the others still run
    code, out, _ = run_cli(["suite", str(suite), "--json"], capsys)
    agg = json.loads(out)
    assert code == 2
    assert [e["path"] for e in agg["errors"]] == [str(suite / "bad.json")]
    assert agg["errors"][0]["error"].startswith(f"{section}.{key}: ")
    assert [r["scenario"] for r in agg["scenarios"]] == ["group_sp2"]
    assert agg["summary"]["pass"] > 0


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_bad_tol_option_is_input_error(capsys, tol):
    code, out, err = run_cli(["run", os.path.join(SCENARIOS, "complex_twisted.json"),
                              "--tol", tol], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: policy.tolerance: ")


def test_integral_float_field_accepted(tmp_path):
    data = copy.deepcopy(_BUNDLED["group_sp2.json"])
    data["policy"] = {"seed": 3.0, "samples": 20.0}
    data["objects"]["elements"] = 2.0
    path = tmp_path / "floats.json"
    path.write_text(json.dumps(data))
    rep = run_scenario(load_scenario(str(path)))
    assert rep["policy"]["seed"] == 3 and type(rep["policy"]["seed"]) is int
    assert rep["checks"][0]["detail"].startswith("2 random elements")


@pytest.mark.parametrize("bad", [
    {"name": "abs_theta", "kind": "contact",
     "base": {"coords": ["u", "x1", "p1"]},
     "objects": {"theta": {"u": "1", "x1": "abs(p1)"}, "upsilon": {}}},
    {"name": "abs_metric", "kind": "riemannian",
     "base": {"coords": ["x", "y"]},
     "objects": {"g": [["1 + abs(x)", "0"], ["0", "1"]], "eta": {}}},
], ids=["contact", "riemannian"])
def test_domain_error_is_input_error(tmp_path, capsys, bad):
    # differentiating abs of an argument whose sign the (absent)
    # constraints do not fix raises DomainError in the kernel
    suite = _write_suite(tmp_path, bad)
    code, out, err = run_cli(["run", str(suite / "bad.json")], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot differentiate abs(")
    code, out, _ = run_cli(["suite", str(suite), "--json"], capsys)
    agg = json.loads(out)
    assert code == 2
    assert [e["path"] for e in agg["errors"]] == [str(suite / "bad.json")]
    assert agg["errors"][0]["error"].startswith("cannot differentiate abs(")
    assert [r["scenario"] for r in agg["scenarios"]] == ["group_sp2"]
    assert agg["summary"]["input_errors"] == 1


def test_non_string_name_is_input_error(tmp_path, capsys):
    # a number for `name` ran under `run`, then made the sort of the suite's
    # reports raise TypeError (a traceback and exit 1); a list ended in an
    # internal error from the chart name built from it
    with open(os.path.join(SCENARIOS, "group_o3.json")) as fh:
        data = json.load(fh)
    data["name"] = 7
    suite = _write_suite(tmp_path, data)
    code, out, err = run_cli(["suite", str(suite), "--json"], capsys)
    agg = json.loads(out)
    assert code == 2 and "Traceback" not in err
    assert agg["errors"] == [{"path": str(suite / "bad.json"),
                              "error": "name: 7 is not a string"}]
    assert [r["scenario"] for r in agg["scenarios"]] == ["group_sp2"]
    with open(os.path.join(SCENARIOS, "darboux_k1.json")) as fh:
        data = json.load(fh)
    data["name"] = []
    path = tmp_path / "list_name.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["run", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == "error: name: [] is not a string\n"


@pytest.mark.parametrize("constraints, message", [
    (1.5, "base.constraints: must be a list"),
    (True, "base.constraints: must be a list"),
    (None, "base.constraints: must be a list"),
    (-1, "base.constraints: must be a list"),
    ("x", "base.constraints: must be a list"),
    ({}, "base.constraints: must be a list"),
    ({"a": "1"}, "base.constraints: must be a list"),
    ([1], "base.constraints[0]: 1 is not a string"),
    (["x"], "base.constraints[0]: cannot parse constraint 'x'"),
], ids=["number", "true", "null", "negative", "text", "empty-object",
        "object", "number-entry", "bad-entry"])
def test_constraints_must_be_a_list_of_strings(tmp_path, capsys, constraints,
                                                message):
    # a number, true or null ended in an internal error (not iterable); a
    # string was read one character at a time, and an object by its keys
    with open(os.path.join(SCENARIOS, "darboux_k2.json")) as fh:
        data = json.load(fh)
    data["base"]["constraints"] = constraints
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["run", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("constraint", ["mu < 0", "r < 0", "q > 0"],
                         ids=["fiber", "scaling", "ghost"])
@pytest.mark.parametrize("scenario", [
    "contact_foliation", "darboux_k1", "cosymplectic_k1", "complex_constant",
    "riemann_eta_dz", "frame_euler"])
def test_base_constraint_names_a_base_coordinate(tmp_path, capsys, scenario,
                                                 constraint):
    # a constraint on the fiber coordinate, the scaling parameter or no
    # coordinate at all was ignored by some kinds and contradicted the
    # fiber branch mu > 0 in others
    with open(os.path.join(SCENARIOS, scenario + ".json")) as fh:
        data = json.load(fh)
    data["base"]["constraints"] = [constraint]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["run", str(path)], capsys)
    name = constraint.split()[0]
    assert code == 2 and out == ""
    assert err == (f"error: base: constraint {constraint} names {name!r}, which "
                   f"is not a coordinate of chart {scenario!r}\n")


def test_dsl_division_by_zero_is_input_error(tmp_path, capsys):
    # the parser raises ZeroDivisionError for a literal 1/0, which ended in
    # an internal error
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "name": "zero", "kind": "contact", "base": {"coords": ["u"]},
        "objects": {"theta": {"u": "1/0"}}}))
    code, out, err = run_cli(["run", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: objects.theta.u: ")


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{", "'utf-8' codec can't decode"),
    (b"[" * 100000 + b"]" * 100000, "maximum recursion depth exceeded"),
], ids=["not-utf8", "nested-too-deep"])
def test_undecodable_file_is_input_error(tmp_path, capsys, content, message):
    # both ended in an internal error from the JSON decoder
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run_cli(["run", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: not valid JSON (") and message in err


def test_only_zerotest_binds_zero_report():
    # tools/query_log.py replaces zerotest.zero_report alone; a module that
    # bound the function by value would make queries it does not log
    import homogeo
    bound = [m.name for m in pkgutil.iter_modules(homogeo.__path__)
             if m.name != "zerotest" and zerotest.zero_report in
             vars(importlib.import_module("homogeo." + m.name)).values()]
    assert bound == []


@pytest.mark.parametrize("check, witness", [
    ("members neutral", {"index": 7, "reason": "non-neutral quotient"}),
    ("splitting section", {"index": 7, "value": "-3", "got": "-6"}),
    ("normalizer conjugation", {"index": 7}),
], ids=["neutral", "splitting", "conjugation"])
def test_group_checks_share_one_draw_per_element(monkeypatch, check, witness):
    # each index draws one element, which every check due there tests: a
    # failure planted at element 7 fails its own check there and no other,
    # and group_sp2 draws max(elements, 20) = 50 elements
    from homogeo import groups
    draws = []
    real_draw, real_p, real_member = groups.rand_element, groups.normalizer_p, groups.member
    monkeypatch.setattr(groups, "rand_element",
                        lambda G, rng: draws.append(real_draw(G, rng)) or draws[-1])
    if check == "normalizer conjugation":
        monkeypatch.setattr(groups, "member",
                            lambda G, M: len(draws) != 8 and real_member(G, M))
    else:
        # the quotient of element 7 itself, or of element 7 . splitting(v)
        monkeypatch.setattr(groups, "normalizer_p", lambda G, g: real_p(G, g) * (
            2 if len(draws) == 8 and (g is draws[-1]) == (check == "members neutral")
            else 1))
    rep = run_scenario(load_scenario(os.path.join(SCENARIOS, "group_sp2.json")))
    assert [c["name"] for c in rep["checks"]] == [
        "members neutral", "splitting section", "normalizer conjugation"]
    assert [(c["name"], c["witness"]) for c in rep["checks"]
            if c["verdict"] != "pass"] == [(check, witness)]
    assert len(draws) == 50


@pytest.mark.parametrize("g, summary", [
    ([["1", "1"], ["-1", "1"]], None),
    ([["1", "x"], ["0", "1"]], None),
    ([["x^2+2", "(x+1)*(x-1)"], ["x^2-1", "x^2+2"]],
     {"pass": 4, "fail": 0, "falsification": 0}),
], ids=["antisymmetric-part", "one-sided", "equal-written-two-ways"])
def test_asymmetric_metric_is_refused(tmp_path, capsys, g, summary):
    # SymTensor2 averages g[i][j] and g[j][i]: an asymmetric g ran as
    # another metric, or failed as "not positive definite"
    data = copy.deepcopy(_BUNDLED["euclidean_eta0.json"])
    del data["expect"]
    data["objects"]["g"] = g
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["run", str(path), "--json"], capsys)
    assert err == ""
    rep = json.loads(out)
    if summary is None:
        assert code == 1
        assert rep["checks"] == [{
            "name": "object", "verdict": "fail",
            "detail": "metric is not symmetric: entries (0, 1) and (1, 0) differ"}]
    else:
        assert code == 0 and rep["summary"] == summary


# the type mutations of one JSON value that every scenario field must turn
# into a report or an input error, never an internal one
_MUTANTS = ["x", [], {}, True, 1.5, None, -1, {"a": "1"}, ["1"]]


def _json_paths(node, prefix=()):
    """The path of every value inside `node`, nested ones included."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


def _bundled_scenarios():
    out = {}
    for name in sorted(n for n in os.listdir(SCENARIOS) if n.endswith(".json")):
        with open(os.path.join(SCENARIOS, name)) as fh:
            out[name] = json.load(fh)
    return out


_BUNDLED = _bundled_scenarios()


def _node(data, path):
    for key in path:
        data = data[key]
    return data

_MUTATION_SITES = [(name, path) for name, data in _BUNDLED.items()
                   for path in _json_paths(data)]


def _assert_report_or_input_error(tmp_path_factory, name, path, value):
    """Bundled scenario `name` with the value at `path` replaced by `value`
    ends in a report or an input error, never an internal error."""
    data = copy.deepcopy(_BUNDLED[name])
    _node(data, path[:-1])[path[-1]] = value
    target = tmp_path_factory.getbasetemp() / "mutant.json"
    target.write_text(json.dumps(data))
    try:
        report = run_scenario(load_scenario(str(target)))
    except INPUT_ERRORS:
        return
    assert isinstance(report["scenario"], str) and report["checks"]


@settings(derandomize=True, max_examples=600, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(_MUTATION_SITES), st.sampled_from(_MUTANTS))
def test_single_field_mutation_is_report_or_input_error(tmp_path_factory, site,
                                                         value):
    _assert_report_or_input_error(tmp_path_factory, *site, value)


# every DSL string under `objects`, with the chart its names come from:
# frame entries live on the total chart (base coordinates and mu), form
# and metric coefficients on the base
_DSL_SITES = [(name, path, tuple(data["base"]["coords"])
               + (("mu",) if path[1] == "frame" else ()))
              for name, data in _BUNDLED.items()
              for path in _json_paths(data["objects"], ("objects",))
              if path[1] != "group" and data["kind"] != "group"
              and isinstance(_node(data, path), str)]


@functools.lru_cache(maxsize=None)
def _dsl_on(names):
    return function_dsl(names + ("0", "10^30", "10^-30"))


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(_DSL_SITES).flatmap(
    lambda site: st.tuples(st.just(site), _dsl_on(site[2]))))
def test_dsl_content_is_report_or_input_error(tmp_path_factory, case):
    # well-typed DSL text whose content makes no valid object: a frame that
    # is degenerate or has no degree homomorphism once ended in exit 3
    (name, path, _), text = case
    _assert_report_or_input_error(tmp_path_factory, name, path, text)


@pytest.mark.parametrize("name, path, text, message", [
    ("darboux_k2", ("theta", "u"), "1 + r", "objects.theta.u: unknown identifier "
     "'r'; chart 'darboux_k2' declares (u, x1, p1) (at position 4)"),
    ("riemann_eta_dz", ("g", 0, 0), "1 + r", "objects.g[0][0]: unknown identifier "
     "'r'; chart 'riemann_eta_dz' declares (x, y, z) (at position 4)"),
    ("riemann_eta_dz", ("eta", "z"), "1 + r", "objects.eta.z: unknown identifier "
     "'r'; chart 'riemann_eta_dz' declares (x, y, z) (at position 4)"),
    ("frame_euler", ("frame", 0, 0), "1 + r", "objects.frame[0][0]: unknown "
     "identifier 'r'; chart 'frame_euler~' declares (x, mu) (at position 4)"),
    ("darboux_k2", ("theta", "u"), "s", "objects.theta.u: unknown identifier "
     "'s'; chart 'darboux_k2' declares (u, x1, p1) (at position 0)"),
    ("euclidean_eta0", ("g", 0, 0), "1 + s", "objects.g[0][0]: unknown identifier "
     "'s'; chart 'euclidean_eta0' declares (x, y) (at position 4)"),
    ("complex_constant", ("frame", 0, 0), "1 + s", "objects.frame[0][0]: unknown "
     "identifier 's'; chart 'complex_constant~' declares (x, y, z, mu) (at "
     "position 4)"),
    ("frame_euler", ("frame", 0, 0), "1 + s", "objects.frame[0][0]: unknown "
     "identifier 's'; chart 'frame_euler~' declares (x, mu) (at position 4)"),
], ids=["contact-theta", "metric", "riemannian-eta", "frame", "contact-theta-s",
        "metric-s", "complex-frame-s", "frame-s"])
def test_scaling_parameter_in_object_is_input_error(tmp_path, capsys, name, path,
                                                     text, message):
    # the parser once read r and s as the formal scaling parameters on any
    # chart: in a theta or metric entry they ended in an internal KeyError,
    # in a frame in an internal ChartError, and r in eta ran as if it were
    # a coordinate; a scenario object may name only its chart's coordinates
    data = copy.deepcopy(_BUNDLED[name + ".json"])
    _node(data["objects"], path[:-1])[path[-1]] = text
    target = tmp_path / "r.json"
    target.write_text(json.dumps(data))
    code, out, err = run_cli(["run", str(target)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_scenario_runners_catch_nothing():
    """An invalid object is mapped to a failed check in one place: no
    `_run_*` pipeline has a `try`, and the module's only handlers are the
    schema and JSON ones and the one in `run_scenario`."""
    with open(os.path.join(REPO, "src", "homogeo", "scenarios.py")) as fh:
        tree = ast.parse(fh.read())
    handlers = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))
        if fn.name.startswith("_run_"):
            assert not any(isinstance(n, ast.Try) for n in nodes), fn.name
        handlers += [(fn.name, ast.unparse(n.type) if n.type else "")
                     for n in nodes if isinstance(n, ast.ExceptHandler)]
    assert sorted(handlers) == [
        ("_form_from_dict", "ValueError"),
        ("_read", "(ValueError, ArithmeticError)"),
        ("_scenario_chart", "ChartError"),
        ("load_scenario", "(ValueError, RecursionError)"),
        ("run_scenario", "ex.ConstantTooLargeError"),
        ("run_scenario", "ex.InvalidObjectError"),
    ]


# per scenario kind, the (module, function) pairs its pipeline calls once
# and hands the result on: the pair report and the upstairs form omega, the
# frame's transition, or the two curvature builds
_BUILT_ONCE = {"contact": (("contact", "check_pair"), ("contact", "pair_to_omega")),
               "cosymplectic": (("cosymplectic", "check_cosymplectic"),
                                ("cosymplectic", "pair_to_omega0")),
               "frame": (("frames", "transition"),),
               "riemannian": (("riemannian", "tensors_ABCD"),
                              ("riemannian", "curvature_RD"))}


def test_scenario_builds_its_report_once(monkeypatch):
    """Each bundled contact, cosymplectic, frame and riemannian scenario
    builds its pair report and omega, its frame's transition, or its
    curvature tensors, once: the homogeneity, roundtrip, integrability and
    curvature checks and the degree coset take the ones the runner built."""
    import importlib
    calls = []
    for module, name in {site for sites in _BUILT_ONCE.values() for site in sites}:
        mod = importlib.import_module("homogeo." + module)

        def counted(*args, real=getattr(mod, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    runs = 0
    for scenario, data in sorted(_BUNDLED.items()):
        if data["kind"] in _BUILT_ONCE:
            calls.clear()
            run_scenario(load_scenario(os.path.join(SCENARIOS, scenario)))
            for _, name in _BUILT_ONCE[data["kind"]]:
                assert calls.count(name) == 1, (scenario, name)
            runs += 1
    assert runs == 17


def _source_sites(match):
    """(module, outermost function, node) for each node of src/homogeo/
    that `match` accepts, the function None at module level."""
    root = os.path.join(REPO, "src", "homogeo")
    sites = []

    def visit(module, node, where):
        if where is None and isinstance(node, ast.FunctionDef):
            where = node.name
        if match(node):
            sites.append((module, where, node))
        for child in ast.iter_child_nodes(node):
            visit(module, child, where)

    for module in sorted(os.listdir(root)):
        if module.endswith(".py"):
            with open(os.path.join(root, module)) as fh:
                visit(module, ast.parse(fh.read()), None)
    return sites


def _is_call(owner, attrs):
    return lambda n: (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                      and isinstance(n.func.value, ast.Name)
                      and n.func.value.id == owner and n.func.attr in attrs)


def test_point_values_have_one_rule():
    """Values at sample points come from zerotest: no other module draws
    its own points or evaluates in floats, except frames._fold_rational on
    a constant (at the empty point), and only the CLI catches every
    exception, so a bug elsewhere never becomes a verdict.  Each stream has
    one key rule: a rational query's point mod the fixed prime, its GF(p)
    stream and its rational witness points are keyed by the node's digest
    (`_digest`), a float query's points by the printed text
    (`_fingerprint`), and nothing else in the package hashes, nor prints a
    query in zerotest."""
    broad = _source_sites(lambda n: isinstance(n, ast.ExceptHandler) and (
        n.type is None or "Exception" in {x.id for x in ast.walk(n.type)
                                          if isinstance(x, ast.Name)}))
    assert {m for m, _, _ in broad} == {"cli.py"}

    floats = [(m, f, ast.unparse(n.args[1]))
              for m, f, n in _source_sites(_is_call("numtape", {"eval_tape"}))
              if m not in ("zerotest.py", "numtape.py")]
    assert floats == [("frames.py", "_fold_rational", "[{}]")]

    rngs = {(m, f) for m, f, _ in _source_sites(_is_call("random", {"Random"}))}
    assert rngs == {("scenarios.py", "_run_group"), ("zerotest.py", "_points"),
                    ("zerotest.py", "_query_prime"), ("zerotest.py", "_fixed_point")}
    # one stream of rational points: only _points draws them, and the zero
    # test reads it without a redraw loop of its own
    draws = {(m, f) for m, f, n in _source_sites(
        lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id == "_draw")}
    assert draws == {("zerotest.py", "_points")}
    hashes = {(m, f) for m, f, _ in _source_sites(
        lambda n: isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
        and n.value.id == "hashlib")}
    assert hashes == {("zerotest.py", "_fingerprint"), ("zerotest.py", "_digest")}
    assert not _source_sites(lambda n: isinstance(n, ast.ImportFrom)
                             and n.module == "hashlib")
    prints = {f for m, f, _ in _source_sites(
        lambda n: isinstance(n, ast.Call) and "to_dsl" in (
            getattr(n.func, "attr", None), getattr(n.func, "id", None)))
        if m == "zerotest.py"}
    assert prints == {"_fingerprint"}
    loops = {f for m, f, _ in _source_sites(lambda n: isinstance(n, ast.While))
             if m == "zerotest.py"}
    assert not loops & {"zero_report", "_uniform_residue", "sample_values"}


def test_printable_constants_have_one_rule():
    """Only expr's printer helper and parser.parse read the digit limit of
    Python's int printing, and the parser walks no expression of its own:
    it reads the constants and exponents off its result's tape."""
    reads = {(m, f) for m, f, _ in _source_sites(_is_call("sys", {"get_int_max_str_digits"}))}
    assert reads == {("expr.py", "unprintable"), ("parser.py", "parse")}

    def names(node):
        return {x.attr if isinstance(x, ast.Attribute) else x.id
                for x in ast.walk(node) if isinstance(x, (ast.Attribute, ast.Name))}

    node_tests = [ast.unparse(n) for m, _, n in _source_sites(
        lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id == "isinstance" and len(n.args) == 2)
        if m == "parser.py" and names(n.args[1]) & {"Sum", "Prod", "Pow", "Fun"}]
    assert node_tests == []


def test_internal_error_does_not_abort_suite(tmp_path, capsys, monkeypatch):
    import homogeo.cli as cli
    real = cli.run_scenario

    def flaky(data, *args, **kwargs):
        if data["name"] == "boom":
            raise RuntimeError("kernel bug")
        return real(data, *args, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", flaky)
    suite = _write_suite(tmp_path, {**_BUNDLED["darboux_k2.json"], "name": "boom"})
    code, out, err = run_cli(["suite", str(suite), "--json"], capsys)
    agg = json.loads(out)
    assert code == 3
    assert agg["errors"] == [{"path": str(suite / "bad.json"),
                              "error": "internal error: RuntimeError: kernel bug"}]
    assert "Traceback" in err and "kernel bug" in err
    assert [r["scenario"] for r in agg["scenarios"]] == ["group_sp2"]
    assert agg["summary"]["input_errors"] == 0
    assert agg["summary"]["pass"] == agg["scenarios"][0]["summary"]["pass"]
    code, out, err = run_cli(["suite", str(suite)], capsys)
    assert code == 3
    assert "[ERROR] internal error: RuntimeError: kernel bug" in out
    assert out.rstrip().endswith("0 input errors, 1 internal errors")
    code, out, err = run_cli(["run", str(suite / "bad.json")], capsys)
    assert code == 3 and out == ""
    assert "Traceback" in err
    assert err.rstrip().endswith("error: internal error: RuntimeError: kernel bug")


# sha256 of `homogeo suite scenarios --json --seed S` (stdout, with the final
# newline): any change to a report byte fails.  The complex_twisted torsion
# residual is identically -1 in floats, so its seed-1 witness is the point
# whose rounding error is largest, and that pin depends on the float kernels
_SUITE_SHA256 = {
    0: "0e497a7a006c7bec1e84b220765152de52765a12df93014c1e0c8b0a70e3f312",
    1: "4ca2daec23ad1f4e4139a8b5e4b816b40a6d8fad953e98977b07d4c54d698e83",
    2: "4b67ade92c2925dde2ae38508370323bc9d4c61999c81458795599f66759f10e",
    3: "af1e2a0ed9695878115ffce157170739f5111e4b75fa161c635032429a0592c0",
    7: "855241b8cd04e09039d68735015d8718cefe354a4696410ab757e23bdc208c69",
    42: "71785b1b173431b735a2ddb6fc1bf478db3e2782a2b9b9c93bdea25df57655e0",
}


def test_bundled_suite_queries_pinned(monkeypatch, capsys):
    """The sampled zero-test queries of `homogeo suite scenarios --seed 0`,
    in order, pinned by the count and sha256 of their keys: the digest of
    a rational query, the printed fingerprint of a float one.  A check that
    tests more, fewer or reordered queries moves them, and so does a
    rational query that prints."""
    seen = []
    for name in ("_digest", "_fingerprint"):
        def record(e, policy, _real=getattr(zerotest, name), _name=name):
            seen.append((_name, _real(e, policy)))
            return seen[-1][1]
        monkeypatch.setattr(zerotest, name, record)
    code, _, _ = run_cli(["suite", SCENARIOS, "--seed", "0"], capsys)
    assert code == 0
    assert len(seen) == 55 and sum(k == "_fingerprint" for k, _ in seen) == 33
    assert hashlib.sha256("\n".join(f"{k} {v}" for k, v in seen).encode()).hexdigest() == \
        "5c59b8ce624695be9520dceaba454539bfac14ef95dc40b64161a85fddaf2cd7"


def test_suite_verdicts_independent_of_seed(capsys):
    """Metamorphic gate: the zero-test seed moves sample points and
    witnesses, never a verdict.  Each report is also pinned byte for byte."""
    verdicts = {}
    for seed, want_sha in _SUITE_SHA256.items():
        code, out, _ = run_cli(["suite", SCENARIOS, "--json", "--seed",
                                str(seed)], capsys)
        assert code == 0
        verdicts[seed] = [(r["scenario"], c["name"], c["verdict"])
                          for r in json.loads(out)["scenarios"]
                          for c in r["checks"]]
        assert hashlib.sha256(out.encode()).hexdigest() == want_sha, \
            f"suite report bytes changed for seed {seed}"
    assert verdicts[0]
    for seed, got in verdicts.items():
        assert got == verdicts[0], f"verdicts differ for seed {seed}"


def test_suite_report_independent_of_hash_seed():
    """Nodes hash by identity, and no set of nodes is iterated for output:
    the seed-0 report is the same bytes under two string hash seeds."""
    outs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-m", "homogeo.cli", "suite", SCENARIOS,
                               "--json", "--seed", "0"],
                              env={**os.environ, "PYTHONHASHSEED": hash_seed},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0].encode()).hexdigest() == _SUITE_SHA256[0]
