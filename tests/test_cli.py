import hashlib
import json
import os
import subprocess
import sys

import pytest

from homogeo import zerotest
from homogeo.cli import main
from homogeo.scenarios import SchemaError, load_scenario, run_scenario

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
     "could not find enough valid sample points"),
    ([["(mu^10000)^10000", "0"], ["0", "mu"]],
     "objects.frame[0][0]: folded exponent 100000000 exceeds 10000"),
    ([["1", "0"], ["0", "mu^6000*mu^6000"]],
     "objects.frame[1][1]: folded exponent 12000 exceeds 10000"),
    ([["(10^10000)^10000", "0"], ["0", "mu"]],
     "objects.frame[0][0]: constant power exceeds 1048576 bits"),
    ([["1", "0"], ["0", "((3*mu)^10000)^10000"]],
     "objects.frame[1][1]: constant power exceeds 1048576 bits"),
], ids=["huge-exponent", "constant-beyond-float-range", "nested-power", "product-power",
        "constant-power", "coefficient-power"])
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


def test_load_scenario_rejects_bad_kind(tmp_path):
    p = tmp_path / "k.json"
    p.write_text('{"name": "x", "kind": "nope"}')
    with pytest.raises(SchemaError):
        load_scenario(str(p))


def test_policy_overrides_applied():
    scenario = load_scenario(os.path.join(SCENARIOS, "frame_euler.json"))
    rep = run_scenario(scenario, {"seed": 5, "samples": 7, "tolerance": 1e-7})
    assert rep["policy"] == {"seed": 5, "samples": 7, "tolerance": 1e-7}


def test_console_entry_point():
    out = subprocess.run([sys.executable, "-m", "homogeo.cli", "run",
                          os.path.join(SCENARIOS, "cosymplectic_k1.json")],
                         capture_output=True, text=True)
    assert out.returncode == 0


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
], ids=["samples-text", "seed-null", "elements-text", "param-list",
        "param-null", "samples-fraction", "samples-digits", "seed-bool",
        "param-fraction", "elements-negative", "elements-zero",
        "tolerance-bool", "tolerance-text", "tolerance-zero", "tolerance-nan",
        "tolerance-inf"])
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


def test_integral_float_field_accepted():
    scenario = load_scenario(os.path.join(SCENARIOS, "group_sp2.json"))
    scenario.data["policy"] = {"seed": 3.0, "samples": 20.0}
    scenario.data["objects"]["elements"] = 2.0
    rep = run_scenario(scenario)
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


def test_internal_error_does_not_abort_suite(tmp_path, capsys, monkeypatch):
    import homogeo.cli as cli
    real = cli.run_scenario

    def flaky(scenario, *args, **kwargs):
        if scenario.name == "boom":
            raise RuntimeError("kernel bug")
        return real(scenario, *args, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", flaky)
    suite = _write_suite(tmp_path, {"name": "boom", "kind": "contact"})
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
# newline), as recorded in BENCH_3.json: any change to a report byte fails
_SUITE_SHA256 = {
    0: "0e497a7a006c7bec1e84b220765152de52765a12df93014c1e0c8b0a70e3f312",
    1: "15aaa217c26aabe17b3d2579bd1dc06212b952d9c001b1e4ad53a4d7ca9e2ba5",
    2: "4b67ade92c2925dde2ae38508370323bc9d4c61999c81458795599f66759f10e",
    3: "af1e2a0ed9695878115ffce157170739f5111e4b75fa161c635032429a0592c0",
    7: "855241b8cd04e09039d68735015d8718cefe354a4696410ab757e23bdc208c69",
    42: "71785b1b173431b735a2ddb6fc1bf478db3e2782a2b9b9c93bdea25df57655e0",
}


def test_bundled_suite_queries_pinned(monkeypatch, capsys):
    """The sampled zero-test queries of `homogeo suite scenarios --seed 0`,
    in order, pinned by the count and sha256 of their fingerprints: a check
    that tests more, fewer or reordered queries moves them."""
    seen = []
    fingerprint = zerotest._fingerprint

    def record(e, policy):
        seen.append(fingerprint(e, policy))
        return seen[-1]

    monkeypatch.setattr(zerotest, "_fingerprint", record)
    code, _, _ = run_cli(["suite", SCENARIOS, "--seed", "0"], capsys)
    assert code == 0
    assert len(seen) == 61
    assert hashlib.sha256("\n".join(map(str, seen)).encode()).hexdigest() == \
        "88abd8dcf20176422ff100067505d32c8475f467fe7e79bfe8a610b632966919"


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
