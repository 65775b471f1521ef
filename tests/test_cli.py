import json
import os
import subprocess
import sys

import pytest

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



_BAD_NUMBERS = {"name": "bad_numbers", "kind": "group",
                "policy": {"seed": 0, "samples": 20},
                "objects": {"family": "sp", "param": 1, "elements": 5}}


@pytest.mark.parametrize("section, key, value", [
    ("policy", "samples", "lots"),
    ("policy", "seed", None),
    ("objects", "elements", "many"),
    ("objects", "param", [1]),
    ("objects", "param", None),
], ids=["samples-text", "seed-null", "elements-text", "param-list",
        "param-null"])
def test_non_integer_field_is_input_error(tmp_path, capsys, section, key, value):
    data = json.loads(json.dumps(_BAD_NUMBERS))
    data[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(["run", str(bad)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {section}.{key}: ")
    # in a suite the bad file is listed under errors; the others still run
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "bad.json").write_text(bad.read_text())
    with open(os.path.join(SCENARIOS, "group_sp2.json")) as fh:
        (suite / "group_sp2.json").write_text(fh.read())
    code, out, _ = run_cli(["suite", str(suite), "--json"], capsys)
    agg = json.loads(out)
    assert code == 2
    assert [e["path"] for e in agg["errors"]] == [str(suite / "bad.json")]
    assert agg["errors"][0]["error"].startswith(f"{section}.{key}: ")
    assert [r["scenario"] for r in agg["scenarios"]] == ["group_sp2"]
    assert agg["summary"]["pass"] > 0


def test_suite_verdicts_independent_of_seed(capsys):
    """Metamorphic gate: the zero-test seed moves sample points and
    witnesses, never a verdict."""
    verdicts = {}
    for seed in (0, 1, 2, 3, 7, 42):
        code, out, _ = run_cli(["suite", SCENARIOS, "--json", "--seed",
                                str(seed)], capsys)
        assert code == 0
        verdicts[seed] = [(r["scenario"], c["name"], c["verdict"])
                          for r in json.loads(out)["scenarios"]
                          for c in r["checks"]]
    assert verdicts[0]
    for seed, got in verdicts.items():
        assert got == verdicts[0], f"verdicts differ for seed {seed}"
