"""Correctness checks on `homogeo suite --json` output.

Every check returns problems per scenario name; a scenario run with any
problem is a failed operation.  None of the expectations below is copied
from the run being checked: they are the exit-code contract, theorem
properties, definiteness by construction, closed-form known answers, the
committed golden reports, and agreement across seeds and repeats.
"""

from __future__ import annotations

import json
import os

# Checks that hold for every generated triple: "definite" because
# g = I + P^T P, the other two because they compare routes a theorem
# says agree.
CURVATURE_REQUIRED = ("definite", "curvature formulas", "flatness equivalence")
ETA_ZERO_EXPECTED = ("expect A_zero", "expect B_zero", "expect C_zero")


def report_text(report: dict) -> str:
    """A scenario report exactly as `homogeo run --json` writes it."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def verdicts(report: dict):
    return [(c["name"], c["verdict"]) for c in report["checks"]]


def suite_problems(agg, exit_code, names):
    """Exit code 0, one report per scenario, no fail, FALSIFICATION or
    input error."""
    problems = {n: [] for n in names}
    if agg is None:
        for n in names:
            problems[n].append(f"no suite report (exit {exit_code})")
        return problems
    reports = {r["scenario"]: r for r in agg["scenarios"]}
    for err in agg["errors"]:
        name = os.path.splitext(os.path.basename(err["path"]))[0]
        problems.setdefault(name, []).append(f"input error: {err['error']}")
    for n in names:
        rep = reports.get(n)
        if rep is None:
            problems[n].append("missing from the suite report")
            continue
        s = rep["summary"]
        if s["fail"] or s["falsification"]:
            problems[n].append(f"{s['fail']} fail, {s['falsification']} FALSIFICATION")
    if exit_code != 0 and not any(problems.values()):
        for n in names:
            problems[n].append(f"suite exit code {exit_code}")
    return {n: problems[n] for n in names}


def golden_problems(agg, goldens_dir, problems):
    """Each report byte-equal to scenarios/expected/<name>.report.json."""
    for rep in agg["scenarios"]:
        name = rep["scenario"]
        path = os.path.join(goldens_dir, name + ".report.json")
        try:
            with open(path, "rb") as fh:
                want = fh.read()
        except OSError:
            problems.setdefault(name, []).append("no golden report")
            continue
        if report_text(rep).encode("utf-8") != want:
            problems.setdefault(name, []).append("differs from its golden report")


def curvature_problems(agg, problems):
    """On generated triples: the theorem and construction checks pass, and
    the eta = 0 triple pins A, B and C to zero."""
    for rep in agg["scenarios"]:
        name = rep["scenario"]
        got = dict(verdicts(rep))
        want = CURVATURE_REQUIRED + (ETA_ZERO_EXPECTED if name.endswith("eta0") else ())
        for check in want:
            if got.get(check) != "pass":
                problems.setdefault(name, []).append(
                    f"{check!r} is {got.get(check, 'missing')}")


class SeenReports:
    """Byte identity of a scenario's report whenever the same input and
    zero-test seed run again (a later round, or the traced pass), and the
    verdict list of a bundled scenario identical across zero-test seeds."""

    def __init__(self):
        self.texts = {}
        self.verdicts = {}

    def check(self, agg, seed, problems):
        for rep in agg["scenarios"]:
            name = rep["scenario"]
            text = report_text(rep)
            first = self.texts.setdefault((seed, name), text)
            if text != first:
                problems.setdefault(name, []).append(
                    f"seed {seed}: output differs from an earlier run of the same seed")
            vlist = verdicts(rep)
            first_v = self.verdicts.setdefault(name, vlist)
            if vlist != first_v:
                problems.setdefault(name, []).append(
                    f"seed {seed}: verdicts differ from another seed's")
