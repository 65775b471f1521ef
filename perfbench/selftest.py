#!/usr/bin/env python3
"""Show that the benchmark's checks catch wrong output.

    python3 perfbench/selftest.py

Runs one real seed-0 pass of the bundled suite, then feeds the checks
altered copies of its output and of the goldens, and a swapped triple to
the curvature oracle.  Each alteration must cost exactly one operation.
Exits 1 if any does not.
"""

import copy
import json
import os
import shutil
import sys
from fractions import Fraction

import run
import checks
import inputs
import oracle


def failed_ops(problems):
    tally = run.Tally()
    tally.record("selftest", problems)
    return tally.failed


def bundled_problems(agg, goldens, seen=None, seed=0):
    names = sorted(r["scenario"] for r in agg["scenarios"])
    problems = checks.suite_problems(agg, 0, names)
    checks.golden_problems(agg, goldens, problems)
    (seen or checks.SeenReports()).check(agg, seed, problems)
    return problems


def main() -> int:
    work = os.path.join(run.ROOT, ".bench_build", "perfbench", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = run.Runner(work)
    bundled = run.BundledSuite(runner, 0)
    _, agg, _ = runner.suite_pass(run.SCENARIOS, bundled.names, "seed0", "plain",
                                  ["--seed", "0"])
    results = []

    def expect(what, got, want):
        results.append(got == want)
        print(f"{'ok  ' if got == want else 'FAIL'} {what}: got {got}, want {want}")

    expect("genuine seed-0 suite pass", failed_ops(bundled_problems(agg, run.GOLDENS)), 0)

    flipped = copy.deepcopy(agg)
    flipped["scenarios"][3]["checks"][0]["verdict"] = "fail"
    expect("one flipped verdict", failed_ops(bundled_problems(flipped, run.GOLDENS)), 1)

    goldens = os.path.join(work, "goldens")
    shutil.copytree(run.GOLDENS, goldens)
    path = os.path.join(goldens, agg["scenarios"][5]["scenario"] + ".report.json")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(data)
    expect("one changed golden byte", failed_ops(bundled_problems(agg, goldens)), 1)

    seen = checks.SeenReports()
    bundled_problems(agg, run.GOLDENS, seen, seed=0)
    other_seed = copy.deepcopy(agg)
    other_seed["scenarios"][7]["checks"][-1]["verdict"] = "FALSIFICATION"
    problems = {n: [] for n in bundled.names}
    seen.check(other_seed, 1, problems)
    expect("verdicts differ between seeds", failed_ops(problems), 1)

    rep = {"scenario": "rd_eta0", "summary": {"pass": 7, "fail": 0, "falsification": 0},
           "checks": [{"name": n, "verdict": "pass", "detail": ""}
                      for n in checks.CURVATURE_REQUIRED + checks.ETA_ZERO_EXPECTED]}
    good = {"scenarios": [rep], "errors": []}
    problems = {"rd_eta0": []}
    checks.curvature_problems(good, problems)
    expect("genuine curvature report", failed_ops(problems), 0)
    bad = copy.deepcopy(good)
    del bad["scenarios"][0]["checks"][-1]
    problems = {"rd_eta0": []}
    checks.curvature_problems(bad, problems)
    expect("eta = 0 triple without 'expect C_zero'", failed_ops(problems), 1)

    import random
    sys.path.insert(0, run.SRC)
    from homogeo import expr as ex
    rng = random.Random(0)
    a = inputs.make_triple(rng, eta_zero=False)
    b = inputs.make_triple(rng, eta_zero=False)
    point = oracle.POINTS[0]
    got = ex.eval_exact(oracle.homogeo_curvature(a), dict(zip(inputs.COORDS, point)))
    want_a, want_b = oracle.brioschi(a, point), oracle.brioschi(b, point)
    same = got == Fraction(int(want_a.p), int(want_a.q))
    swapped = got == Fraction(int(want_b.p), int(want_b.q))
    expect("curvature oracle on the right and on a swapped triple",
           (same, swapped), (True, False))

    print(json.dumps({"selftest_ok": all(results)}))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
