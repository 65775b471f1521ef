#!/usr/bin/env python3
"""End-to-end benchmark for homogeo.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Every pass is one `homogeo.cli.main(["suite",
<dir>, "--json", ...])` call in a fresh interpreter (perfbench/child.py);
an operation is one scenario run inside a pass.  Rounds of the workload
repeat until --seconds have passed (at least one round).  With --trace 0
the last stdout line is the end-to-end metrics, with --trace 1 each round
runs the workload once plain and once traced and reports the per-layer
metrics.  Metric names and units come from BENCHMARK.json.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCENARIOS = os.path.join(ROOT, "scenarios")
GOLDENS = os.path.join(SCENARIOS, "expected")

BUNDLED_SEEDS = (0, 1, 2, 3, 7, 42)
SETUP_ONLY_SPAWNS = 6
DEADLINE_S = 150        # subprocesses stop here; the oracle and output follow
MAX_PROBLEMS_SHOWN = 20

sys.path.insert(0, HERE)
import checks  # noqa: E402
import inputs  # noqa: E402


class Tally:
    """Operations attempted and failed.  A failure outside the known
    fault makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.ok_by_name = {}

    def record(self, label, problems):
        for name, probs in problems.items():
            self.attempted += 1
            if probs:
                self.failed += 1
                self.unexpected.append(f"{label} {name}: {'; '.join(probs)}")
            else:
                self.ok_by_name[name] = self.ok_by_name.get(name, 0) + 1

    def fail_name(self, name, why):
        """Count every so far passing run of scenario `name` as failed."""
        self.failed += self.ok_by_name.pop(name, 0)
        self.unexpected.append(f"{name}: {why}")


class Runner:
    def __init__(self, work):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.expired = False
        self.tally = Tally()
        self.seen = checks.SeenReports()
        self.setup = []
        self.wall = []       # raw pass seconds
        self.ref = []        # the same, at the reference speed
        self.rss = []
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p))

    def bounded_run(self, cmd):
        """subprocess.run bounded by the run's deadline; None on timeout."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            self.expired = True
            return None
        try:
            return subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.expired = True
            return None

    def spawn(self, mode, cli_args=(), spans=os.devnull):
        """One child interpreter; returns its JSON result or None."""
        t_spawn = time.monotonic()
        proc = self.bounded_run([sys.executable, os.path.join(HERE, "child.py"),
                                 repr(t_spawn), mode, spans, *cli_args])
        if proc is None or proc.returncode != 0:
            if proc is not None:
                sys.stderr.write(proc.stderr[-2000:])
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.setup.append(result["setup_s"])
        return result

    def suite_pass(self, directory, names, label, mode, extra=()):
        """One `suite --json` pass; returns (result, aggregate, problems)."""
        out = os.path.join(self.work, f"{label}-{mode}.json")
        spans = os.path.join(self.work, f"{label}-spans.jsonl")
        if os.path.exists(out):
            os.remove(out)      # a report left by an earlier round must not count
        result = self.spawn(mode, ["suite", directory, "--json", "-o", out, *extra],
                            spans if mode == "trace" else os.devnull)
        agg = None
        if result is not None and os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                agg = json.load(fh)
            if mode == "plain":
                self.wall.append(result["wall_s"])
                self.ref.append(result["ref_s"])
                self.rss.append(result["peak_rss_mb"])
        code = result["exit"] if result is not None else None
        return result, agg, checks.suite_problems(agg, code, names)


# ---------------------------------------------------------------------------
# workloads

class BundledSuite:
    """The bundled scenarios, one pass per zero-test seed and one more for
    the seed picked by --seed (so every run repeats a seed), plus the deep
    nesting scenario run on its own (kept out of wall_s)."""

    def __init__(self, runner, seed):
        self.runner = runner
        self.seeds = BUNDLED_SEEDS + (BUNDLED_SEEDS[seed % len(BUNDLED_SEEDS)],)
        self.names = sorted(os.path.splitext(os.path.basename(p))[0]
                            for p in glob.glob(os.path.join(SCENARIOS, "*.json")))
        self.deep = os.path.join(runner.work, "deep_nesting.json")
        inputs.write_deep_nesting(self.deep)

    def traversal(self, mode):
        r = self.runner
        passes = []
        for seed in self.seeds:
            result, agg, problems = r.suite_pass(SCENARIOS, self.names, f"seed{seed}",
                                                 mode, ["--seed", str(seed)])
            if agg is not None:
                if seed == 0:
                    checks.golden_problems(agg, GOLDENS, problems)
                r.seen.check(agg, seed, problems)
            r.tally.record(f"{mode} seed {seed}", problems)
            passes.append(result)
        self.deep_nesting()
        return passes

    def deep_nesting(self):
        """Documented outcome: exit 2 with a parse error and no traceback.
        Failing it is the known fault, counted but not incorrect."""
        r = self.runner
        proc = r.bounded_run([sys.executable, "-m", "homogeo.cli", "run", self.deep])
        r.tally.attempted += 1
        if (proc is None or proc.returncode != 2 or "Traceback" in proc.stderr
                or "error:" not in proc.stderr):
            r.tally.failed += 1

    def after(self):
        pass


class Curvature:
    """Seeded metric triples written as riemannian scenario files."""

    def __init__(self, runner, seed):
        self.runner = runner
        self.dir = os.path.join(runner.work, "scenarios")
        self.triples = inputs.write_curvature_set(self.dir, seed)
        self.names = sorted(self.triples)

    def traversal(self, mode):
        r = self.runner
        result, agg, problems = r.suite_pass(self.dir, self.names, "triples", mode)
        if agg is not None:
            checks.curvature_problems(agg, problems)
            r.seen.check(agg, None, problems)
        r.tally.record(mode, problems)
        return [result]

    def after(self):
        import oracle
        sys.path.insert(0, SRC)
        for name, why in oracle.mismatches(self.triples).items():
            self.runner.tally.fail_name(name, why)


WORKLOADS = {
    "bundled-suite": BundledSuite,
    "curvature-rational": Curvature,
}


# ---------------------------------------------------------------------------
# per-layer metrics

def layer_metrics(passes):
    """Per-layer numbers of one round, summed over its traced passes."""
    funcs, counts = {}, {}
    for p in passes:
        for name, vals in p["functions"].items():
            acc = funcs.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        for name, v in p["counts"].items():
            counts[name] = counts.get(name, 0) + v

    def one(name, i):
        return funcs.get(name, (0, 0.0, 0.0))[i]

    def layer(prefix, i=1):
        return sum(v[i] for k, v in funcs.items() if k.startswith(prefix + "."))

    m = dict(counts)
    m["zerotest.self_s"] = layer("zerotest")
    for f in ("to_dsl", "eval_exact", "simplify", "diff"):
        m[f"expr.{f}_s"] = one(f"expr.{f}", 1)
        m[f"expr.{f}_calls"] = one(f"expr.{f}", 0)
    m["numtape.compile_s"] = one("numtape.compile_tape", 1)
    m["numtape.eval_s"] = one("numtape.eval_tape", 1)
    m["numtape.eval_calls"] = one("numtape.eval_tape", 0)
    m["ratmat.s"] = layer("ratmat")
    m["ratmat.calls"] = layer("ratmat", 0)
    for f in ("tensors_ABCD", "curvature_RD"):
        m[f"riemannian.{f}_s"] = one(f"riemannian.{f}", 1)
        m[f"riemannian.{f}_calls"] = one(f"riemannian.{f}", 0)
    m["riemannian.verify_rd_s"] = one("riemannian.verify_rd_formulas", 1)
    m["riemannian.flatness_s"] = one("riemannian.flatness_report", 1)
    for mod in ("groups", "metric", "contact", "cosymplectic", "complexstruct",
                "frames", "linebundle"):
        m[f"{mod}.s"] = layer(mod)
    m["parser.parse_s"] = one("parser.parse", 1)
    m["parser.parse_calls"] = one("parser.parse", 0)
    m["scenarios.run_s"] = layer("scenarios")
    m["cli.overhead_s"] = one("cli.main", 2) - one("scenarios.run_scenario", 2)
    return m


def metric_values(runner, rounds, trace):
    if not trace:
        sys.stderr.write(f"{len(runner.wall)} passes; raw pass seconds: median "
                         f"{statistics.median(runner.wall):.4f}, at reference "
                         f"speed {statistics.median(runner.ref):.4f}\n")
        return {"setup_s": statistics.median(runner.setup),
                "wall_s": statistics.median(runner.ref),
                "peak_rss_mb": statistics.median(runner.rss)}
    per_round = []
    for plain, traced in rounds:
        m = layer_metrics(traced)
        m["trace.overhead_s"] = (sum(p["wall_s"] for p in traced)
                                 - sum(p["wall_s"] for p in plain))
        per_round.append(m)
    out = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                sys.stderr.write(f"count {name} differs between rounds: {values}\n")
            out[name] = statistics.median_low(values)
        else:
            out[name] = statistics.median(values)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (os.path.join(SRC, "homogeo", "cli.py"), GOLDENS,
                 os.path.join(ROOT, "BENCHMARK.json")):
        if not os.path.exists(need):
            print(f"error: {os.path.relpath(need, ROOT)} not found; run from a "
                  "homogeo checkout", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(ROOT, ".bench_build", "perfbench", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(work)
    workload = WORKLOADS[args.workload](runner, args.seed)

    # the first interpreter start pays for cold file caches and bytecode
    # compilation; it is not a sample
    if runner.spawn("setup") is None:
        print("error: homogeo.cli does not import", file=sys.stderr)
        return 2
    runner.setup.clear()
    for _ in range(SETUP_ONLY_SPAWNS):
        runner.spawn("setup")

    rounds = []
    t0 = time.monotonic()
    while not rounds or time.monotonic() - t0 < args.seconds:
        plain = workload.traversal("plain")
        traced = workload.traversal("trace") if args.trace else []
        if runner.expired or None in plain or None in traced:
            break
        rounds.append((plain, traced))
    workload.after()

    tally = runner.tally
    for line in tally.unexpected[:MAX_PROBLEMS_SHOWN]:
        print(f"problem: {line}", file=sys.stderr)
    if runner.expired:
        print(f"error: run did not finish within {DEADLINE_S} s", file=sys.stderr)
    values = metric_values(runner, rounds, args.trace) if rounds else {}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    result = {"correct": bool(rounds) and not tally.unexpected and not runner.expired,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
