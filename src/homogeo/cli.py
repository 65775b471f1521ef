"""Command line entry point: run one scenario file or a directory suite.

Exit codes, one rule for every kind: 0 all checks pass; 1 at least one
fail or FALSIFICATION, an invalid object (`InvalidObjectError`) among them
as the failed check `object`; 2 input error, one of INPUT_ERRORS
(SchemaError, ParseError, ConfigError, DomainError, ConstantTooLargeError,
OSError, writing the report to -o or to a closed stdout included); 3 internal
error, any other exception (its traceback goes to stderr and `suite` lists
it under `errors`, never as a pass).
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys
import traceback
from typing import List, Optional

from .expr import ConstantTooLargeError, DomainError
from .parser import ParseError
from .scenarios import SchemaError, load_scenario, render_text, run_scenario
from .zerotest import ConfigError

EXIT_OK, EXIT_CHECK_FAILURE, EXIT_INPUT_ERROR, EXIT_INTERNAL_ERROR = 0, 1, 2, 3

INPUT_ERRORS = (SchemaError, ParseError, ConfigError, DomainError, ConstantTooLargeError,
                OSError)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario's zero-test seed")
    p.add_argument("--samples", type=int, default=None,
                   help="override the sample count")
    p.add_argument("--tol", type=float, default=None,
                   help="override the numeric tolerance")
    p.add_argument("--json", action="store_true", help="emit JSON reports")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing (breaks byte-identical output)")
    p.add_argument("-o", "--output", default=None,
                   help="write the report to this file instead of stdout")


def _overrides(args) -> dict:
    out = {}
    if args.seed is not None:
        out["seed"] = args.seed
    if args.samples is not None:
        out["samples"] = args.samples
    if args.tol is not None:
        out["tolerance"] = args.tol
    return out


def _emit(text: str, output: Optional[str]):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def _internal_error(err: Exception) -> str:
    """Print err's traceback to stderr; return its one-line message."""
    traceback.print_exception(err, file=sys.stderr)
    return f"internal error: {type(err).__name__}: {err}"


def cmd_run(args) -> int:
    try:
        report = run_scenario(load_scenario(args.scenario, _overrides(args)),
                              with_timing=args.timing)
    except INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as err:
        print(f"error: {_internal_error(err)}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    _emit(_report_json(report) if args.json else render_text(report), args.output)
    bad = report["summary"]["fail"] + report["summary"]["falsification"]
    return EXIT_CHECK_FAILURE if bad else EXIT_OK


def cmd_suite(args) -> int:
    paths = [os.path.join(args.directory, n) for n in sorted(os.listdir(args.directory))
             if n.endswith(".json") and fnmatch.fnmatch(n, args.filter)]
    if not paths:
        print(f"error: no scenario files match {args.filter!r} in "
              f"{args.directory}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    reports = []
    errors = []
    internal = 0
    for path in paths:
        try:
            reports.append(run_scenario(load_scenario(path, _overrides(args)),
                                        with_timing=args.timing))
        except INPUT_ERRORS as err:
            errors.append({"path": path, "error": str(err)})
        except Exception as err:
            internal += 1
            errors.append({"path": path, "error": _internal_error(err)})

    reports.sort(key=lambda r: r["scenario"])
    total = {
        "pass": sum(r["summary"]["pass"] for r in reports),
        "fail": sum(r["summary"]["fail"] for r in reports),
        "falsification": sum(r["summary"]["falsification"] for r in reports),
        "scenarios": len(reports),
        "input_errors": len(errors) - internal,
    }
    aggregate = {"scenarios": reports, "errors": errors, "summary": total}

    if args.json:
        _emit(_report_json(aggregate), args.output)
    else:
        blocks = [render_text(r) for r in reports]
        for e in errors:
            blocks.append(f"scenario {e['path']}\n  [ERROR] {e['error']}")
        blocks.append(
            f"suite: {total['scenarios']} scenarios, {total['pass']} pass, "
            f"{total['fail']} fail, {total['falsification']} FALSIFICATION, "
            f"{total['input_errors']} input errors"
            + (f", {internal} internal errors" if internal else ""))
        _emit("\n\n".join(blocks), args.output)

    if internal:
        return EXIT_INTERNAL_ERROR
    if errors:
        return EXIT_INPUT_ERROR
    if total["fail"] or total["falsification"]:
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="homogeo",
        description="Check homogeneity-graded structure scenarios on a "
                    "trivialized line bundle chart.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_suite = sub.add_parser("suite", help="run every scenario in a directory")
    p_suite.add_argument("directory", help="directory of scenario JSON files")
    p_suite.add_argument("--filter", default="*",
                         help="glob on file names (default: all)")
    _add_common(p_suite)
    p_suite.set_defaults(func=cmd_suite)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:    # listing a suite, or writing the report to -o or stdout
        if isinstance(err, BrokenPipeError):
            # the reader closed stdout: send what is still buffered to
            # devnull, so the flush at exit raises nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
