"""Record every zero-test query of a run, one line per query.

    python tools/query_log.py [--src DIR] -o FILE pytest TESTS_DIR [PYTEST_ARG ...]
    python tools/query_log.py [--src DIR] -o FILE suite SCENARIO_DIR [--seed N]

`zerotest.zero_report` is replaced by a wrapper.  Every other module
queries through `is_zero` and `all_zero`, which look the name up in
`zerotest`, so every query is recorded.  A residual that `all_zero` skips (the
negation or a repeat of one it decided zero over GF(p)) makes no query
and writes no line, and neither does one it decides zero at a sweep's
shared GF(p) point.  Each line holds, tab-separated: the
fingerprint of the simplified expression (`unprintable` for a literal
too large to print, which has none), the verdict (zero or nonzero),
the exact flag, the witness point, the witness value, the sample count and
the verdict's note ("-" when empty; a nonzero verdict without a rational
witness names its GF(p) certificate there).

The package is imported from --src (default: the src/ next to this
script), so the same tests or scenarios can be logged against two trees
and the logs compared with `cmp`.  Queries made in child processes (the
CLI tests that spawn `python -m homogeo.cli`) are not seen.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _install(out):
    """Wrap zerotest.zero_report."""
    from homogeo import expr as ex
    from homogeo import zerotest

    original = zerotest.zero_report
    # bound now: a test that patches zerotest._fingerprint sees only its
    # own calls
    fingerprint = zerotest._fingerprint

    def witness_text(w):
        if w is None:
            return "-"
        return ",".join(f"{k}={v}" for k, v in sorted(w.items()))

    def zero_report(e, policy=zerotest.DEFAULT_POLICY):
        rep = original(e, policy)
        # simplify is cached on the node, so this is a lookup of the
        # expression zero_report just fingerprinted
        try:
            fp = f"{fingerprint(ex.simplify(e, policy.constraints), policy):016x}"
        except ex.ConstantTooLargeError:
            fp = "unprintable"
        value = "-" if rep.witness_value is None else repr(rep.witness_value)
        out.write(f"{fp}\t{'zero' if rep.is_zero else 'nonzero'}\t"
                  f"{'exact' if rep.exact else 'float'}\t{witness_text(rep.witness)}\t"
                  f"{value}\t{rep.samples}\t{rep.note or '-'}\n")
        return rep

    zerotest.zero_report = zero_report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"),
                    help="directory holding the homogeo package")
    ap.add_argument("-o", "--output", required=True, help="query log to write")
    sub = ap.add_subparsers(dest="command", required=True)
    p_test = sub.add_parser("pytest", help="run pytest on a tests directory")
    p_test.add_argument("tests", help="tests directory")
    p_test.add_argument("pytest_args", nargs=argparse.REMAINDER,
                        help="further pytest arguments")
    p_suite = sub.add_parser("suite", help="run `homogeo suite` on a directory")
    p_suite.add_argument("directory", help="directory of scenario JSON files")
    p_suite.add_argument("--seed", type=int, default=None,
                         help="override the scenarios' zero-test seed")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    with open(args.output, "w", encoding="utf-8") as out:
        _install(out)
        if args.command == "pytest":
            import pytest
            # the tests import their helpers (conftest) by module name
            sys.path.insert(0, os.path.abspath(args.tests))
            return int(pytest.main(["-q", "-p", "no:cacheprovider", args.tests,
                                    *args.pytest_args]))
        from homogeo import cli
        suite = ["suite", args.directory]
        if args.seed is not None:
            suite += ["--seed", str(args.seed)]
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            return cli.main(suite)


if __name__ == "__main__":
    sys.exit(main())
