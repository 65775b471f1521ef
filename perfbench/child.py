"""One benchmark pass in a fresh interpreter.

    python3 child.py <spawn time> <mode> <spans file> [cli arguments...]

<spawn time> is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so `setup_s` covers
interpreter start up to the end of `import homogeo.cli`.  <mode> is
`setup` (import only), `plain` (one `cli.main` call, with host speed
probes around and inside it; see calibrate.py) or `trace` (the same call
with every layer traced; spans go to <spans file>).  Prints one JSON object
on stdout.
"""

import sys
import time


def call_main(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as err:      # argparse rejects its arguments
        return err.code


def main() -> int:
    spawned, mode, spans_path = float(sys.argv[1]), sys.argv[2], sys.argv[3]
    import homogeo.cli as cli
    ready = time.monotonic()

    import json
    import resource
    result = {"setup_s": ready - spawned}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
            start = time.perf_counter()
            code = call_main(cli, sys.argv[4:])
            result["wall_s"] = time.perf_counter() - start
        else:
            # host speed probes run around and inside the plain pass only
            from calibrate import SpeedProbes
            with SpeedProbes() as probes:
                code = call_main(cli, sys.argv[4:])
            result["wall_s"] = probes.raw_s()
            result["ref_s"] = probes.reference_s()
            result["probes"] = len(probes.marks)
        result["exit"] = code
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["functions"] = tracer.functions()
            result["counts"] = tracer.counts
            tracer.write_spans(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
