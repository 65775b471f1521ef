"""Layer tracing from outside the program.

`Tracer.install()` replaces the public functions and public class methods
of each homogeo layer with wrappers that record one span per call:
function, start, end, and the span that caused it.  Names that modules bound by value (for example
`from .zerotest import is_zero, zero_report`) are rebound in every homogeo
module, so calls through them are traced too.  A call to a function that
is already running (recursion, as in `to_dsl`) is not a new span: only
the outermost call is timed and counted.  Spans stay in memory until
`write_spans`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "scenarios", "parser", "expr", "zerotest", "numtape", "ratmat",
          "groups", "metric", "riemannian", "contact", "cosymplectic",
          "complexstruct", "frames", "linebundle")

# The canonicalizing constructors of expr (add, mul, rat, ...) run millions
# of times per pass; a span each would swamp the trace.  expr is traced at
# its whole-expression entry points only.
EXPR_TRACED = ("to_dsl", "simplify", "diff", "eval_exact")


class Tracer:
    def __init__(self):
        self.names = []      # function index -> "layer.function"
        self.calls = []
        self.self_s = []
        self.total_s = []
        self.spans = []      # (span id, function index, start, end, parent id)
        self.counts = {"zerotest.queries": 0, "zerotest.literal": 0,
                       "zerotest.exact": 0, "zerotest.float": 0,
                       "zerotest.samples": 0, "zerotest.repeated": 0,
                       "numtape.tape_nodes": 0, "numtape.points": 0}
        self._queries = set()
        self._stack = []     # [span id, start, time covered by children]
        self._active = []
        self._next_id = 0

    # -- counters fed from call results ---------------------------------
    def _after_zero_report(self, args, kwargs, verdict):
        c = self.counts
        c["zerotest.queries"] += 1
        if verdict.note.startswith("literal"):
            c["zerotest.literal"] += 1
            return
        c["zerotest.exact" if verdict.exact else "zerotest.float"] += 1
        c["zerotest.samples"] += verdict.samples
        # a sampled query asked before with the same expression and policy
        # (expressions are interned and hash structurally)
        key = (args[0], args[1] if len(args) > 1 else kwargs.get("policy"))
        if key in self._queries:
            c["zerotest.repeated"] += 1
        else:
            self._queries.add(key)

    def _after_compile_tape(self, args, kwargs, tape):
        self.counts["numtape.tape_nodes"] += len(tape)

    def _after_eval_tape(self, args, kwargs, out):
        self.counts["numtape.points"] += len(out)

    # -- wrapping --------------------------------------------------------
    def _wrap(self, name, fn, after):
        fid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        self._active.append(False)
        stack, active, spans = self._stack, self._active, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if active[fid]:
                return fn(*args, **kwargs)
            active[fid] = True
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[fid] = False
                dur = end - frame[1]
                self.calls[fid] += 1
                self.total_s[fid] += dur
                self.self_s[fid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                spans.append((span_id, fid, frame[1], end, parent))
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        hooks = {"zerotest.zero_report": self._after_zero_report,
                 "numtape.compile_tape": self._after_compile_tape,
                 "numtape.eval_tape": self._after_eval_tape}
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("homogeo." + layer)
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (layer != "expr" or name in EXPR_TRACED):
                    full = f"{layer}.{name}"
                    wrappers[obj] = self._wrap(full, obj, hooks.get(full))
                elif inspect.isclass(obj) and layer != "expr":
                    # public methods, e.g. LineBundleScenario.homogeneity_report
                    for meth, fn in sorted(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            setattr(obj, meth, self._wrap(f"{layer}.{name}.{meth}", fn, None))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "homogeo" or modname.startswith("homogeo.")):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])

    # -- results ---------------------------------------------------------
    def functions(self) -> dict:
        """{"layer.function": [calls, self seconds, total seconds]} for
        every function that was called."""
        return {n: [c, s, t] for n, c, s, t in
                zip(self.names, self.calls, self.self_s, self.total_s) if c}

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, fid, start, end, parent in self.spans:
                fh.write(json.dumps([span_id, self.names[fid], start, end, parent]))
                fh.write("\n")
