"""Host speed probe.

The reference machine is a share of a host whose speed drifts: the same
pass, run back to back, takes up to half as long again a minute later, in
CPU time as much as in wall time.  `work()` is a fixed piece of work that
is not homogeo's code.  The pass process times it before, during (every
PERIOD_S seconds) and after its `cli.main` call, and scales each stretch of
the pass between two probes by REFERENCE_S / (their mean time).  A slow
stretch of the host slows the probes around it as much as the pass, and
cancels out.

The work imitates the program's hot paths in pure Python: Fraction matrix
products (ratmat), building hash-consed expression trees and printing them
recursively (expr), and small numpy evaluations (numtape).  It must not
change: every reported `wall_s` is in units of REFERENCE_S.
"""

import signal
import time
from fractions import Fraction

import numpy as np

# Median time of `work()` on the reference machine (2 cores at 2.1 GHz,
# Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.075
ROUNDS = 5
PERIOD_S = 0.5


def _matrices(r):
    n = 5
    m = [[Fraction(i * 3 + j + 1, j + 2 + r) for j in range(n)] for i in range(n)]
    for _ in range(5):
        m = [[sum((m[i][k] * m[k][j] for k in range(n)), Fraction(0)) / (1 + i + j)
              for j in range(n)] for i in range(n)]
    return m[0][0]


def _expressions(r):
    table = {}

    def node(*key):
        return table.setdefault(key, key)

    def show(e):
        if e[0] == "v":
            return e[1]
        if e[0] == "c":
            return str(e[1])
        return "(" + f" {e[0]} ".join(show(a) for a in e[1:]) + ")"

    leaves = [node("v", "x"), node("v", "y")] + [node("c", Fraction(k, 7)) for k in range(12)]
    exprs = leaves
    for depth in range(6):
        exprs = [node("+" if (i + depth + r) % 2 else "*", exprs[i % len(exprs)],
                      exprs[(i * 5 + 3) % len(exprs)])
                 for i in range(len(exprs) + 8)]
    return sum(len(show(e)) for e in exprs[:10])


def _arrays(r):
    x = np.linspace(-1.0, 1.0, 8) + r
    acc = 0.0
    for k in range(400):
        acc += float(np.sum(np.sin(x * k) * np.cos(x) + x * x))
    return acc


def work():
    check = 0
    for r in range(ROUNDS):
        check += hash(_matrices(r)) % 97
        check += _expressions(r)
        check += int(_arrays(r))
    return check


class SpeedProbes:
    """Probes around and, on a SIGALRM timer, inside a block of code.

        with SpeedProbes() as probes:
            cli.main(...)

    The timer is re-armed only after a probe ends, so probes never overlap.
    A probe interrupts the program between two bytecodes and touches none
    of its state.
    """

    def __init__(self):
        self.marks = []      # (start, end) of each probe

    def _probe(self):
        start = time.perf_counter()
        work()
        self.marks.append((start, time.perf_counter()))

    def _on_alarm(self, signum, frame):
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self):
        self._probe()
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._probe()
        return False

    def stretches(self):
        """(seconds, mean time of the two probes around it) per stretch."""
        return [(s1 - e0, ((e0 - s0) + (e1 - s1)) / 2)
                for (s0, e0), (s1, e1) in zip(self.marks, self.marks[1:])]

    def raw_s(self):
        """Time of the block, probes left out."""
        return sum(t for t, _ in self.stretches())

    def reference_s(self):
        """Time of the block, probes left out, at the reference speed."""
        return sum(t * REFERENCE_S / p for t, p in self.stretches())
