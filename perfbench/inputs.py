"""Seeded scenario inputs for the benchmark workloads.

The program under test only ever receives the JSON scenario files written
here.  Each metric triple is kept as plain data (rational coefficients),
so that the sympy oracle can rebuild the same metric without going through
homogeo's parser.

Triple construction (after `test_criterion_5_rd_cross_check`): on the base
chart (x, y) the metric is g = I + P^T P with P a 2 x 2 matrix, so g is
positive definite by construction, and eta = eta_x dx + eta_y dy.  An entry
of P or eta is an affine form a + b*x + c*y with a, b, c in {-2,-1,1,2}/10.
Zero coefficients are left out on purpose: a zero drops a term, which
changes how many zero-test queries come out exactly zero and with it the
cost of a triple by up to half from seed to seed.  With every coefficient
nonzero all seeds make the same zero-test queries.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

COORDS = ("x", "y")
COEFFS = (-2, -1, 1, 2)      # numerators over 10
RANDOM_TRIPLES = 2           # plus one triple with eta = 0
DEEP_NESTING = 400
POLICY = {"seed": 0, "samples": 20, "tolerance": 1e-9}


def _affine(rng: random.Random):
    """Coefficients (a, b, c) of a + b*x + c*y."""
    return tuple(Fraction(rng.choice(COEFFS), 10) for _ in range(len(COORDS) + 1))


def _q(v: Fraction) -> str:
    return f"({v.numerator}/{v.denominator})" if v.denominator != 1 else f"({v.numerator})"


def entry_dsl(coeffs) -> str:
    a, b, c = coeffs
    return f"{_q(a)} + {_q(b)}*x + {_q(c)}*y"


def make_triple(rng: random.Random, eta_zero: bool) -> dict:
    P = [[_affine(rng) for _ in range(2)] for _ in range(2)]
    eta = [] if eta_zero else [_affine(rng) for _ in COORDS]
    return {"P": P, "eta": eta}


def metric_dsl(triple: dict):
    """g[i][j] = delta_ij + sum_k P[k][i] P[k][j] as DSL strings."""
    P = triple["P"]
    g = [[None, None], [None, None]]
    for i in range(2):
        for j in range(i, 2):
            s = " + ".join(f"({entry_dsl(P[k][i])})*({entry_dsl(P[k][j])})"
                           for k in range(2))
            g[i][j] = g[j][i] = ("1 + " + s) if i == j else s
    return g


def scenario_for(name: str, triple: dict) -> dict:
    scn = {
        "name": name,
        "kind": "riemannian",
        "policy": dict(POLICY),
        "base": {"coords": list(COORDS), "constraints": []},
        "objects": {
            "g": metric_dsl(triple),
            "eta": {c: entry_dsl(e) for c, e in zip(COORDS, triple["eta"])},
        },
    }
    if not triple["eta"]:
        # with eta = 0 every term of the closed forms A, B and C vanishes
        scn["expect"] = {"A_zero": True, "B_zero": True, "C_zero": True}
    return scn


def write_curvature_set(directory: str, seed: int) -> dict:
    """Write RANDOM_TRIPLES random triples and one eta = 0 triple; return
    {scenario name: triple data}."""
    rng = random.Random(f"rational:{seed}")
    os.makedirs(directory, exist_ok=True)
    triples = {f"rd_{i:02d}": make_triple(rng, eta_zero=False)
               for i in range(RANDOM_TRIPLES)}
    triples["rd_eta0"] = make_triple(rng, eta_zero=True)
    for name, triple in triples.items():
        with open(os.path.join(directory, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(scenario_for(name, triple), fh, indent=1)
    return triples


def write_deep_nesting(path: str):
    """A contact scenario whose theta coefficient is sin(...) nested
    DEEP_NESTING deep.  It does not depend on the seed."""
    text = "u"
    for _ in range(DEEP_NESTING):
        text = f"sin({text})"
    scn = {
        "name": "deep_nesting",
        "kind": "contact",
        "policy": dict(POLICY),
        "base": {"coords": ["u"], "constraints": []},
        "objects": {"theta": {"u": text}, "upsilon": {}},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scn, fh)
