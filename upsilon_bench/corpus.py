"""Seeded inputs for the three workloads.

A corpus is a list of Knot records.  The same (workload, seed) always gives
the same corpus; the make-up of each one (and why) is in README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracle

ALL_OUTPUTS = ("classic", "folded", "upper", "lower")
PAIR_ONLY = ("upper", "lower")

# coset-heavy: positive torus knots whose classic representative coset has
# dimension 16-20, the [1,2]*k+[2,1]*k staircases for k = 16..20 (Upper and
# Lower only: their classic coset is 2k, past the guard), and seeded
# staircases with 16-18 connectors.  The enumeration doubles in cost per
# dimension, so per-knot times cluster by dimension.  Forty knots: 13 of
# dimension 16, 14 of 17, 9 of 18 and 4 of 19-20, so the median (20th/21st)
# sits mid-cluster in dimension 17 and the tail (p75, the 30th) in 18.
HEAVY_TORUS = (
    (2, 33), (3, 25), (5, 21), (9, 19), (17, 18),
    (2, 35), (3, 26), (4, 23), (7, 20), (10, 19), (18, 19),
    (2, 37), (3, 28), (4, 25), (7, 22), (10, 21), (19, 20),
    (20, 21), (11, 23),
)
HEAVY_PAIR_K = (16, 17, 18, 19, 20)
RANDOM_HEAVY_HALVES = (16,) * 7 + (17,) * 7 + (18,) * 2

# reduce-long: long torus knots plus seeded staircases whose involutive cones
# have evenly spaced sizes from LONG_CONE_MIN to LONG_CONE_MAX generators.
# The reduction is quadratic; sizes stop at about 860 so a pass stays near
# four seconds and a run holds six passes for the per-knot medians.
LONG_TORUS = ((11, 60), (3, 200), (7, 101), (2, 301), (11, 81), (13, 70))
LONG_RANDOM = 34
LONG_CONE_MIN, LONG_CONE_MAX = 400, 800

# sweep-small: every symmetric step list with half-sum <= SWEEP_HALF_SUM, both
# signs; FILE_SHARE of them arrive as JSON complexes with acyclic boxes.
SWEEP_HALF_SUM = 8
FILE_SHARE = 8  # one knot in eight


@dataclass(frozen=True)
class Knot:
    """One input: a staircase (+ acyclic boxes) and the outputs requested.

    `torus` is (p, q) for a torus knot, which the program receives as p, q;
    `path` is set when the knot is handed over as a complex file.
    """

    label: str
    steps: tuple
    sign: int = 1
    torus: tuple | None = None
    boxes: tuple = ()
    outputs: tuple = ALL_OUTPUTS
    path: str = ""

    @property
    def spec(self) -> str:
        """The knot as a CLI knot spec."""
        if self.path:
            return f"file:{self.path}"
        return f"steps:{'+' if self.sign > 0 else '-'}:{','.join(map(str, self.steps))}"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _random_symmetric(rng: random.Random, half: int) -> tuple:
    h = tuple(rng.randint(1, 3) for _ in range(half))
    return h + h[::-1]


def coset_heavy(seed: int) -> list:
    rng = _rng("coset-heavy", seed)
    knots = [Knot(f"T({p},{q})", oracle.torus_steps(p, q), torus=(p, q))
             for p, q in HEAVY_TORUS]
    knots += [Knot(f"[1,2]*{k}+[2,1]*{k}", (1, 2) * k + (2, 1) * k, outputs=PAIR_ONLY)
              for k in HEAVY_PAIR_K]
    for i, half in enumerate(RANDOM_HEAVY_HALVES):
        knots.append(Knot(f"random-{i}", _random_symmetric(rng, half)))
    return knots


def reduce_long(seed: int) -> list:
    rng = _rng("reduce-long", seed)
    knots = [Knot(f"T({p},{q})", oracle.torus_steps(p, q), torus=(p, q), outputs=())
             for p, q in LONG_TORUS]
    for i in range(LONG_RANDOM):
        cone_size = LONG_CONE_MIN + (LONG_CONE_MAX - LONG_CONE_MIN) * i // (LONG_RANDOM - 1)
        half = max(1, round((cone_size / 2 - 1) / 2))
        knots.append(Knot(f"random-{i}", _random_symmetric(rng, half), outputs=()))
    return knots


def symmetric_halves(max_half_sum: int):
    """Every composition of 1..max_half_sum, in a fixed order."""
    def compositions(m):
        if m == 0:
            yield ()
            return
        for first in range(1, m + 1):
            for rest in compositions(m - first):
                yield (first,) + rest

    for m in range(1, max_half_sum + 1):
        yield from compositions(m)


def sweep_small(seed: int, input_dir: Path) -> list:
    """The criterion-2 corpus; the file share is written into input_dir."""
    rng = _rng("sweep-small", seed)
    base = [(h + h[::-1], sign) for h in symmetric_halves(SWEEP_HALF_SUM) for sign in (1, -1)]
    as_file = set(rng.sample(range(len(base)), len(base) // FILE_SHARE))
    knots = []
    for i, (steps, sign) in enumerate(base):
        label = f"steps:{'+' if sign > 0 else '-'}:{','.join(map(str, steps))}"
        if i not in as_file:
            knots.append(Knot(label, steps, sign))
            continue
        boxes = tuple((rng.randint(1, 2), rng.randint(-2, 3))
                      for _ in range(rng.randint(1, 2)))
        path = input_dir / f"knot{i}.json"
        path.write_text(complex_json(steps, sign, boxes), encoding="utf-8")
        knots.append(Knot(label + "+boxes", steps, sign, boxes=boxes, path=str(path)))
    return knots


def complex_json(steps, sign: int, boxes) -> str:
    """The complex file of staircase (+) boxes, with its involution block."""
    C, inv = oracle.knot_complex(steps, sign, boxes)
    ids = [f"g{i}" for i in range(len(C.gens))]
    doc = {
        "mode": "ALG_ALEX",
        "generators": [{"id": ids[i], "gr": g, "f1": a, "f2": b}
                       for i, (g, a, b) in enumerate(C.gens)],
        "differential": [{"from": ids[i], "to": ids[j]} for i, j in sorted(C.arrows)],
        "involution": [{"from": ids[i], "to": ids[j]} for i, j in enumerate(inv)],
    }
    return json.dumps(doc)


def build(workload: str, seed: int, input_dir: Path) -> list:
    if workload == "coset-heavy":
        return coset_heavy(seed)
    if workload == "reduce-long":
        return reduce_long(seed)
    if workload == "sweep-small":
        return sweep_small(seed, input_dir)
    raise ValueError(f"unknown workload {workload!r}")
