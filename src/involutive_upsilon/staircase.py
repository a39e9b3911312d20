"""Staircase complexes: construction from step lists, torus-knot parameters,
mirrors, and the symmetric/positive/inward classification.

Conventions fixed here and used everywhere else:

* A positive staircase with steps [a1, ..., an] starts at (0, sum of the
  even-position steps) and alternates moves right (odd positions, f1 += a)
  and down (even positions, f2 -= a).  For a symmetric list this start is
  (0, s) with s = a1 + ... + ak, k = n/2, and the staircase ends at (s, 0).
* Corner generators (even vertex indices) have grading 0 and are cycles;
  connector generators (odd indices) have grading 1 and map onto their two
  neighbours.  The homology has rank one, generated by any corner class in
  grading 0.
* A negative staircase is the mirror of the positive one: gradings and both
  filtration levels negated, arrows reversed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, compress
from operator import sub

from .complexes import BifilteredComplex, FiltrationMode


class Sign(Enum):
    POSITIVE = "+"
    NEGATIVE = "-"


class Pointing(Enum):
    INWARD = "INWARD"
    OUTWARD = "OUTWARD"


@dataclass(frozen=True)
class StaircaseSpec:
    """A step-length list plus a sign.

    The empty list is allowed only as the degenerate unknot spec; the
    staircase builder itself requires at least one step.
    """

    steps: tuple
    sign: Sign = Sign.POSITIVE

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for a in self.steps:
            if not isinstance(a, int) or isinstance(a, bool) or a <= 0:
                raise ValueError(f"steps must be positive integers, got {a!r}")

    @property
    def symmetric(self) -> bool:
        n = len(self.steps)
        return n % 2 == 0 and self.steps == self.steps[::-1]


@dataclass(frozen=True)
class StaircaseClass:
    sign: Sign
    pointing: Pointing
    s: int
    d: int


def staircase_points(steps, start: tuple, first_move: str) -> tuple[tuple, tuple]:
    """The f1 and f2 columns of the vertices of a staircase walk.

    first_move "right" increments f1 on odd positions (1-indexed) and
    decrements f2 on even ones; "down" swaps the roles.
    """
    f1, f2 = [start[0]] + [0] * len(steps), [start[1]] + [0] * len(steps)
    right, down = (1, 2) if first_move == "right" else (2, 1)
    f1[right::2] = steps[right - 1::2]
    f2[down::2] = [-a for a in steps[down - 1::2]]
    return tuple(accumulate(f1)), tuple(accumulate(f2))


def staircase_complex(f1: tuple, f2: tuple, source_parity: int, mode=FiltrationMode.ALG_ALEX,
                      ids=None) -> BifilteredComplex:
    """Build a staircase complex from its vertex columns.

    Vertices whose index has `source_parity` carry grading 1 and map onto
    their neighbours; the others carry grading 0 and are cycles.
    """
    n = len(f1)
    ids = tuple([f"v{i}" for i in range(n)]) if ids is None else tuple(ids)
    gradings = [0] * n
    gradings[source_parity::2] = [1] * len(range(source_parity, n, 2))
    targets = [()] * n
    targets[source_parity::2] = zip(range(source_parity - 1, n - 1, 2),
                                    range(source_parity + 1, n + 1, 2))
    for i in {0, n - 1}:  # an end vertex has one neighbour
        if gradings[i]:
            targets[i] = tuple(j for j in (i - 1, i + 1) if 0 <= j < n)
    return BifilteredComplex.indexed(ids, tuple(gradings), f1, f2, tuple(targets), mode)


def staircase_from_steps(spec: StaircaseSpec) -> BifilteredComplex:
    """The staircase complex of a step list, in ALG_ALEX mode.

    Positive staircases are built directly; negative ones are the mirror of
    the positive staircase with the same steps.
    """
    if not spec.steps:
        raise ValueError("staircase needs at least one step (use unknot_complex for the unknot)")
    if spec.sign is Sign.NEGATIVE:
        return mirror(staircase_from_steps(StaircaseSpec(spec.steps, Sign.POSITIVE)))
    start = (0, sum(spec.steps[1::2]))
    return staircase_complex(*staircase_points(spec.steps, start, "right"), source_parity=1)


def unknot_complex() -> BifilteredComplex:
    """Single generator at (0, 0), grading 0, zero differential."""
    return BifilteredComplex.indexed(("u",), (0,), (0,), (0,), ((),), FiltrationMode.ALG_ALEX)


def mirror(C: BifilteredComplex) -> BifilteredComplex:
    """Negate gradings and both filtration levels, reverse all arrows."""
    if C.mode is not FiltrationMode.ALG_ALEX:
        raise ValueError("mirror is defined on unfolded (ALG_ALEX) complexes")
    sources = [[] for _ in C.ids]
    for i, ts in enumerate(C.targets):
        for j in ts:
            sources[j].append(i)
    gradings, f1, f2 = (tuple([-v for v in col]) for col in (C.gradings, C.f1, C.f2))
    return BifilteredComplex.indexed(C.ids, gradings, f1, f2, tuple(map(tuple, sources)),
                                     FiltrationMode.ALG_ALEX)


def classify(spec: StaircaseSpec) -> StaircaseClass:
    """Classify a symmetric staircase spec.

    s and d sum the first half of the step list: s = sum_{i<=k} a_i and
    d sums the odd-position entries of that half.  Positive staircases
    point inward exactly when the edge count is 0 mod 4, negative ones
    exactly when it is 2 mod 4.
    """
    if not spec.symmetric:
        raise ValueError(f"step list {list(spec.steps)} is not symmetric")
    n = len(spec.steps)
    k = n // 2
    s = sum(spec.steps[:k])
    d = sum(spec.steps[0:k:2])
    if spec.sign is Sign.POSITIVE:
        inward = n % 4 == 0
    else:
        inward = n % 4 == 2
    return StaircaseClass(
        sign=spec.sign,
        pointing=Pointing.INWARD if inward else Pointing.OUTWARD,
        s=s,
        d=d,
    )


# -- torus knots ------------------------------------------------------------

def steps_from_torus_knot(p: int, q: int) -> StaircaseSpec:
    """Step list of the positive torus knot T(p, q).

    The steps are the successive differences of the exponents appearing in
    the Alexander polynomial (1 - t) * sum_{j<p} t^{jq} / (1 - t^p), found by
    dividing that numerator by 1 - t^p as a power series up to its degree
    (p - 1)(q - 1): delta[n] += delta[n - p], one running sum per residue
    class mod p.  For coprime p < q its nonzero coefficients alternate
    between +1 and -1 and its exponents are symmetric.
    """
    if not (isinstance(p, int) and isinstance(q, int)) or not (2 <= p < q):
        raise ValueError(f"need integers 2 <= p < q, got p={p!r}, q={q!r}")
    if p * q >= sys.maxsize:  # bounds (p-1)(q-1) + 1, the length of the list below
        raise ValueError(f"p*q must be below {sys.maxsize}, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p={p} and q={q} are not coprime")
    top = (p - 1) * (q - 1)
    delta = [0] * (top + 1)
    for jq in range(0, top, q):  # jq < top, since q does not divide (p - 1)(q - 1)
        delta[jq] += 1
        delta[jq + 1] -= 1
    for r in range(p):
        delta[r::p] = accumulate(delta[r::p])
    exps = list(compress(range(top + 1), delta))
    return StaircaseSpec(tuple(map(sub, exps[1:], exps)), Sign.POSITIVE)
