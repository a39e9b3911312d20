"""Bifiltered Gaussian elimination and the closed-form cone reduction.

`reduce_bifiltered` repeatedly cancels differential entries between
generators of identical bidegree; the result is reduced (every surviving
entry strictly drops the bidegree somewhere), homology-preserving, and
bifiltered homotopy equivalent to the input.  Cancellable entries wait in
a heap that each elimination feeds with the entries it creates; the forward
change-of-basis map `kept_of` is replayed from the step log on request.

`closed_form_cone_reduction` is the combinatorial shortcut for the reduced
involutive cone of a symmetric staircase: a single diagonal vertex plus a
half-length staircase tail, in four cases by sign and the parity of the
half-length k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Mapping

from .complexes import (BifilteredComplex, Chain, FiltrationMode, Generator,
                        homology_rank)
from .staircase import Sign, StaircaseSpec, classify, staircase_complex, staircase_points


@dataclass(frozen=True)
class ReductionResult:
    """The reduced complex and its step log: (x, y, rho) cancelled the entry
    x -> y, where rho was the rest of the boundary of x at that moment."""

    source: BifilteredComplex
    reduced: BifilteredComplex
    steps: tuple

    @property
    def eliminated_pairs(self) -> tuple:
        return tuple((x, y) for x, y, _ in self.steps)

    @cached_property
    def kept_of(self) -> Mapping[str, Chain]:
        """Image of each source generator in `reduced`, replayed backwards:
        a cancelled x maps to 0 and a cancelled y to the image of its rho."""
        image = {g.id: frozenset((g.id,)) for g in self.reduced.generators}
        for x, y, rho in reversed(self.steps):
            image[x] = frozenset()
            image[y] = frozenset()
            for r in rho:
                image[y] ^= image[r]
        return {g.id: Chain(frozenset((0, t) for t in image[g.id]))
                for g in self.source.generators}


def reduce_bifiltered(C: BifilteredComplex, rng=None) -> ReductionResult:
    """Cancel equal-bidegree differential entries until none remain.

    The entry to cancel is the least by (grading, bidegree, generator
    order), or by a hash salted from `rng` when it is given: a random order
    that is the same in every process.  The homology and all downstream
    invariants are order-independent.
    """
    gens = {g.id: g for g in C.generators}
    order = C.index
    salt = None if rng is None else rng.getrandbits(64)
    cols: dict[str, set] = {g.id: set(C.targets_of(g.id)) for g in C.generators}
    rows: dict[str, set] = {g.id: set() for g in C.generators}
    heap: list = []

    def push(x, y):
        gx, gy = gens[x], gens[y]
        if gx.f1 == gy.f1 and gx.f2 == gy.f2:
            i, j = order[x], order[y]
            rank = (gx.grading, gx.f1, gx.f2, i, j) if salt is None else hash((salt, i, j))
            heappush(heap, (rank, x, y))

    for x, targets in cols.items():
        for y in targets:
            rows[y].add(x)
            push(x, y)
    steps = []
    while heap:
        _, x, y = heappop(heap)
        if x not in cols or y not in cols[x]:
            continue  # a stale entry: x is gone or the entry was cancelled
        dx = frozenset(cols[x])
        # Gaussian elimination: every other source of y absorbs the boundary of x.
        for z in list(rows[y]):
            if z == x:
                continue
            for t in dx:
                if t in cols[z]:
                    cols[z].discard(t)
                    rows[t].discard(z)
                else:
                    cols[z].add(t)
                    rows[t].add(z)
                    push(z, t)
        for gid in (x, y):
            for t in cols[gid]:
                rows[t].discard(gid)
            for sgid in rows[gid]:
                cols[sgid].discard(gid)
        for gid in (x, y):
            del cols[gid], rows[gid], gens[gid]
        steps.append((x, y, dx - {y}))

    survivors = tuple(g for g in C.generators if g.id in gens)
    arrows = frozenset((x, y) for x, ts in cols.items() for y in ts)
    reduced = BifilteredComplex(survivors, arrows, C.mode)
    return ReductionResult(C, reduced, tuple(steps))


def is_reduced(C: BifilteredComplex) -> bool:
    for x, y in C.arrows:
        if C.by_id[x].bidegree == C.by_id[y].bidegree:
            return False
    return True


def connected_components(C: BifilteredComplex) -> list[tuple]:
    """Generator ids grouped by arrow connectivity, in generator order."""
    parent = {g.id: g.id for g in C.generators}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x, y in C.arrows:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
    groups: dict[str, list] = {}
    for g in C.generators:
        groups.setdefault(find(g.id), []).append(g.id)
    idx = C.index
    return [tuple(ids) for ids in sorted(groups.values(), key=lambda ids: idx[ids[0]])]


def subcomplex(C: BifilteredComplex, ids) -> BifilteredComplex:
    keep = set(ids)
    gens = tuple(g for g in C.generators if g.id in keep)
    arrows = frozenset((x, y) for x, y in C.arrows if x in keep and y in keep)
    return BifilteredComplex(gens, arrows, C.mode)


def is_acyclic(C: BifilteredComplex) -> bool:
    # U-localized homology is 2-periodic, so two consecutive gradings decide.
    return C.n == 0 or (homology_rank(C, 0) == 0 and homology_rank(C, 1) == 0)


def strip_acyclic(C: BifilteredComplex) -> BifilteredComplex:
    """Drop the arrow-connected components with vanishing homology."""
    keep = []
    for comp in connected_components(C):
        if not is_acyclic(subcomplex(C, comp)):
            keep.extend(comp)
    return subcomplex(C, keep)


def generator_signature(C: BifilteredComplex) -> tuple:
    """Sorted multiset of (grading, f1, f2) over all generators."""
    return tuple(sorted((g.grading, g.f1, g.f2) for g in C.generators))


def essential_signature(C: BifilteredComplex) -> tuple:
    """Signature of the non-acyclic components only."""
    return generator_signature(strip_acyclic(C))


# -- closed form ------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormOutput:
    v0_bidegree: tuple
    v0_grading: int
    tail_steps: tuple
    tail_start: tuple
    tail_homology_grading: int


def closed_form_cone_reduction(spec: StaircaseSpec) -> ClosedFormOutput:
    """Reduced involutive cone of a symmetric staircase, by cases.

    With s the sum of the first half of the steps and d the sum of its
    odd-position entries: positive staircases give a grading-1 vertex at
    (d, d) and a grading-0 tail starting at (0, s); negative ones give a
    grading-0 vertex at (-d, -d) and a grading-1 tail starting at (-s, 0).
    The tail keeps k steps when k is even and k - 1 when k is odd.
    """
    cls = classify(spec)
    k = len(spec.steps) // 2
    tail = spec.steps[:k] if k % 2 == 0 else spec.steps[:k - 1]
    if cls.sign is Sign.POSITIVE:
        return ClosedFormOutput((cls.d, cls.d), 1, tail, (0, cls.s), 0)
    return ClosedFormOutput((-cls.d, -cls.d), 0, tail, (-cls.s, 0), 1)


def materialize_closed_form(out: ClosedFormOutput) -> BifilteredComplex:
    """Build the MIN_MAX complex described by a ClosedFormOutput."""
    positive = out.tail_homology_grading == 0
    points = staircase_points(out.tail_steps, out.tail_start,
                              "right" if positive else "down")
    ids = [f"s{i}" for i in range(len(points))]
    tail = staircase_complex(points, source_parity=1 if positive else 0,
                             mode=FiltrationMode.MIN_MAX, ids=ids)
    v0 = Generator("v0", out.v0_grading, *out.v0_bidegree)
    return BifilteredComplex(tail.generators + (v0,), tail.arrows,
                             FiltrationMode.MIN_MAX)
