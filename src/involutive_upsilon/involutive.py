"""Folded Min/Max bifiltration, staircase involutions, and the involutive
mapping cone.

The involution swaps the two filtrations, so it only preserves bidegrees
after folding: the cone is therefore always built on a MIN_MAX complex.
Its generators are an A copy (gradings shifted up by 1, index i) and a B
copy (index n + i) of the input; the differential is the original one on
each copy plus the block (involution + identity) from A to B.  Everything
here reads integer adjacency: a complex's `targets` and a chain map's
`images`, the one form a `ChainMap` stores; ids are checked only by its
public constructor and read only by its `arrows` view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complexes import BifilteredComplex, FiltrationMode, Generator, adjacency


@dataclass(frozen=True, init=False)
class ChainMap:
    """An F2 chain map, stored as `images[i]`: the sorted target indices in
    the image of source generator i.  The constructor takes and checks (x, y)
    id pairs, y in the image of x, and `arrows` is that derived view;
    internal producers use `indexed`, which checks nothing.
    """

    source: BifilteredComplex
    target: BifilteredComplex
    images: tuple

    def __init__(self, source, target, arrows):
        images, bad = adjacency(arrows, source.index, target.index)
        if bad and bad[0] not in source.index:
            raise ValueError(f"chain map source id {bad[0]!r} unknown")
        if bad:
            raise ValueError(f"chain map target id {bad[1]!r} unknown")
        self.__dict__.update(source=source, target=target, images=images)

    @classmethod
    def indexed(cls, source: BifilteredComplex, target: BifilteredComplex, images: tuple):
        """The index constructor: `images` as stored, nothing checked."""
        M = cls.__new__(cls)
        M.__dict__.update(source=source, target=target, images=images)
        return M

    @cached_property
    def arrows(self) -> frozenset:
        """The map as (x, y) id pairs."""
        src, tgt = self.source.generators, self.target.generators
        return frozenset((src[i].id, tgt[j].id) for i, ys in enumerate(self.images) for j in ys)


def chain_map_violations(M: ChainMap, skew: bool = False) -> list[str]:
    """Check the chain-map identity, grading preservation and filteredness.

    With skew=True the filtration check compares against the swapped
    bidegree of the source generator (the involution swaps filtrations).
    Arrow problems come sorted by (x id, y id), then commutation problems
    in generator order.
    """
    src, tgt, images = M.source, M.target, M.images
    kind = "skew-filtered" if skew else "filtered"
    problems = []  # ((x id, y id), message), sorted before they are reported
    for gx, ys in zip(src.generators, images):
        bound = (gx.f2, gx.f1) if skew else (gx.f1, gx.f2)
        for gy in [tgt.generators[y] for y in ys]:
            arrow = f"{gx.id}->{gy.id}"
            if gy.grading != gx.grading:
                problems.append(((gx.id, gy.id), f"{arrow}: grading {gx.grading} -> "
                                 f"{gy.grading} not preserved"))
            if gy.f1 > bound[0] or gy.f2 > bound[1]:
                problems.append(((gx.id, gy.id), f"{arrow}: bidegree {gy.bidegree} "
                                 f"exceeds {bound}, not {kind}"))
    out = [msg for _, msg in sorted(problems, key=lambda p: p[0])]
    for g, ts, ys in zip(src.generators, src.targets, images):
        lhs: set = set()
        for t in ts:
            lhs.symmetric_difference_update(images[t])
        rhs: set = set()
        for y in ys:
            rhs.symmetric_difference_update(tgt.targets[y])
        if lhs != rhs:
            out.append(f"{g.id}: does not commute with the differential")
    return out


def is_involution(M: ChainMap) -> bool:
    if M.source is not M.target and M.source != M.target:
        return False
    for i, ys in enumerate(M.images):
        acc: set = set()
        for y in ys:
            acc.symmetric_difference_update(M.images[y])
        if acc != {i}:
            return False
    return True


def fold(C: BifilteredComplex) -> BifilteredComplex:
    """Replace each bidegree by (min, max); the Min-Max bifiltration."""
    if C.mode is FiltrationMode.MIN_MAX:
        raise ValueError("complex is already folded")
    gens = tuple(Generator(g.id, g.grading, min(g.f1, g.f2), max(g.f1, g.f2))
                 for g in C.generators)
    return BifilteredComplex.indexed(gens, C.targets, FiltrationMode.MIN_MAX)


def fold_map(M: ChainMap) -> ChainMap:
    """The same matrix between the folded complexes (fold keeps indices)."""
    return ChainMap.indexed(fold(M.source), fold(M.target), M.images)


def staircase_involution(C: BifilteredComplex) -> ChainMap:
    """The reflection involution of a symmetric staircase complex.

    Each generator is matched with the unique generator of the same grading
    and swapped bidegree; the result is verified to be a skew-filtered chain
    involution.  Fails on complexes without that symmetry.
    """
    if C.mode is not FiltrationMode.ALG_ALEX:
        raise ValueError("involution matching needs an unfolded (ALG_ALEX) complex")
    lookup: dict[tuple, list] = {}
    for i, g in enumerate(C.generators):
        lookup.setdefault((g.grading, g.f1, g.f2), []).append(i)
    images = []
    for g in C.generators:
        partners = lookup.get((g.grading, g.f2, g.f1), [])
        if len(partners) != 1:
            raise ValueError(
                f"no unique reflection partner for {g.id} at {g.bidegree}: complex is not a symmetric staircase")
        images.append(tuple(partners))
    M = ChainMap.indexed(C, C, tuple(images))
    problems = chain_map_violations(M, skew=True)
    if problems:
        raise ValueError("reflection is not a skew chain map: " + "; ".join(problems))
    if not is_involution(M):
        raise ValueError("reflection matching is not an involution")
    return M


def mapping_cone(C: BifilteredComplex, I_map: ChainMap) -> BifilteredComplex:
    """Cone of (involution + identity) over a folded complex.

    A-copy ids are prefixed "A.", B-copy ids "B.".  The boundary of an
    A generator i is its original boundary inside A plus (I + id)(i) in B,
    offset by n.
    """
    if C.mode is not FiltrationMode.MIN_MAX:
        raise ValueError("mapping cone requires a folded (MIN_MAX) complex")
    if I_map.source != C or I_map.target != C:
        raise ValueError("involution must be a self map of the folded complex")
    problems = chain_map_violations(I_map, skew=False)
    if problems:
        raise ValueError("involution is not a filtered chain map: " + "; ".join(problems))
    n = C.n
    gens = tuple(Generator(f"A.{g.id}", g.grading + 1, g.f1, g.f2) for g in C.generators)
    gens += tuple(Generator(f"B.{g.id}", g.grading, g.f1, g.f2) for g in C.generators)
    targets = tuple(ts + tuple(n + y for y in sorted({*ys} ^ {i}))
                    for i, (ts, ys) in enumerate(zip(C.targets, I_map.images)))
    targets += tuple(tuple(n + t for t in ts) for ts in C.targets)
    return BifilteredComplex.indexed(gens, targets, FiltrationMode.MIN_MAX)
