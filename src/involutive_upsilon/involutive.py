"""Folded Min/Max bifiltration, staircase involutions, and the involutive
mapping cone.

The involution swaps the two filtrations, so it only preserves bidegrees
after folding: the cone is therefore always built on a MIN_MAX complex.
Its generators are an A copy (gradings shifted up by 1) and a B copy of the
input; the differential is the original one on each copy plus the block
(involution + identity) from A to B.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .complexes import BifilteredComplex, FiltrationMode, Generator


@dataclass(frozen=True)
class ChainMap:
    """An F2 chain map given by its matrix on generators.

    `arrows` holds (x, y) pairs meaning y appears in the image of x.
    """

    source: BifilteredComplex
    target: BifilteredComplex
    arrows: frozenset

    def __post_init__(self):
        object.__setattr__(self, "arrows", frozenset(self.arrows))
        for x, y in self.arrows:
            if x not in self.source.by_id:
                raise ValueError(f"chain map source id {x!r} unknown")
            if y not in self.target.by_id:
                raise ValueError(f"chain map target id {y!r} unknown")

    @cached_property
    def _images(self) -> Mapping[str, frozenset]:
        out: dict[str, set] = {g.id: set() for g in self.source.generators}
        for x, y in self.arrows:
            out[x].add(y)
        return {k: frozenset(v) for k, v in out.items()}

    def image_of(self, gid: str) -> frozenset:
        return self._images[gid]


def chain_map_violations(M: ChainMap, skew: bool = False) -> list[str]:
    """Check the chain-map identity, grading preservation and filteredness.

    With skew=True the filtration check compares against the swapped
    bidegree of the source generator (the involution swaps filtrations).
    """
    out = []
    for x, y in sorted(M.arrows):
        gx, gy = M.source.by_id[x], M.target.by_id[y]
        if gy.grading != gx.grading:
            out.append(f"{x}->{y}: grading {gx.grading} -> {gy.grading} not preserved")
        bound = (gx.f2, gx.f1) if skew else (gx.f1, gx.f2)
        if gy.f1 > bound[0] or gy.f2 > bound[1]:
            kind = "skew-filtered" if skew else "filtered"
            out.append(f"{x}->{y}: bidegree {gy.bidegree} exceeds {bound}, not {kind}")
    for g in M.source.generators:
        lhs: set = set()
        for t in M.source.targets_of(g.id):
            lhs ^= M.image_of(t)
        rhs: set = set()
        for y in M.image_of(g.id):
            rhs ^= M.target.targets_of(y)
        if lhs != rhs:
            out.append(f"{g.id}: does not commute with the differential")
    return out


def is_involution(M: ChainMap) -> bool:
    if M.source is not M.target and M.source != M.target:
        return False
    for g in M.source.generators:
        acc: set = set()
        for y in M.image_of(g.id):
            acc ^= M.image_of(y)
        if acc != {g.id}:
            return False
    return True


def fold(C: BifilteredComplex) -> BifilteredComplex:
    """Replace each bidegree by (min, max); the Min-Max bifiltration."""
    if C.mode is FiltrationMode.MIN_MAX:
        raise ValueError("complex is already folded")
    gens = tuple(Generator(g.id, g.grading, min(g.f1, g.f2), max(g.f1, g.f2))
                 for g in C.generators)
    return BifilteredComplex(gens, C.arrows, FiltrationMode.MIN_MAX)


def fold_map(M: ChainMap) -> ChainMap:
    return ChainMap(fold(M.source), fold(M.target), M.arrows)


def staircase_involution(C: BifilteredComplex) -> ChainMap:
    """The reflection involution of a symmetric staircase complex.

    Each generator is matched with the unique generator of the same grading
    and swapped bidegree; the result is verified to be a skew-filtered chain
    involution.  Fails on complexes without that symmetry.
    """
    if C.mode is not FiltrationMode.ALG_ALEX:
        raise ValueError("involution matching needs an unfolded (ALG_ALEX) complex")
    lookup: dict[tuple, list] = {}
    for g in C.generators:
        lookup.setdefault((g.grading, g.f1, g.f2), []).append(g.id)
    arrows = set()
    for g in C.generators:
        partners = lookup.get((g.grading, g.f2, g.f1), [])
        if len(partners) != 1:
            raise ValueError(
                f"no unique reflection partner for {g.id} at {g.bidegree}: complex is not a symmetric staircase")
        arrows.add((g.id, partners[0]))
    M = ChainMap(C, C, frozenset(arrows))
    problems = chain_map_violations(M, skew=True)
    if problems:
        raise ValueError("reflection is not a skew chain map: " + "; ".join(problems))
    if not is_involution(M):
        raise ValueError("reflection matching is not an involution")
    return M


def mapping_cone(C: BifilteredComplex, I_map: ChainMap) -> BifilteredComplex:
    """Cone of (involution + identity) over a folded complex.

    A-copy ids are prefixed "A.", B-copy ids "B.".  The boundary of an
    A generator is its original boundary inside A plus (I + id) of it in B.
    """
    if C.mode is not FiltrationMode.MIN_MAX:
        raise ValueError("mapping cone requires a folded (MIN_MAX) complex")
    if I_map.source != C or I_map.target != C:
        raise ValueError("involution must be a self map of the folded complex")
    problems = chain_map_violations(I_map, skew=False)
    if problems:
        raise ValueError("involution is not a filtered chain map: " + "; ".join(problems))
    gens = [Generator(f"A.{g.id}", g.grading + 1, g.f1, g.f2) for g in C.generators]
    gens += [Generator(f"B.{g.id}", g.grading, g.f1, g.f2) for g in C.generators]
    arrows = set()
    for x, y in C.arrows:
        arrows.add((f"A.{x}", f"A.{y}"))
        arrows.add((f"B.{x}", f"B.{y}"))
    for g in C.generators:
        for y in I_map.image_of(g.id) ^ {g.id}:
            arrows.add((f"A.{g.id}", f"B.{y}"))
    return BifilteredComplex(tuple(gens), frozenset(arrows), FiltrationMode.MIN_MAX)
