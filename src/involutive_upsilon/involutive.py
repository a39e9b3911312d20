"""Folded Min/Max bifiltration, staircase involutions, and the involutive
mapping cone.

The involution swaps the two filtrations, so it only preserves bidegrees
after folding: the cone is therefore always built on a MIN_MAX complex.
Its generators are an A copy (gradings shifted up by 1, index i) and a B
copy (index n + i) of the input; the differential is the original one on
each copy plus the block (involution + identity) from A to B.  Everything
here reads integer adjacency: a complex's `targets` and a chain map's
`images`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complexes import BifilteredComplex, FiltrationMode, Generator


@dataclass(frozen=True)
class ChainMap:
    """An F2 chain map given by its matrix on generators.

    `arrows` holds (x, y) id pairs meaning y appears in the image of x;
    `images` is its index view, which the algorithms read.
    """

    source: BifilteredComplex
    target: BifilteredComplex
    arrows: frozenset

    def __post_init__(self):
        object.__setattr__(self, "arrows", frozenset(self.arrows))
        for x, y in self.arrows:
            if x not in self.source.index:
                raise ValueError(f"chain map source id {x!r} unknown")
            if y not in self.target.index:
                raise ValueError(f"chain map target id {y!r} unknown")

    @cached_property
    def images(self) -> tuple:
        """images[i]: the sorted target indices in the image of source generator i."""
        src, tgt = self.source.index, self.target.index
        out = [[] for _ in self.source.generators]
        for x, y in self.arrows:
            out[src[x]].append(tgt[y])
        return tuple(tuple(sorted(ys)) for ys in out)


def chain_map_violations(M: ChainMap, skew: bool = False) -> list[str]:
    """Check the chain-map identity, grading preservation and filteredness.

    With skew=True the filtration check compares against the swapped
    bidegree of the source generator (the involution swaps filtrations).
    """
    src, tgt, images = M.source, M.target, M.images
    out = []
    for x, y in sorted(M.arrows):
        gx, gy = src.generators[src.index[x]], tgt.generators[tgt.index[y]]
        if gy.grading != gx.grading:
            out.append(f"{x}->{y}: grading {gx.grading} -> {gy.grading} not preserved")
        bound = (gx.f2, gx.f1) if skew else (gx.f1, gx.f2)
        if gy.f1 > bound[0] or gy.f2 > bound[1]:
            kind = "skew-filtered" if skew else "filtered"
            out.append(f"{x}->{y}: bidegree {gy.bidegree} exceeds {bound}, not {kind}")
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
