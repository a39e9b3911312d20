"""Folded Min/Max bifiltration, staircase involutions, and the involutive
mapping cone.

The involution swaps the two filtrations, so it only preserves bidegrees
after folding: the cone is therefore taken of a MIN_MAX complex.  Its
generators are an A copy (gradings shifted up by 1, index i) and a B copy
(index n + i) of the input; the differential is the original one on each
copy plus the block (involution + identity) from A to B.  `mapping_cone`
builds all of it.  `reduction.reduced_cone` builds the reduced cone
without it, except for an involution that is not a matching or a complex
with an arrow within one bidegree, where it reduces the whole cone.
Whether an involution is a skew-filtered chain map is checked only by the
one gate, `upsilon.involutive_cone`, and by the CLI when it reads a file,
both through `ChainMap.skew_violations`, so each map is checked once.
Everything here reads a complex's columns, its `targets` and a chain map's
`images`, the one form a `ChainMap` stores; ids are checked only by its
public constructor and read only by its `arrows` view and by messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complexes import BifilteredComplex, FiltrationMode, adjacency


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
        src, tgt = self.source.ids, self.target.ids
        return frozenset((src[i], tgt[j]) for i, ys in enumerate(self.images) for j in ys)

    @cached_property
    def skew_violations(self) -> tuple:
        """`chain_map_violations(self, skew=True)`, run once per map: the
        CLI's check of a file's involution and the cone's gate both read it."""
        return tuple(chain_map_violations(self, skew=True))


def chain_map_violations(M: ChainMap, skew: bool = False) -> list[str]:
    """Check the chain-map identity, grading preservation and filteredness.

    With skew=True the filtration check compares against the swapped
    bidegree of the source generator (the involution swaps filtrations).
    Arrow problems come sorted by (x id, y id), then commutation problems
    in generator order.
    """
    src, tgt, images = M.source, M.target, M.images
    kind = "skew-filtered" if skew else "filtered"
    b1, b2 = (src.f2, src.f1) if skew else (src.f1, src.f2)
    sid, tid, sg, tg, tf1, tf2 = src.ids, tgt.ids, src.gradings, tgt.gradings, tgt.f1, tgt.f2
    problems = []  # ((x id, y id), message), sorted before they are reported
    for x, ys in enumerate(images):
        for y in ys:
            if tg[y] != sg[x]:
                problems.append(((sid[x], tid[y]), f"{sid[x]}->{tid[y]}: grading "
                                 f"{sg[x]} -> {tg[y]} not preserved"))
            if tf1[y] > b1[x] or tf2[y] > b2[x]:
                problems.append(((sid[x], tid[y]), f"{sid[x]}->{tid[y]}: bidegree "
                                 f"{(tf1[y], tf2[y])} exceeds {(b1[x], b2[x])}, "
                                 f"not {kind}"))
    out = [msg for _, msg in sorted(problems, key=lambda p: p[0])]
    T = tgt.targets
    for gid, ts, ys in zip(sid, src.targets, images):
        diff = set()  # (dM + Md)(x), which is zero when x commutes
        for t in ts:
            diff.symmetric_difference_update(images[t])
        for y in ys:
            diff.symmetric_difference_update(T[y])
        if diff:
            out.append(f"{gid}: does not commute with the differential")
    return out


def fold(C: BifilteredComplex) -> BifilteredComplex:
    """Replace each bidegree by (min, max); the Min-Max bifiltration.  Only
    f1 and f2 are new tuples: ids, gradings and targets are C's own, so C's
    homology, which reads only those, carries over if C has computed it.
    The folded complex is kept on C, so every fold of C is the same object."""
    if C.mode is FiltrationMode.MIN_MAX:
        raise ValueError("complex is already folded")
    F = C.__dict__.get("folded")
    if F is None:
        pairs = list(zip(C.f1, C.f2))
        F = C.__dict__["folded"] = BifilteredComplex.indexed(
            C.ids, C.gradings, tuple([a if a < b else b for a, b in pairs]),
            tuple([b if a < b else a for a, b in pairs]), C.targets, FiltrationMode.MIN_MAX)
    if "homology" in C.__dict__:
        F.__dict__["homology"] = C.homology
    return F


def fold_map(M: ChainMap) -> ChainMap:
    """The same matrix between the folded complexes (fold keeps indices)."""
    return ChainMap.indexed(fold(M.source), fold(M.target), M.images)


def staircase_involution(C: BifilteredComplex) -> ChainMap:
    """The reflection matching of a symmetric staircase complex.

    Each generator is matched with the unique generator of the same grading
    and swapped bidegree, so the matching is its own inverse.  Fails when a
    generator has no unique partner; whether the matching commutes with the
    differential is checked where it is used, by `upsilon.involutive_cone`.
    """
    if C.mode is not FiltrationMode.ALG_ALEX:
        raise ValueError("involution matching needs an unfolded (ALG_ALEX) complex")
    keys = list(zip(C.gradings, C.f1, C.f2))
    index = dict(zip(keys, range(C.n)))
    images = [index.get(key) for key in zip(C.gradings, C.f2, C.f1)]
    if len(index) < C.n or None in images:  # a repeated key leaves someone two partners
        i = next(i for i, key in enumerate(zip(C.gradings, C.f2, C.f1)) if keys.count(key) != 1)
        raise ValueError(
            f"no unique reflection partner for {C.ids[i]} at {(C.f1[i], C.f2[i])}: complex is not a symmetric staircase")
    return ChainMap.indexed(C, C, tuple(zip(images)))


def mapping_cone(C: BifilteredComplex, I_map: ChainMap) -> BifilteredComplex:
    """Cone of (involution + identity) over a folded complex.

    A-copy ids are prefixed "A." and gradings raised by 1, B-copy ids
    "B.".  The boundary of an A generator i is its original boundary
    inside A plus (I + id)(i) in B, offset by n.  A constructor only: the
    involution itself is checked by `upsilon.involutive_cone`.
    """
    if C.mode is not FiltrationMode.MIN_MAX:
        raise ValueError("mapping cone requires a folded (MIN_MAX) complex")
    if I_map.source != C or I_map.target != C:
        raise ValueError("involution must be a self map of the folded complex")
    n = C.n
    targets = tuple(ts + tuple(n + y for y in sorted({*ys} ^ {i}))
                    for i, (ts, ys) in enumerate(zip(C.targets, I_map.images)))
    targets += tuple(tuple(n + t for t in ts) for ts in C.targets)
    return BifilteredComplex.indexed(*cone_columns(C.ids, C.gradings, C.f1, C.f2), targets,
                                     FiltrationMode.MIN_MAX)


def cone_columns(ids: tuple, gradings: tuple, f1: tuple, f2: tuple) -> tuple:
    """The cone's ids, gradings, f1 and f2 over these generators' columns:
    the A copy, then the B copy."""
    return (tuple([f"A.{s}" for s in ids] + [f"B.{s}" for s in ids]),
            tuple([g + 1 for g in gradings]) + gradings, f1 + f1, f2 + f2)
