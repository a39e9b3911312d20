"""Bifiltered Gaussian elimination, the reduced involutive cone, and the
closed-form cone reduction.

`reduce_bifiltered` repeatedly cancels differential entries between
generators of identical bidegree; the result is reduced (every surviving
entry strictly drops the bidegree somewhere), homology-preserving, and
bifiltered homotopy equivalent to the input.  It works on generator
indices and the bidegree columns: cancellable entries wait in a heap,
heapified from the input's and fed by each elimination, and the step log
holds indices.  Ids are read only by `eliminated_pairs`; `kept_of`, the
forward change-of-basis chain map, is replayed from the log on request.

`reduced_cone` is what `reduce_bifiltered` makes of an involutive mapping
cone.  When the involution is a matching and the folded complex's arrows
drop the bidegree strictly, it builds that result directly, as a Schur
complement over the generators that survive, without the whole cone or
the heap; any other input goes through both.

`strip_acyclic` drops the acyclic arrow-connected components, found by
one union-find (`gf2.components`) and read off the complex's one cached
homology reduction, which it carries over to what it keeps.

`closed_form_cone_reduction` is the combinatorial shortcut for the reduced
involutive cone of a symmetric staircase: a single diagonal vertex plus a
half-length staircase tail, in four cases by sign and the parity of the
half-length k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush

from . import gf2
from .complexes import BifilteredComplex, FiltrationMode
from .involutive import ChainMap, cone_columns, mapping_cone
from .staircase import Sign, StaircaseSpec, classify, staircase_complex, staircase_points


@dataclass(frozen=True)
class ReductionResult:
    """The reduced complex and its step log: (x, y, rho) cancelled the entry
    x -> y, where rho was the rest of the boundary of x at that moment; all
    three are generator indices of `source`."""

    source: BifilteredComplex
    reduced: BifilteredComplex
    steps: tuple

    @property
    def eliminated_pairs(self) -> tuple:
        """The cancelled entries as (x, y) id pairs, in order."""
        ids = self.source.ids
        return tuple((ids[x], ids[y]) for x, y, _ in self.steps)

    @cached_property
    def kept_of(self) -> ChainMap:
        """The chain map from `source` to `reduced`, replayed backwards: a
        survivor maps to itself, a cancelled x to 0 and a cancelled y to the
        image of its rho."""
        image = [frozenset((i,)) for i in range(self.source.n)]
        for x, y, rho in reversed(self.steps):
            image[x] = image[y] = frozenset()
            for r in rho:
                image[y] ^= image[r]
        cancelled = {i for x, y, _ in self.steps for i in (x, y)}
        new = {i: k for k, i in enumerate(i for i in range(self.source.n) if i not in cancelled)}
        return ChainMap.indexed(self.source, self.reduced,
                                tuple(tuple(sorted(new[i] for i in ys)) for ys in image))


def reduce_bifiltered(C: BifilteredComplex, rng=None) -> ReductionResult:
    """Cancel equal-bidegree differential entries until none remain.

    The entry to cancel is the least by (grading, bidegree, generator
    order), or by a hash salted from `rng` when it is given: a random order
    that is the same in every process.  The homology and all downstream
    invariants are order-independent.
    """
    gr, f1, f2 = C.gradings, C.f1, C.f2
    salt = None if rng is None else rng.getrandbits(64)
    cols = [set(ts) for ts in C.targets]  # None once a generator is cancelled
    rows = [set() for _ in gr]

    def entry(x, y):
        return ((gr[x], f1[x], f2[x]) if salt is None else hash((salt, x, y))), x, y

    # keys are distinct, so the pop order does not depend on how the heap was filled
    heap = [entry(x, y) for x, ts in enumerate(C.targets) for y in ts
            if f1[x] == f1[y] and f2[x] == f2[y]]
    heapify(heap)
    for x, ts in enumerate(C.targets):
        for y in ts:
            rows[y].add(x)
    steps = []
    while heap:
        _, x, y = heappop(heap)
        if cols[x] is None or y not in cols[x]:
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
                    if f1[z] == f1[t] and f2[z] == f2[t]:
                        heappush(heap, entry(z, t))
        for g in (x, y):
            for t in cols[g]:
                rows[t].discard(g)
            for s in rows[g]:
                cols[s].discard(g)
        cols[x] = rows[x] = cols[y] = rows[y] = None
        steps.append((x, y, dx - {y}))

    keep = [i for i, ts in enumerate(cols) if ts is not None]
    new = {i: k for k, i in enumerate(keep)}
    targets = tuple(tuple(sorted(new[t] for t in cols[i])) for i in keep)
    return ReductionResult(C, _picked(C, keep, targets), tuple(steps))


def reduced_cone(F: BifilteredComplex, I: ChainMap) -> BifilteredComplex:
    """`reduce_bifiltered(mapping_cone(F, I)).reduced`, built over the
    survivors alone when the involution I of the folded complex F is a
    matching.

    I is a matching when every image is one generator j with I(j) = i, as
    for every staircase, mirror and staircase-plus-boxes file.  The direct
    path also needs partners to share grading and bidegree, and every arrow
    of F to drop the bidegree strictly (weakly in both levels, and not to
    an equal bidegree); all three are checked here, in O(n + arrows).  Any
    other input, such as an involution with I(a) = a + x or a file with an
    arrow between equal bidegrees, goes through the whole cone.

    Why the two agree.  Number the cone as `mapping_cone` does, A_i = i and
    B_i = n + i, write dz for F's boundary of z read in either copy, and let
    X = {A_i : i < I(i)}, Y = {B_i : i < I(i)} and R the rest.

    1. The cone's equal-bidegree entries are exactly A_i -> B_i and
       A_i -> B_I(i) with I(i) != i, since the arrows within a copy are F's.
    2. The four such entries of a pair i < j = I(i) share one heap key, and
       ties go by source, then target, so `reduce_bifiltered` pops
       A_i -> B_i first.
    3. Cancelling it adds d(A_i) = di + B_i + B_j to the other sources of
       B_i: to A_j, which loses B_j, and to each B_z with i in dz.  Every
       entry added drops the bidegree strictly, so nothing is pushed; the
       pair's other entries are then stale, and no other pair's entries
       change.  So the pivots are X x Y, with A_i paired to B_i.
    4. Eliminating a fixed pivot set leaves the Schur complement
       d_RR + d_RX d_YX^-1 d_YR on R, in any order, and d_YX is the
       identity.  Over F2, with "- X" dropping X's generators:

           d'(A_j) = dj - X                  when I(j) = j,
           d'(A_j) = (dj + dI(j)) - X        when j > I(j),
           d'(B_z) = (dz - Y) + the sum over i in dz with i < I(i)
                     of (di - X) + B_I(i).

    R keeps the cone's order, ids, gradings and bidegrees, so the result
    is the generic one, byte for byte when dumped.
    """
    f1, f2, T, n = F.f1, F.f2, F.targets, F.n
    partner = [ys[0] for ys in I.images if len(ys) == 1]
    key = list(zip(F.gradings, f1, f2))
    matched = (len(partner) == n and [partner[j] for j in partner] == list(range(n))
               and [key[j] for j in partner] == key)
    # weakly lower in both levels, so a smaller sum means a different bidegree
    if not matched or not all(f1[y] <= f1[x] and f2[y] <= f2[x] and f1[y] + f2[y] < f1[x] + f2[x]
                              for x, ts in enumerate(T) for y in ts):
        return reduce_bifiltered(mapping_cone(F, I)).reduced
    kept = [i for i, j in enumerate(partner) if j <= i]
    m, pos = len(kept), [None] * n
    for k, i in enumerate(kept):
        pos[i] = k
    # what A_k and B_k become in R: themselves if kept, else 0 and the rest
    # of d(A_k), the two columns of step 4
    a_col = [() if p is None else (p,) for p in pos]
    b_col = [(m + p,) if p is not None else
             (*[c for k in T[i] for c in a_col[k]], m + pos[partner[i]])
             for i, p in enumerate(pos)]
    targets = [_sum(a_col, T[j] if partner[j] == j else T[j] + T[partner[j]]) for j in kept]
    targets += [_sum(b_col, T[z]) for z in kept]
    return BifilteredComplex.indexed(
        *cone_columns(*(tuple(c[i] for i in kept) for c in (F.ids, F.gradings, f1, f2))),
        tuple(targets), FiltrationMode.MIN_MAX)


def _sum(cols: list, ks) -> tuple:
    """The F2 sum of the columns at the indices ks, as a sorted tuple."""
    return tuple(sorted(gf2.column_sum(cols, ks)))


def _picked(C: BifilteredComplex, keep: list, targets: tuple) -> BifilteredComplex:
    """C's generators at the indices `keep`, with `targets` over their new indices."""
    return BifilteredComplex.indexed(*(tuple(col[i] for i in keep) for col in
                                       (C.ids, C.gradings, C.f1, C.f2)), targets, C.mode)


def is_reduced(C: BifilteredComplex) -> bool:
    f1, f2 = C.f1, C.f2
    return all(f1[x] != f1[y] or f2[x] != f2[y] for x, ts in enumerate(C.targets) for y in ts)


def subcomplex(C: BifilteredComplex, indices) -> BifilteredComplex:
    """The generators at the given indices, in generator order, and the
    arrows between them."""
    keep = sorted(set(indices))
    new = {i: k for k, i in enumerate(keep)}
    return _picked(C, keep, tuple(tuple(new[t] for t in C.targets[i] if t in new) for i in keep))


def strip_acyclic(C: BifilteredComplex) -> BifilteredComplex:
    """Drop the arrow-connected components with vanishing homology: keep
    those holding the leading generator of a representative of C's own
    `homology`, in either parity.  That is the acyclic test, since:
    1. a column and its positions lie in one component, and reducing it
       XORs it only with the row led by its current leading position, so
       every row and kernel vector, and so every representative, does too;
    2. projecting onto a component is a chain map, so the representatives
       within a component span its homology;
    3. so a component is acyclic exactly when it holds no representative
       of either parity, the homology being 2-periodic.
    By 1, the kept columns' reduction is C's restricted to them, so the
    result carries C's homology, re-indexed, as `fold` does.
    """
    roots = gf2.components(C.n, ((x, y) for x, ts in enumerate(C.targets) for y in ts))
    live = {roots[indices[z[-1]]] for indices, reps, _ in C.homology for z in reps}
    S = subcomplex(C, [i for i, root in enumerate(roots) if root in live])
    homology = []
    for p, (indices, reps, boundaries) in enumerate(C.homology):
        new = {k: j for j, k in enumerate(k for k, i in enumerate(indices) if roots[i] in live)}
        homology.append((tuple(i for i, g in enumerate(S.gradings) if g % 2 == p),
                         [tuple(map(new.get, z)) for z in reps],
                         [tuple(map(new.get, b)) for b in boundaries if b[0] in new]))
    S.__dict__["homology"] = tuple(homology)
    return S


def generator_signature(C: BifilteredComplex) -> tuple:
    """Sorted multiset of (grading, f1, f2) over all generators."""
    return tuple(sorted(zip(C.gradings, C.f1, C.f2)))


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
    a, b = out.v0_bidegree
    return BifilteredComplex.indexed(tail.ids + ("v0",), tail.gradings + (out.v0_grading,),
                                     tail.f1 + (a,), tail.f2 + (b,), tail.targets + ((),),
                                     tail.mode)
