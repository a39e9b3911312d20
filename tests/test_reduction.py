import hashlib
import random

import pytest

from involutive_upsilon import (BifilteredComplex, FiltrationMode,
                                Generator, Sign, StaircaseSpec,
                                closed_form_cone_reduction, direct_sum, dumps_complex,
                                essential_signature, fold, fold_map,
                                homology_rank, involutive_cone, mapping_cone,
                                materialize_closed_form, reduce_bifiltered,
                                staircase_from_steps, staircase_involution,
                                steps_from_torus_knot, validate)
from involutive_upsilon import gf2
from involutive_upsilon.involutive import chain_map_violations
from involutive_upsilon.staircase import mirror
from involutive_upsilon.reduction import (generator_signature, is_reduced,
                                          strip_acyclic, subcomplex)
from involutive_upsilon.verify import (VerifySettings, _acyclic_summand, staircase_corpus,
                                       symmetric_specs)
from involutive_upsilon.upsilon import upsilon_pair_from_cone

from oracles import bfs_components, boundary_ids


def cone_of(steps, sign=Sign.POSITIVE):
    C = staircase_from_steps(StaircaseSpec(steps, sign))
    return mapping_cone(fold(C), fold_map(staircase_involution(C)))


def test_reduced_staircase_is_fixpoint(t37):
    result = reduce_bifiltered(t37)
    assert result.reduced == t37
    assert result.eliminated_pairs == ()


def test_acyclic_box_cancels():
    gens = (Generator("x", 1, 2, 3), Generator("y", 0, 2, 3))
    C = BifilteredComplex(gens, {("x", "y")}, FiltrationMode.ALG_ALEX)
    result = reduce_bifiltered(C)
    assert result.reduced.n == 0
    assert result.eliminated_pairs == (("x", "y"),)
    assert result.kept_of.images == ((), ())


def test_t37_cone_reduction_golden(t37):
    cone = cone_of((1, 2, 1, 2, 2, 1, 2, 1))
    result = reduce_bifiltered(cone)
    red = result.reduced
    assert is_reduced(red)
    assert len(result.eliminated_pairs) == 4
    assert red.n == 10
    # essential part: the [1,2,1,2] tail from (0,6) to (2,2) plus v0 at (2,2)
    assert essential_signature(red) == (
        (0, 0, 6), (0, 1, 4), (0, 2, 2), (1, 1, 6), (1, 2, 2), (1, 2, 4))
    # the rest is a four-vertex acyclic staircase
    roots = gf2.components(red.n, arrow_pairs(red))
    groups = {}
    for i, root in enumerate(roots):
        groups.setdefault(root, []).append(i)
    acyclic = [c for c in groups.values()
               if homology_rank(subcomplex(red, c), 0) == 0
               and homology_rank(subcomplex(red, c), 1) == 0]
    assert sum(len(c) for c in acyclic) == 4


def test_reduction_preserves_homology():
    for steps in ((1, 1), (1, 1, 1, 1), (2, 1, 1, 2)):
        cone = cone_of(steps)
        red = reduce_bifiltered(cone).reduced
        lo, hi = cone.grading_span()
        for g in range(lo, hi + 1):
            assert homology_rank(red, g) == homology_rank(cone, g)


def assert_kept_of_is_a_chain_map(C, result):
    """kept_of is a filtered chain map that fixes every survivor."""
    assert chain_map_violations(result.kept_of) == []
    for k, g in enumerate(result.reduced.generators):
        assert result.kept_of.images[C.index[g.id]] == (k,), g.id


def test_kept_of_is_a_chain_map():
    for steps in ((1, 1), (1, 1, 1, 1), (1, 2, 1, 2, 2, 1, 2, 1),
                  (1, 2) * 50 + (2, 1) * 50):  # the last cone has 402 generators
        cone = cone_of(steps)
        assert_kept_of_is_a_chain_map(cone, reduce_bifiltered(cone))


# The deterministic elimination order pinned down: sha256 of the reduced
# cone's JSON, the number of eliminated pairs, and the first and last pair.
REDUCTION_GOLDENS = [
    pytest.param(steps_from_torus_knot(3, 7),
                 "ec6ca8c76b5125c1159a3970062ccf38110525e414dc6dcb021803f89c7d924d",
                 4, ("A.v0", "B.v0"), ("A.v3", "B.v3"), id="T(3,7)"),
    pytest.param(steps_from_torus_knot(5, 6),
                 "263a74615510b9969a88e0943bff444ebc32602e755148db5ec2c01b302e8fb5",
                 4, ("A.v0", "B.v0"), ("A.v3", "B.v3"), id="T(5,6)"),
    pytest.param(steps_from_torus_knot(11, 60),
                 "9ed2cbbf23f18cca2e072b2f47ab7d260fba11bddd675526e87c7b438a15bbe0",
                 98, ("A.v0", "B.v0"), ("A.v97", "B.v97"), id="T(11,60)"),
    pytest.param(StaircaseSpec((1, 2) * 20 + (2, 1) * 20, Sign.POSITIVE),
                 "4b3d3de2caebaaa8f85896d39ed80b4de10362b7638f866b62f04d5c35068c4e",
                 40, ("A.v0", "B.v0"), ("A.v39", "B.v39"), id="[1,2]*20+[2,1]*20"),
    pytest.param(StaircaseSpec((1, 2, 2, 1), Sign.NEGATIVE),
                 "4115703755bf16f55e61646c459b0f621e3ffd6a2ebff3649bea3918e254d1b4",
                 2, ("A.v1", "B.v1"), ("A.v0", "B.v0"), id="steps:-:1,2,2,1"),
]


@pytest.mark.parametrize("spec,sha,n_pairs,first,last", REDUCTION_GOLDENS)
def test_reduction_goldens(spec, sha, n_pairs, first, last):
    C = staircase_from_steps(spec)
    pairs = reduce_bifiltered(cone_of(spec.steps, spec.sign)).eliminated_pairs
    assert (len(pairs), pairs[0], pairs[-1]) == (n_pairs, first, last)
    assert hashlib.sha256(dumps_complex(involutive_cone(C)).encode()).hexdigest() == sha


def _random_box(rng: random.Random, name: str, anchor: Generator):
    """An acyclic MIN_MAX summand next to `anchor`: an arrow or a square.

    Sharing bidegrees with the anchor lets the change of basis mix the box
    with the cone, so that cancellations create new equal-bidegree arrows.
    """
    gr = anchor.grading + rng.randrange(2)
    p, q = anchor.f1, anchor.f2
    if rng.random() < 0.5:
        x, y = f"{name}.x", f"{name}.y"
        d = rng.randrange(2)
        return [Generator(x, gr, p + d, q + d), Generator(y, gr - 1, p, q)], {(x, y)}
    a, b, c, d = (f"{name}.{s}" for s in "abcd")
    gens = [Generator(a, gr + 1, p + 1, q + 1), Generator(b, gr, p, q + 1),
            Generator(c, gr, p + 1, q + 1), Generator(d, gr - 1, p, q)]
    return gens, {(a, b), (a, c), (b, d), (c, d)}


def _change_basis(C: BifilteredComplex, rng: random.Random, moves: int):
    """C in a random filtered basis: `moves` replacements g <- g + h.

    Each h has g's grading and a bidegree at most g's, so every move is a
    filtered isomorphism with a filtered inverse (itself).
    """
    cols = boundary_ids(C)
    for _ in range(moves):
        g = rng.choice(C.generators)
        below = [h.id for h in C.generators if h.id != g.id and h.grading == g.grading
                 and h.f1 <= g.f1 and h.f2 <= g.f2]
        if not below:
            continue
        h = rng.choice(below)
        cols[g.id] ^= cols[h]  # d(g + h) = dg + dh
        for col in cols.values():  # old g is new g + new h
            if g.id in col:
                col ^= {h}
    arrows = {(x, y) for x, ts in cols.items() for y in ts}
    return BifilteredComplex(C.generators, arrows, C.mode)


@pytest.mark.parametrize("seed", range(40))
def test_reduction_of_perturbed_cones(seed):
    """Staircase cone plus acyclic boxes in a random basis: not a staircase."""
    rng = random.Random(seed)
    steps = rng.choice(list(symmetric_specs(4)))
    cone = cone_of(steps, rng.choice(list(Sign)))
    gens, arrows = list(cone.generators), set(cone.arrows)
    for i in range(rng.randint(1, 3)):
        box_gens, box_arrows = _random_box(rng, f"box{i}", rng.choice(cone.generators))
        gens += box_gens
        arrows |= box_arrows
    C = _change_basis(BifilteredComplex(gens, arrows, cone.mode), rng, 3 * len(gens))
    assert validate(C).ok
    lo, hi = C.grading_span()
    ranks = [homology_rank(C, g) for g in range(lo, hi + 1)]
    assert ranks == [homology_rank(cone, g) for g in range(lo, hi + 1)]
    want = upsilon_pair_from_cone(reduce_bifiltered(cone).reduced)
    for result in (reduce_bifiltered(C), reduce_bifiltered(C, rng=rng)):
        red = result.reduced
        assert is_reduced(red)
        assert [homology_rank(red, g) for g in range(lo, hi + 1)] == ranks
        assert_kept_of_is_a_chain_map(C, result)
        assert upsilon_pair_from_cone(red) == want


def test_reduction_order_independence():
    rng = random.Random(99)
    cone = cone_of((1, 2, 1, 2, 2, 1, 2, 1))
    ref = reduce_bifiltered(cone).reduced
    for _ in range(6):
        alt = reduce_bifiltered(cone, rng=rng).reduced
        assert generator_signature(alt) == generator_signature(ref)
        assert upsilon_pair_from_cone(alt) == upsilon_pair_from_cone(ref)


@pytest.mark.parametrize("steps,sign,v0_bidegree,v0_grading,tail,tail_start,tail_grading", [
    # positive, k even
    ((1, 2, 1, 2, 2, 1, 2, 1), Sign.POSITIVE, (2, 2), 1, (1, 2, 1, 2), (0, 6), 0),
    ((1, 1, 1, 1), Sign.POSITIVE, (1, 1), 1, (1, 1), (0, 2), 0),
    # positive, k odd
    ((1, 1, 1, 1, 1, 1), Sign.POSITIVE, (2, 2), 1, (1, 1), (0, 3), 0),
    ((1, 1), Sign.POSITIVE, (1, 1), 1, (), (0, 1), 0),
    # negative, k even
    ((1, 1, 1, 1), Sign.NEGATIVE, (-1, -1), 0, (1, 1), (-2, 0), 1),
    # negative, k odd
    ((1, 1, 1, 1, 1, 1), Sign.NEGATIVE, (-2, -2), 0, (1, 1), (-3, 0), 1),
])
def test_closed_form_cases(steps, sign, v0_bidegree, v0_grading, tail,
                           tail_start, tail_grading):
    out = closed_form_cone_reduction(StaircaseSpec(steps, sign))
    assert out.v0_bidegree == v0_bidegree
    assert out.v0_grading == v0_grading
    assert out.tail_steps == tail
    assert out.tail_start == tail_start
    assert out.tail_homology_grading == tail_grading
    assert out.v0_bidegree[0] == out.v0_bidegree[1]


def test_closed_form_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        closed_form_cone_reduction(StaircaseSpec((1, 2), Sign.POSITIVE))


def test_materialize_t37():
    out = closed_form_cone_reduction(StaircaseSpec((1, 2, 1, 2, 2, 1, 2, 1), Sign.POSITIVE))
    C = materialize_closed_form(out)
    assert validate(C).ok
    assert C.mode is FiltrationMode.MIN_MAX
    got = sorted((g.grading, g.f1, g.f2) for g in C.generators)
    assert got == [(0, 0, 6), (0, 1, 4), (0, 2, 2), (1, 1, 6), (1, 2, 2), (1, 2, 4)]


def test_materialize_unknot_degenerate():
    out = closed_form_cone_reduction(StaircaseSpec((), Sign.POSITIVE))
    C = materialize_closed_form(out)
    assert C.n == 2
    assert sorted((g.grading, g.f1, g.f2) for g in C.generators) == [
        (0, 0, 0), (1, 0, 0)]


def test_materialize_t25_golden():
    out = closed_form_cone_reduction(StaircaseSpec((1, 1, 1, 1), Sign.POSITIVE))
    C = materialize_closed_form(out)
    assert sorted((g.grading, g.f1, g.f2) for g in C.generators) == [
        (0, 0, 2), (0, 1, 1), (1, 1, 1), (1, 1, 2)]


def test_closed_form_matches_generic_small():
    for steps in symmetric_specs(6):
        for sign in Sign:
            spec = StaircaseSpec(steps, sign)
            cone = cone_of(steps, sign)
            red = reduce_bifiltered(cone).reduced
            closed = materialize_closed_form(closed_form_cone_reduction(spec))
            assert essential_signature(red) == generator_signature(closed), spec


def test_strip_acyclic_keeps_essential(t37):
    cone = cone_of((1, 2, 1, 2, 2, 1, 2, 1))
    red = reduce_bifiltered(cone).reduced
    stripped = strip_acyclic(red)
    assert stripped.n == 6
    assert generator_signature(stripped) == essential_signature(red)
    # stripping never changes homology
    for g in range(-1, 3):
        assert homology_rank(stripped, g) == homology_rank(red, g)


def arrow_pairs(C):
    return [(x, y) for x, ts in enumerate(C.targets) for y in ts]


def test_components_match_bfs():
    rng = random.Random(20261020)
    for trial in range(200):
        n = 0 if trial == 0 else rng.randint(1, 40)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
        pairs += rng.sample(pairs, min(len(pairs), 3))  # repeated pairs
        pairs += [(k, k) for k in rng.sample(range(n), min(n, 2))]  # self-pairs
        roots = gf2.components(n, pairs)
        assert len(roots) == n
        assert all(roots[r] == r for r in roots)  # a root is a member of its component
        groups = {}
        for k, r in enumerate(roots):
            groups.setdefault(r, set()).add(k)
        assert set(map(frozenset, groups.values())) == bfs_components(n, pairs), (n, pairs)


def test_reduce_columns_rows_and_kernel():
    """The one elimination serves the homology (its kernel and the columns
    its rows name) and the Upsilon sweep (its rows and their combinations);
    checked against brute-force spans on seeded small inputs, with zero and
    repeated columns given as tuples, lists and sets of positions.  A column
    that takes its pivot untouched is stored as given, with (i,) as its
    combination, a zero column's kernel vector is (i,), and no column given
    is changed."""
    rng = random.Random(20261021)
    for _ in range(300):
        cols = [rng.sample(range(10), rng.randint(0, 10)) for _ in range(rng.randint(0, 10))]
        if cols:
            cols[rng.randrange(len(cols))] = []
            cols[rng.randrange(len(cols))] = list(cols[rng.randrange(len(cols))])
        given = [rng.choice((tuple, list, set))(c) for c in cols]
        kernel, rows = gf2.reduce_columns(given)
        assert given == [type(g)(c) for g, c in zip(given, cols)]  # the input is not changed

        def xor(combo):
            out = set()
            for i in combo:
                out ^= set(cols[i])
            return out

        span, grew = {frozenset()}, []  # grew: the columns that enlarge the span of those before
        for i, c in enumerate(map(frozenset, cols)):
            if c not in span:
                grew.append(i)
                span |= {v ^ c for v in span}
        assert len(rows) == len(span).bit_length() - 1, cols
        assert [max(combo) for _, combo in rows.values()] == grew, cols
        for top, (row, combo) in rows.items():
            assert max(row) == top and xor(combo) == set(row), cols
        assert len(kernel) + len(rows) == len(cols)
        assert sorted(max(z) for z in kernel) == sorted(set(range(len(cols))) - set(grew)), cols
        assert all(z and xor(z) == set() for z in kernel), cols
        for i, c in enumerate(cols):  # untouched: no row stored before column i has c's top
            before = {top for top, (_, combo) in rows.items() if max(combo) < i}
            untouched = bool(c) and max(c) not in before
            assert any(row is given[i] and combo == (i,) for row, combo in rows.values()) \
                == untouched, cols
            assert (not c) == ((i,) in kernel), cols


def test_strip_keeps_every_component_with_homology(t23, t25):
    """Stripping sums of several knots and acyclic summands keeps exactly
    the components that a per-component homology computation calls
    non-acyclic, however many there are."""
    lone = BifilteredComplex.indexed(("g",), (1,), (0,), (0,), ((),), FiltrationMode.ALG_ALEX)
    rng = random.Random(24)
    several = 0
    for trial in range(40):
        parts = rng.sample([t23, t25, mirror(t25), lone], rng.randint(1, 4))
        for _ in range(rng.randint(0, 4)):  # boxes and squares, off the diagonal in pairs
            gr, a, b = rng.randrange(-2, 3), rng.randrange(-3, 4), rng.randrange(-3, 4)
            parts.append(_acyclic_summand(gr, a, b, square=rng.random() < 0.5)[0])
        rng.shuffle(parts)
        C = parts[0]
        for part in parts[1:]:
            C = direct_sum(C, part)
        live = [comp for comp in bfs_components(C.n, arrow_pairs(C))
                if homology_rank(subcomplex(C, comp), 0) + homology_rank(subcomplex(C, comp), 1)]
        several += len(live) > 1
        kept = sorted(i for comp in live for i in comp)
        stripped = strip_acyclic(C)
        assert stripped.ids == tuple(C.ids[i] for i in kept)
        assert stripped == subcomplex(C, kept)
        assert essential_signature(C) == generator_signature(subcomplex(C, kept))
    assert several > 20


def test_strip_reduces_columns_once(monkeypatch, t37):
    """Stripping reads the complex's one homology reduction (one column
    reduction per parity), however many components it has."""
    C = involutive_cone(t37)
    for k in range(50):
        C = direct_sum(C, fold(_acyclic_summand(k % 3, k % 5, k % 5, square=True)[0]))
    calls, real = [], gf2.reduce_columns
    monkeypatch.setattr(gf2, "reduce_columns", lambda cols: calls.append(1) or real(cols))
    stripped = strip_acyclic(C)
    assert len(calls) == 2
    assert stripped.n == strip_acyclic(involutive_cone(t37)).n


def test_strip_carries_its_homology(monkeypatch, t37):
    """The stripped complex carries the input's homology, re-indexed: the
    triples its own reduction gives, on the knots, cones and reduced cones
    of `staircase_corpus` with seeded boxes and squares summed on either
    side.  So Upsilon off a stripped cone reduces no column again."""
    rng = random.Random(26)
    for spec in staircase_corpus(VerifySettings(max_steps=6)):
        C = staircase_from_steps(spec)
        for X in (C, involutive_cone(C, reduce_cone=False), involutive_cone(C)):
            for _ in range(rng.randint(0, 3)):
                gr, a, b = rng.randrange(-2, 3), rng.randrange(-3, 4), rng.randrange(-3, 4)
                Z = _acyclic_summand(gr, a, b, square=rng.random() < 0.5)[0]
                Z = Z if X.mode is FiltrationMode.ALG_ALEX else fold(Z)
                X = direct_sum(X, Z) if rng.random() < 0.5 else direct_sum(Z, X)
            S = strip_acyclic(X)
            fresh = BifilteredComplex.indexed(S.ids, S.gradings, S.f1, S.f2, S.targets, S.mode)
            assert S.homology == fresh.homology, (spec, X.mode)
    calls, real = [], gf2.reduce_columns
    monkeypatch.setattr(gf2, "reduce_columns", lambda cols: calls.append(1) or real(cols))
    upsilon_pair_from_cone(involutive_cone(t37, strip=True))
    assert len(calls) == 2
