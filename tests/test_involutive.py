import json
import random

import pytest

from involutive_upsilon import (BifilteredComplex, ChainMap, FiltrationMode,
                                Generator, Sign, StaircaseSpec, dumps_complex,
                                fold, fold_map, homology_rank, involutive_cone,
                                loads_complex, mapping_cone,
                                staircase_from_steps, staircase_involution,
                                unknot_complex, upsilon, UpsilonVariant, validate)
from involutive_upsilon.cli import build_knot, parse_knot_spec
from involutive_upsilon.involutive import chain_map_violations
from involutive_upsilon.verify import VerifySettings, staircase_corpus, symmetric_specs
from oracles import chain_map_messages


def test_fold_reflected_pair(t37):
    F = fold(t37)
    assert (F.f1[F.index["v0"]], F.f2[F.index["v0"]]) == (0, 6)
    assert (F.f1[F.index["v8"]], F.f2[F.index["v8"]]) == (0, 6)
    assert F.mode is FiltrationMode.MIN_MAX
    assert validate(F).ok


def test_fold_diagonal_fixed():
    C = BifilteredComplex((Generator("g", 0, 3, 3),), frozenset(),
                          FiltrationMode.ALG_ALEX)
    assert (fold(C).f1, fold(C).f2) == ((3,), (3,))


def test_fold_t25_half_plane(t25):
    F = fold(t25)
    assert all(g.f1 <= g.f2 for g in F.generators)


def test_fold_twice_rejected(t25):
    with pytest.raises(ValueError, match="already folded"):
        fold(fold(t25))


def test_fold_carries_computed_homology_over():
    C = staircase_from_steps(StaircaseSpec((1, 2, 2, 1)))
    assert "homology" not in fold(C).__dict__  # folding never computes it
    homology = C.homology
    F = fold(C)
    assert F.__dict__["homology"] is homology
    unshared = BifilteredComplex.indexed(F.ids, F.gradings, F.f1, F.f2, F.targets, F.mode)
    assert F.homology == unshared.homology


def test_reflection_t37(t37):
    M = staircase_involution(t37)
    v = t37.index
    assert M.images[v["v0"]] == (v["v8"],)
    assert M.images[v["v8"]] == (v["v0"],)
    assert M.images[v["v4"]] == (v["v4"],)  # central generator is fixed
    assert chain_map_violations(M, skew=True) == []


def test_reflection_squares_to_identity():
    for steps in symmetric_specs(4):
        for sign in Sign:
            C = staircase_from_steps(StaircaseSpec(steps, sign))
            images = staircase_involution(C).images
            for i, (j,) in enumerate(images):
                assert images[j] == (i,)


def test_reflection_rejects_asymmetric():
    C = staircase_from_steps(StaircaseSpec((1, 2), Sign.POSITIVE))
    with pytest.raises(ValueError, match="symmetric staircase"):
        staircase_involution(C)


def test_cone_over_unknot():
    C = unknot_complex()
    I = staircase_involution(C)
    cone = mapping_cone(fold(C), fold_map(I))
    assert cone.n == 2
    assert cone.arrows == frozenset()  # involution + identity vanishes
    got = {(g.grading, g.f1, g.f2) for g in cone.generators}
    assert got == {(1, 0, 0), (0, 0, 0)}
    assert homology_rank(cone, 0) == 1 and homology_rank(cone, 1) == 1


def test_cone_t37_shape(t37):
    cone = mapping_cone(fold(t37), fold_map(staircase_involution(t37)))
    assert cone.n == 18
    assert validate(cone).ok
    # the A-to-B block is involution + identity: fixed generators give no arrow
    assert not any(y == "B.v4" for x, y in cone.arrows if x == "A.v4")
    assert ("A.v0", "B.v0") in cone.arrows and ("A.v0", "B.v8") in cone.arrows


def test_cone_rejects_unfolded(t25):
    I = staircase_involution(t25)
    with pytest.raises(ValueError, match="folded"):
        mapping_cone(t25, I)


def test_cone_rejects_unfiltered_involution(t25):
    # map v0 onto the connector above it: not filtration preserving
    bad = ChainMap(t25, t25, frozenset({("v0", "v1"), ("v1", "v0")} |
                                       {(f"v{i}", f"v{i}") for i in (2, 3, 4)}))
    with pytest.raises(ValueError, match="skew-filtered chain map"):
        involutive_cone(t25, bad)


def test_cone_rejects_the_identity_on_the_trefoil(t23):
    """The identity is a filtered chain map but not a skew-filtered one, so
    every route through `involutive_cone` rejects it."""
    identity = ChainMap(t23, t23, {(g, g) for g in t23.ids})
    with pytest.raises(ValueError, match="v0->v0: bidegree .* not skew-filtered"):
        involutive_cone(t23, identity)
    with pytest.raises(ValueError, match="not a skew-filtered chain map"):
        upsilon(t23, UpsilonVariant.LOWER, identity)


def test_reflection_matching_that_is_not_a_chain_map():
    """Unique partners (x <-> y, z fixed), but d x = z while d y = 0: the
    matching is returned as it is, and the cone gate rejects it."""
    C = BifilteredComplex((Generator("x", 1, 0, 1), Generator("y", 1, 1, 0),
                           Generator("z", 0, 0, 0)), frozenset({("x", "z")}),
                          FiltrationMode.ALG_ALEX)
    assert staircase_involution(C).images == ((1,), (0,), (2,))
    with pytest.raises(ValueError, match="x: does not commute with the differential"):
        upsilon(C, UpsilonVariant.UPPER)


def test_chain_map_violation_reports():
    C = staircase_from_steps(StaircaseSpec((1, 1), Sign.POSITIVE))
    F = fold(C)
    not_chain = ChainMap(F, F, frozenset({("v0", "v2"), ("v2", "v0")} |
                                         {("v1", "v0")}))
    assert any("commute" in v for v in chain_map_violations(not_chain))


def test_cone_routes_agree(tmp_path):
    """The traced route (fold the map separately) and `involutive_cone`
    (fold once, reuse the involution's indices) dump the same cone."""
    from test_cli import UNSORTED_COMPLEX
    path = tmp_path / "unsorted.json"
    path.write_text(json.dumps(UNSORTED_COMPLEX))
    for spec in ("torus:3,7", "-torus:3,7", f"file:{path}"):
        C, M = build_knot(parse_knot_spec(spec))
        assert ChainMap(C, C, M.arrows).images == M.images
        assert fold_map(M).images is M.images
        assert (dumps_complex(mapping_cone(fold(C), fold_map(M)))
                == dumps_complex(involutive_cone(C, M, reduce_cone=False))), spec


def test_involutive_cone_rejects_a_map_on_another_complex(t25, t37):
    with pytest.raises(ValueError, match="self map of the knot complex"):
        involutive_cone(t37, staircase_involution(t25))


def test_chain_map_violations_order():
    """Arrow problems by (x id, y id), whatever the generator order, then
    commutation problems in generator order (q, z, k, b, a, m, c)."""
    from test_cli import UNSORTED_COMPLEX
    C, _ = loads_complex(json.dumps(UNSORTED_COMPLEX))
    M = ChainMap(C, C, {("q", "c"), ("b", "m"), ("a", "z"), ("b", "c"), ("q", "q")})
    assert chain_map_violations(M, skew=True) == [
        "a->z: bidegree (0, 2) exceeds (1, 1), not skew-filtered",
        "b->m: grading 0 -> 1 not preserved",
        "b->m: bidegree (1, 2) exceeds (0, 2), not skew-filtered",
        "q->c: grading 1 -> 0 not preserved",
        "q->q: bidegree (2, 1) exceeds (1, 2), not skew-filtered",
        "q: does not commute with the differential",
        "b: does not commute with the differential",
        "m: does not commute with the differential"]


def _perturbed_involutions(rng):
    """Staircase involutions of `staircase_corpus` with one image moved or
    added, one arrow of d flipped, or one grading or bidegree broken."""
    for spec in staircase_corpus(VerifySettings()):
        C = staircase_from_steps(spec)
        if not spec.symmetric or C.n < 3:
            continue
        images = list(staircase_involution(C).images)
        cols = [list(C.gradings), list(C.f1), list(C.f2)]
        targets = list(C.targets)
        i, j = rng.randrange(C.n), rng.randrange(C.n)
        kind = rng.choice(("move", "add", "flip", "column"))
        if kind == "move":
            images[i] = (j,)
        elif kind == "add":
            images[i] = tuple(sorted({*images[i], j}))
        elif kind == "flip":
            targets[i] = tuple(sorted({*targets[i]} ^ {j}))
        else:
            cols[rng.randrange(3)][i] += rng.choice((-1, 1))
        D = BifilteredComplex.indexed(C.ids, *map(tuple, cols), tuple(targets), C.mode)
        yield ChainMap.indexed(D, D, tuple(images))


def test_skew_gate_reports_what_the_check_reports():
    """On seeded perturbations of staircase involutions and on the
    figure-eight-shaped (a -> a + x), T(2,3)+arrow and T(2,3)+square files,
    each also with one involution pair dropped, the gate's cached
    `skew_violations` is `chain_map_violations(M, skew=True)` message for
    message, and both are what an oracle reading id pairs reports."""
    from test_cli import FIGURE_EIGHT_SHAPED, T23_PLUS_ARROW, T23_PLUS_SQUARE
    maps = list(_perturbed_involutions(random.Random(28)))
    for doc in (FIGURE_EIGHT_SHAPED, T23_PLUS_ARROW, T23_PLUS_SQUARE):
        C, arrows = loads_complex(json.dumps(doc))
        maps += [ChainMap(C, C, arrows), ChainMap(C, C, arrows - {min(arrows)})]
    assert len(maps) >= 200
    failing = 0
    for M in maps:
        expected = chain_map_messages(M, skew=True)
        assert M.skew_violations == tuple(chain_map_violations(M, skew=True))
        assert list(M.skew_violations) == expected, M.source.ids
        failing += bool(expected)
    assert 100 <= failing < len(maps), failing


def test_chain_map_reports_the_least_unknown_id(t25):
    with pytest.raises(ValueError, match="source id 'a' unknown"):
        ChainMap(t25, t25, {("v0", "zz"), ("b", "v1"), ("a", "v0")})
    with pytest.raises(ValueError, match="target id 'zz' unknown"):
        ChainMap(t25, t25, {("v0", "zz"), ("v1", "ab"), ("v3", "a")})
