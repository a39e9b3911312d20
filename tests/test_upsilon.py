from fractions import Fraction

import pytest

from involutive_upsilon import gf2
from involutive_upsilon import (BifilteredComplex, FiltrationMode,
                                Generator, PLFunction, Sign, StaircaseSpec,
                                UpsilonVariant, closed_form_cone_reduction,
                                direct_sum, fold, materialize_closed_form,
                                involutive_cone, mirror, slope_bound_check,
                                staircase_from_steps, tower_upsilon,
                                unknot_complex, upsilon, upsilon_pair_from_cone,
                                v0_invariants, validate)
from involutive_upsilon.complexes import homology_data
from involutive_upsilon.upsilon import (_forest_upsilon, _sweep_upsilon, _tower,
                                        filtration_width)
from involutive_upsilon.verify import symmetric_specs

from oracles import (brute_nu_value, oss_classic_value, padded_nu_value,
                     padded_window, semigroup_torus_steps, torus_p_p1_value,
                     window_grid)


def single(f1, f2):
    """One folded generator at (Min, Max) = (f1, f2): Upsilon is -2 deg_t."""
    return BifilteredComplex((Generator("g", 0, f1, f2),), frozenset(),
                             FiltrationMode.MIN_MAX)


def test_deg_t_spot_values():
    assert tower_upsilon(single(0, 6), 0)(Fraction(1, 2)) == -3
    for t in (0, Fraction(1, 3), 1, 2):
        assert tower_upsilon(single(2, 2), 0)(t) == -4
    assert tower_upsilon(single(1, 4), 0)(Fraction(1, 2)) == Fraction(-7, 2)


def test_deg_t_u_translate():
    # grading -6 holds the U^3 translate, three levels lower: Upsilon is 6 higher
    assert tower_upsilon(single(0, 6), -6)(Fraction(1, 2)) == -3 + 6


def test_deg_t_range_check():
    with pytest.raises(ValueError, match="outside"):
        tower_upsilon(single(0, 0), 0)(Fraction(5, 2))


def tower_terms(C, grading):
    """The (u, id) terms of the single homology representative in a grading."""
    win, reps, _ = homology_data(C, grading)
    assert len(reps) == 1
    return {win[k] for k in reps[0]}


def test_tower_witness_unknot():
    assert homology_data(fold(unknot_complex()), 0) == ([(0, "u")], [(0,)], [])


def test_tower_witness_t37_cone(t37):
    cone = involutive_cone(t37)
    for grading in (0, 1):
        assert tower_terms(cone, grading)
    # localized homology is 2-periodic: grading 2 sees the U-translate
    assert tower_terms(cone, 2) == {(u - 1, g) for u, g in tower_terms(cone, 0)}
    with pytest.raises(ValueError, match="rank"):
        tower_upsilon(fold(unknot_complex()), 1)


def test_tower_witness_rejects_rank_two():
    S = direct_sum(unknot_complex(), unknot_complex())
    with pytest.raises(ValueError, match="rank"):
        tower_upsilon(fold(S), 0)


def test_nu_t23_folded(t23):
    # both corners sit at folded bidegree (0, 1): deg_t = t/2, Upsilon = -t
    f = tower_upsilon(fold(t23), 0)
    assert f == PLFunction.from_breakpoints(((0, 0), (2, -2)))


def test_nu_t37_cone_spot_values(t37):
    cone = involutive_cone(t37)
    assert tower_upsilon(cone, 0)(Fraction(1, 2)) == -3
    assert tower_upsilon(cone, 1)(Fraction(1, 2)) == -4


def test_nu_matches_brute_oracle():
    cases = []
    for steps in ((1, 1), (1, 1, 1, 1), (2, 2)):
        for sign in Sign:
            C = staircase_from_steps(StaircaseSpec(steps, sign))
            cases.append((fold(C), 0))
            cone = involutive_cone(C)
            cases.append((cone, 0))
            cases.append((cone, 1))
    for C, grading in cases:
        f = tower_upsilon(C, grading)
        for t in (0, Fraction(1, 3), Fraction(1, 2), 1, Fraction(7, 5), 2):
            assert f(t) == -2 * brute_nu_value(C, grading, t)


def test_nu_unreduced_matches_oracle(t25):
    cone = involutive_cone(t25, reduce_cone=False)
    for grading in (0, 1):
        f = tower_upsilon(cone, grading)
        for t in (0, Fraction(1, 2), 1, Fraction(5, 3), 2):
            assert f(t) == -2 * brute_nu_value(cone, grading, t)


def test_nu_with_surviving_acyclic_summand_matches_oracle(t37):
    # the reduced T(3,7) cone keeps a four-vertex acyclic staircase whose
    # translates enter the representative coset
    red = involutive_cone(t37)
    assert red.n == 10
    for grading in (0, 1):
        f = tower_upsilon(red, grading)
        for t in (0, Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), 1,
                  Fraction(3, 2), Fraction(9, 5), 2):
            assert f(t) == -2 * brute_nu_value(red, grading, t)


def test_nu_window_padding_no_effect():
    # boundaries from the gradings two above and below the window's own
    # sources enlarge the coset; the least level must not move
    for steps in list(symmetric_specs(5))[:8]:
        stair = staircase_from_steps(StaircaseSpec(steps, Sign.POSITIVE))
        cone = involutive_cone(stair)
        for X, grading in ((cone, 0), (cone, 1), (fold(stair), 0)):
            f = tower_upsilon(X, grading)
            window = padded_window(X, grading)
            for t in window_grid(X, window[0]):
                assert f(t) == -2 * padded_nu_value(X, window, t), (steps, grading, t)


def breakpoints_and_midpoints(f):
    ts = [t for t, _ in f.breakpoints]
    return ts + [(a + b) / 2 for a, b in zip(ts, ts[1:])]


@pytest.mark.parametrize("steps", list(symmetric_specs(5)),
                         ids=lambda s: ",".join(map(str, s)))
@pytest.mark.parametrize("sign", list(Sign), ids=lambda s: s.name.lower())
def test_nu_matches_brute_oracle_on_corpus(steps, sign):
    C = staircase_from_steps(StaircaseSpec(steps, sign))
    cone = involutive_cone(C)
    for X, grading in ((fold(C), 0), (cone, 0), (cone, 1)):
        f = tower_upsilon(X, grading)
        for t in breakpoints_and_midpoints(f):
            assert f(t) == -2 * brute_nu_value(X, grading, t)


@pytest.mark.parametrize("steps, sign", [
    pytest.param(semigroup_torus_steps(5, 27), Sign.POSITIVE, id="T(5,27)"),
    pytest.param(semigroup_torus_steps(7, 40), Sign.POSITIVE, id="T(7,40)"),
    pytest.param((1, 2) * 60 + (2, 1) * 60, Sign.POSITIVE, id="[1,2]*60+[2,1]*60"),
    pytest.param((1, 2) * 1000 + (2, 1) * 1000, Sign.POSITIVE, id="[1,2]*1000+[2,1]*1000"),
    pytest.param((1, 2) * 1000 + (2, 1) * 1000, Sign.NEGATIVE, id="-[1,2]*1000+[2,1]*1000"),
])
def test_large_coset_knots(steps, sign):
    # classic and folded cosets of dimension 32, 68, 120 and 2000, cone
    # cosets of 16, 34, 60 and 1000: far past what enumerating 2^dim
    # elements can visit
    spec = StaircaseSpec(steps, sign)
    C = staircase_from_steps(spec)
    up, low = upsilon_pair_from_cone(involutive_cone(C))  # one cone for both
    closed = materialize_closed_form(closed_form_cone_reduction(spec))
    assert upsilon_pair_from_cone(closed) == (up, low)
    classic = upsilon(C, UpsilonVariant.CLASSIC)
    # the oracle is convex, so agreeing with a PL function at its breakpoints
    # and piece midpoints means agreeing everywhere
    mirrored = -1 if sign is Sign.NEGATIVE else 1  # classic Upsilon is odd under mirroring
    for t in breakpoints_and_midpoints(classic):
        assert classic(t) == mirrored * oss_classic_value(steps, t)
    mid = upsilon(C, UpsilonVariant.FOLDED)
    for t in {t for g in (low, mid, up) for t, _ in g.breakpoints}:
        assert low(t) <= mid(t) <= up(t)
    v_up, v_low = -up(2) / 2, -low(2) / 2
    assert v_up.denominator == v_low.denominator == 1
    assert slope_bound_check(up, C) and slope_bound_check(low, C)


def count_stops(monkeypatch):
    """A list that grows by one per `gf2.reduce_columns` call.  Once a
    tower's homology is cached, only the sweep calls it, once per stop."""
    stops, reduce_columns = [], gf2.reduce_columns
    monkeypatch.setattr(gf2, "reduce_columns",
                        lambda columns: stops.append(1) or reduce_columns(columns))
    return stops


def variant_tower(C, which):
    """The (complex, grading) whose tower `upsilon(C, which)` reads."""
    if which is UpsilonVariant.CLASSIC:
        return C, 0
    if which is UpsilonVariant.FOLDED:
        return fold(C), 0
    return involutive_cone(C), 0 if which is UpsilonVariant.UPPER else 1


def sweep(X, grading):
    """The elimination sweep of a tower, whichever path `tower_upsilon` takes."""
    return _sweep_upsilon(*_tower(X, grading))


@pytest.mark.parametrize("k", [250, 500])
def test_sweep_stops_once_per_piece_on_mirrors(k, monkeypatch):
    stops = count_stops(monkeypatch)
    C = staircase_from_steps(StaircaseSpec((1, 2) * k + (2, 1) * k, Sign.NEGATIVE))
    for w in UpsilonVariant:
        X, grading = variant_tower(C, w)
        f = upsilon(C, w)
        assert tower_upsilon(X, grading) == f, w  # computes X's homology
        stops.clear()
        # a forest tower: no reduce_columns call once the homology is cached
        assert tower_upsilon(X, grading) == f and not stops, w
        assert sweep(X, grading) == f, w
        assert len(stops) == len(f.pieces()), w


def test_sweep_stops_once_per_piece_on_corpus(monkeypatch):
    stops = count_stops(monkeypatch)
    pieces = dict.fromkeys(UpsilonVariant, 0)
    stopped = dict.fromkeys(UpsilonVariant, 0)
    for steps in symmetric_specs(6):
        for sign in Sign:
            C = staircase_from_steps(StaircaseSpec(steps, sign))
            for w in UpsilonVariant:
                X, grading = variant_tower(C, w)
                f = upsilon(C, w)
                assert tower_upsilon(X, grading) == f, (steps, sign, w)
                stops.clear()
                assert tower_upsilon(X, grading) == f and not stops, (steps, sign, w)
                assert sweep(X, grading) == f, (steps, sign, w)
                pieces[w] += len(f.pieces())
                stopped[w] += len(stops)
    assert stopped == pieces


@pytest.mark.parametrize("p", [*range(2, 13), 200, 800, 1600])
def test_classic_torus_p_p1_closed_form(p):
    steps = tuple(a for i in range(1, p) for a in (i, p - i))  # 1, p-1, 2, p-2, ..., p-1, 1
    classic = upsilon(staircase_from_steps(StaircaseSpec(steps)), UpsilonVariant.CLASSIC)
    assert len(classic.pieces()) == p
    # the oracles are convex: agreeing at the breakpoints and piece midpoints
    # of the engine's function means agreeing everywhere
    ts = {*breakpoints_and_midpoints(classic), *(Fraction(2 * i, p) for i in range(p + 1))}
    for t in sorted(ts):
        assert classic(t) == torus_p_p1_value(p, t), t
    if p < 13:  # the corner oracle and the semigroup steps are quadratic in p
        assert steps == semigroup_torus_steps(p, p + 1)
        for t in sorted(ts):
            assert classic(t) == oss_classic_value(steps, t), t


def odd_components(lines, base, boundaries):
    """How many components of the 2-entry columns' graph hold an odd number of
    the base's positions (relabelling, quadratic: for small towers)."""
    label = list(range(len(lines)))
    for i, j in (col for col in boundaries if len(col) == 2):
        old = label[j]
        label = [label[i] if x == old else x for x in label]
    parity = {}
    for k in base:
        parity[label[k]] = not parity.get(label[k], False)
    return sum(parity.values())


def test_forest_lower_envelope_of_many_components():
    # a negative staircase's base cycle is odd on up to nine components, so
    # its classic Upsilon is a lower envelope of up to nine upper envelopes
    most = 0
    for i, steps in enumerate(symmetric_specs(8)):
        C = staircase_from_steps(StaircaseSpec(steps, Sign.NEGATIVE))
        tower = _tower(C, 0)
        assert all(len(col) <= 2 for col in tower[2]), steps
        most = max(most, odd_components(*tower))
        f = tower_upsilon(C, 0)
        assert f == _sweep_upsilon(*tower), steps
        if i % 17 == 0 or len(steps) == 16:
            for t in breakpoints_and_midpoints(f):
                assert f(t) == -2 * brute_nu_value(C, 0, t), (steps, t)
    assert most == 9


def test_forest_freed_component():
    # an acyclic box x -> y far below T(2,3): d x = y is a 1-entry boundary
    # column, so y's component is freed and its low line never counts
    box = BifilteredComplex((Generator("x", 1, 5, 5), Generator("y", 0, 5, 5)),
                            frozenset({("x", "y")}))
    T23 = staircase_from_steps(StaircaseSpec((1, 1)))
    S = direct_sum(T23, box)
    lines, base, boundaries = _tower(S, 0)
    indices = S.homology[0][0]  # the generator at each position
    assert [col for col in boundaries if len(col) == 1] == [(indices.index(S.index["y"]),)]
    f = tower_upsilon(S, 0)
    assert f == upsilon(T23, UpsilonVariant.CLASSIC) == sweep(S, 0)
    for t in breakpoints_and_midpoints(f):
        assert f(t) == -2 * brute_nu_value(S, 0, t)
    # every cycle of the class gives the same function on both paths, also
    # one that is odd on the freed component
    for col in boundaries:
        other = sorted(set(base) ^ set(col))
        assert _forest_upsilon(lines, other, boundaries) == f
        assert _sweep_upsilon(lines, other, boundaries) == f


def test_forest_parallel_and_tied_lines():
    """Two components, A and B, of vertices in grading 0 that all hit w,
    each joined into a tree by edge generators: homology in grading 0 is the
    class of a0 + b0, odd on both.  The lines (slope, intercept) =
    (f1 - f2, -2 f1) include a repeated line, parallel lines, three lines
    through one point (t = 1 in A), two that tie at t = 0 (in B) and one
    line in both A and B; B's envelope crosses A's at t = 2/3 and meets it
    again at t = 2."""
    A = {"a0": (2, 2), "a1": (2, 2), "a2": (1, 3), "a3": (0, 4), "a4": (3, 3)}
    B = {"b0": (1, 2), "b1": (1, 4), "b2": (2, 2)}
    vertices = {**A, **B}
    gens = [Generator("w", -1, -1, -1)]
    gens += [Generator(v, 0, *bideg) for v, bideg in vertices.items()]
    arrows = {(v, "w") for v in vertices}
    for x, y in (("a0", "a1"), ("a1", "a2"), ("a3", "a2"), ("a4", "a0"),
                 ("b0", "b1"), ("b2", "b1")):
        e = f"e{x}{y}"
        gens.append(Generator(e, 1, *map(max, vertices[x], vertices[y])))
        arrows |= {(e, x), (e, y)}
    C = BifilteredComplex(tuple(gens), frozenset(arrows))
    assert validate(C).ok
    tower = _tower(C, 0)
    assert odd_components(*tower) == 2
    f = tower_upsilon(C, 0)
    assert f == PLFunction.from_breakpoints(
        ((0, -2), (Fraction(2, 3), Fraction(-8, 3)), (1, -4), (2, -4)))
    assert f == _sweep_upsilon(*tower)
    for t in breakpoints_and_midpoints(f):
        assert f(t) == -2 * brute_nu_value(C, 0, t)


def test_upsilon_classic_t23(t23):
    f = upsilon(t23, UpsilonVariant.CLASSIC)
    assert f == PLFunction.from_breakpoints(((0, 0), (1, -1), (2, 0)))


def test_upsilon_unknot():
    C = unknot_complex()
    for which in UpsilonVariant:
        assert upsilon(C, which) == PLFunction.constant(0)


def test_upsilon_folded_t37(t37):
    f = upsilon(t37, UpsilonVariant.FOLDED)
    assert f == PLFunction.from_breakpoints(((0, 0), (Fraction(2, 3), -4), (2, -4)))


def test_upsilon_reduced_and_unreduced_agree(t25, t37):
    for C in (t25, t37, mirror(t25)):
        for which in (UpsilonVariant.UPPER, UpsilonVariant.LOWER):
            assert upsilon(C, which) == upsilon(C, which, strip=True)
        unreduced = upsilon_pair_from_cone(involutive_cone(C, reduce_cone=False))
        assert unreduced == (upsilon(C, UpsilonVariant.UPPER),
                             upsilon(C, UpsilonVariant.LOWER))


def test_upsilon_requires_unfolded(t25):
    with pytest.raises(ValueError, match="ALG_ALEX"):
        upsilon(fold(t25), UpsilonVariant.FOLDED)


def test_upsilon_missing_involution():
    C = staircase_from_steps(StaircaseSpec((1, 2), Sign.POSITIVE))
    with pytest.raises(ValueError, match="symmetric staircase"):
        upsilon(C, UpsilonVariant.UPPER)


def test_upsilon_accepts_string_variant(t23):
    assert upsilon(t23, "classic") == upsilon(t23, UpsilonVariant.CLASSIC)


def test_classic_mirror_negates():
    """Υ_{−K} = −Υ_K, for the mirrored complex and for the negative staircase."""
    for steps in symmetric_specs(6):
        C = staircase_from_steps(StaircaseSpec(steps, Sign.POSITIVE))
        negated = PLFunction.from_pieces((t, (-s, -b)) for t, (s, b)
                                         in upsilon(C, UpsilonVariant.CLASSIC).pieces())
        assert upsilon(mirror(C), UpsilonVariant.CLASSIC) == negated, steps
        neg = staircase_from_steps(StaircaseSpec(steps, Sign.NEGATIVE))
        assert upsilon(neg, UpsilonVariant.CLASSIC) == negated, steps


def test_v0_goldens(t37, t23):
    assert v0_invariants(t37) == (2, 2)
    assert v0_invariants(t23) == (1, 1)
    assert v0_invariants(unknot_complex()) == (0, 0)


def test_slope_bound(t37):
    upper = upsilon(t37, UpsilonVariant.UPPER)
    lower = upsilon(t37, UpsilonVariant.LOWER)
    assert filtration_width(t37) == 6
    assert upper.slopes() == (-6, 0)
    assert slope_bound_check(upper, t37)
    assert slope_bound_check(lower, t37)
    assert slope_bound_check(PLFunction.constant(5), t37)
    steep = PLFunction.from_breakpoints(((0, 0), (2, -16)))
    assert not slope_bound_check(steep, t37)


def test_upsilon_pair_from_closed_form(t37):
    closed = materialize_closed_form(
        closed_form_cone_reduction(StaircaseSpec((1, 2, 1, 2, 2, 1, 2, 1), Sign.POSITIVE)))
    upper, lower = upsilon_pair_from_cone(closed)
    assert upper == upsilon(t37, UpsilonVariant.UPPER)
    assert lower == upsilon(t37, UpsilonVariant.LOWER)
