import random
from fractions import Fraction

import pytest

from involutive_upsilon import (BifilteredComplex, ChainMap, FiltrationMode,
                                Generator, PLFunction, Sign, StaircaseSpec,
                                UpsilonVariant, direct_sum, fold,
                                involutive_cone, mirror, nu_function,
                                slope_bound_check, staircase_from_steps,
                                staircase_involution, unknot_complex, upsilon, upsilon_pair_from_cone,
                                v0_invariants)
from involutive_upsilon.complexes import homology_data
from involutive_upsilon.upsilon import filtration_width
from involutive_upsilon.verify import symmetric_specs

from oracles import (brute_nu_value, oss_classic_value, padded_nu_value,
                     padded_window, semigroup_torus_steps, window_grid)

GRID = [Fraction(j, 12) for j in range(25)]


def single(f1, f2):
    """One folded generator at (Min, Max) = (f1, f2): nu is its deg_t."""
    return BifilteredComplex((Generator("g", 0, f1, f2),), frozenset(),
                             FiltrationMode.MIN_MAX)


def test_deg_t_spot_values():
    assert nu_function(single(0, 6), 0)(Fraction(1, 2)) == Fraction(3, 2)
    for t in (0, Fraction(1, 3), 1, 2):
        assert nu_function(single(2, 2), 0)(t) == 2
    assert nu_function(single(1, 4), 0)(Fraction(1, 2)) == Fraction(7, 4)


def test_deg_t_u_translate():
    # grading -6 holds the U^3 translate, three levels lower
    assert nu_function(single(0, 6), -6)(Fraction(1, 2)) == Fraction(3, 2) - 3


def test_deg_t_range_check():
    with pytest.raises(ValueError, match="outside"):
        nu_function(single(0, 0), 0)(Fraction(5, 2))


def tower_terms(C, grading):
    """The (u, id) terms of the single homology representative in a grading."""
    win, reps, _ = homology_data(C, grading)
    assert len(reps) == 1
    return {term for i, term in enumerate(win) if reps[0] >> i & 1}


def test_tower_witness_unknot():
    assert homology_data(fold(unknot_complex()), 0) == ([(0, "u")], [1], [])


def test_tower_witness_t37_cone(t37):
    cone = involutive_cone(t37)
    for grading in (0, 1):
        assert tower_terms(cone, grading)
    # localized homology is 2-periodic: grading 2 sees the U-translate
    assert tower_terms(cone, 2) == {(u - 1, g) for u, g in tower_terms(cone, 0)}
    with pytest.raises(ValueError, match="rank"):
        nu_function(fold(unknot_complex()), 1)


def test_tower_witness_rejects_rank_two():
    S = direct_sum(unknot_complex(), unknot_complex())
    with pytest.raises(ValueError, match="rank"):
        nu_function(fold(S), 0)


def test_nu_t23_folded(t23):
    # both corners sit at folded bidegree (0, 1): nu(t) = t/2
    f = nu_function(fold(t23), 0)
    assert f == PLFunction(((0, 0), (2, 1)))


def test_nu_requires_folded(t23):
    with pytest.raises(ValueError, match="MIN_MAX"):
        nu_function(t23, 0)


def test_nu_t37_cone_spot_values(t37):
    cone = involutive_cone(t37)
    assert nu_function(cone, 0)(Fraction(1, 2)) == Fraction(3, 2)
    assert nu_function(cone, 1)(Fraction(1, 2)) == 2


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
        f = nu_function(C, grading)
        for t in (0, Fraction(1, 3), Fraction(1, 2), 1, Fraction(7, 5), 2):
            assert f(t) == brute_nu_value(C, grading, t)


def test_nu_unreduced_matches_oracle(t25):
    cone = involutive_cone(t25, reduce_cone=False)
    for grading in (0, 1):
        f = nu_function(cone, grading)
        for t in (0, Fraction(1, 2), 1, Fraction(5, 3), 2):
            assert f(t) == brute_nu_value(cone, grading, t)


def test_nu_with_surviving_acyclic_summand_matches_oracle(t37):
    # the reduced T(3,7) cone keeps a four-vertex acyclic staircase whose
    # translates enter the representative coset
    red = involutive_cone(t37)
    assert red.n == 10
    for grading in (0, 1):
        f = nu_function(red, grading)
        for t in (0, Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), 1,
                  Fraction(3, 2), Fraction(9, 5), 2):
            assert f(t) == brute_nu_value(red, grading, t)


def test_nu_window_padding_no_effect():
    # boundaries from the gradings two above and below the window's own
    # sources enlarge the coset; the least level must not move
    for steps in list(symmetric_specs(5))[:8]:
        stair = staircase_from_steps(StaircaseSpec(steps, Sign.POSITIVE))
        cone = involutive_cone(stair)
        for X, grading in ((cone, 0), (cone, 1), (fold(stair), 0)):
            f = nu_function(X, grading)
            window = padded_window(X, grading)
            for t in window_grid(X, window[0]):
                assert f(t) == padded_nu_value(X, window, t), (steps, grading, t)


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
        f = nu_function(X, grading)
        for t in breakpoints_and_midpoints(f):
            assert f(t) == brute_nu_value(X, grading, t)


@pytest.mark.parametrize("steps", [
    pytest.param(semigroup_torus_steps(5, 27), id="T(5,27)"),
    pytest.param(semigroup_torus_steps(7, 40), id="T(7,40)"),
    pytest.param((1, 2) * 60 + (2, 1) * 60, id="[1,2]*60+[2,1]*60"),
])
def test_large_coset_knots(steps):
    # classic and folded cosets of dimension 32, 68 and 120, cone cosets of
    # 16, 34 and 60: far past what enumerating 2^dim elements can visit
    C = staircase_from_steps(StaircaseSpec(steps, Sign.POSITIVE))
    f = {w: upsilon(C, w) for w in UpsilonVariant}
    classic = f[UpsilonVariant.CLASSIC]
    # the oracle is convex, so agreeing with a PL function at its breakpoints
    # and piece midpoints means agreeing everywhere
    for t in breakpoints_and_midpoints(classic):
        assert classic(t) == oss_classic_value(steps, t)
    low, mid, up = (f[UpsilonVariant.LOWER], f[UpsilonVariant.FOLDED],
                    f[UpsilonVariant.UPPER])
    for t in {t for g in (low, mid, up) for t, _ in g.breakpoints}:
        assert low(t) <= mid(t) <= up(t)
    v_up, v_low = v0_invariants(C)
    assert (v_up, v_low) == (-up(2) / 2, -low(2) / 2)
    assert v_up.denominator == v_low.denominator == 1
    for w in (UpsilonVariant.UPPER, UpsilonVariant.LOWER):
        assert slope_bound_check(f[w], C)


def test_upsilon_classic_t23(t23):
    f = upsilon(t23, UpsilonVariant.CLASSIC)
    assert f == PLFunction(((0, 0), (1, -1), (2, 0)))


def test_upsilon_unknot():
    C = unknot_complex()
    for which in UpsilonVariant:
        assert upsilon(C, which) == PLFunction.constant(0)


def test_upsilon_folded_t37(t37):
    f = upsilon(t37, UpsilonVariant.FOLDED)
    assert f == PLFunction(((0, 0), (Fraction(2, 3), -4), (2, -4)))


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


def test_ordering_on_grid(t37, t25):
    for C in (t37, t25, mirror(t37), unknot_complex()):
        low = upsilon(C, UpsilonVariant.LOWER)
        mid = upsilon(C, UpsilonVariant.FOLDED)
        up = upsilon(C, UpsilonVariant.UPPER)
        for t in GRID:
            assert low(t) <= mid(t) <= up(t)


def test_classic_mirror_negates():
    """Υ_{−K} = −Υ_K, for the mirrored complex and for the negative staircase."""
    for steps in symmetric_specs(6):
        C = staircase_from_steps(StaircaseSpec(steps, Sign.POSITIVE))
        negated = upsilon(C, UpsilonVariant.CLASSIC).scale(-1)
        assert upsilon(mirror(C), UpsilonVariant.CLASSIC) == negated, steps
        neg = staircase_from_steps(StaircaseSpec(steps, Sign.NEGATIVE))
        assert upsilon(neg, UpsilonVariant.CLASSIC) == negated, steps


def test_v0_goldens(t37, t23):
    assert v0_invariants(t37) == (2, 2)
    assert v0_invariants(t23) == (1, 1)
    assert v0_invariants(unknot_complex()) == (0, 0)


def test_v0_equals_upsilon_at_two(t25):
    up = upsilon(t25, UpsilonVariant.UPPER)
    low = upsilon(t25, UpsilonVariant.LOWER)
    v_up, v_low = v0_invariants(t25)
    assert v_up == -up(2) / 2
    assert v_low == -low(2) / 2


def test_slope_bound(t37):
    upper = upsilon(t37, UpsilonVariant.UPPER)
    lower = upsilon(t37, UpsilonVariant.LOWER)
    assert filtration_width(t37) == 6
    assert upper.slopes() == (-6, 0)
    assert slope_bound_check(upper, t37)
    assert slope_bound_check(lower, t37)
    assert slope_bound_check(PLFunction.constant(5), t37)
    steep = PLFunction(((0, 0), (2, -16)))
    assert not slope_bound_check(steep, t37)


def test_acyclic_summand_invariance(t25):
    base_inv = staircase_involution(t25)
    base = {w: upsilon(t25, w) for w in UpsilonVariant}
    rng = random.Random(20260808)
    for _ in range(10):
        a = rng.randrange(-3, 4)
        Z = BifilteredComplex(
            (Generator("x", 1, a, a), Generator("y", 0, a, a)),
            {("x", "y")}, FiltrationMode.ALG_ALEX)
        S = direct_sum(t25, Z)
        arrows = set(base_inv.arrows) | {("x", "x"), ("y", "y")}
        inv = ChainMap(S, S, frozenset(arrows))
        for w in UpsilonVariant:
            assert upsilon(S, w, inv) == base[w]


def test_upsilon_pair_from_closed_form(t37):
    from involutive_upsilon import closed_form_cone_reduction, materialize_closed_form
    closed = materialize_closed_form(
        closed_form_cone_reduction(StaircaseSpec((1, 2, 1, 2, 2, 1, 2, 1), Sign.POSITIVE)))
    upper, lower = upsilon_pair_from_cone(closed)
    assert upper == upsilon(t37, UpsilonVariant.UPPER)
    assert lower == upsilon(t37, UpsilonVariant.LOWER)
