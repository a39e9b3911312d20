import math

import pytest

from involutive_upsilon import (Pointing, Sign,
                                StaircaseSpec, classify,
                                homology_rank, mirror,
                                staircase_from_steps, steps_from_torus_knot,
                                unknot_complex, validate)

from oracles import semigroup_torus_steps


def coords(C):
    return [(g.f1, g.f2) for g in C.generators]


def gradings(C):
    return [g.grading for g in C.generators]


@pytest.mark.parametrize("p,q,steps", [
    (3, 7, (1, 2, 1, 2, 2, 1, 2, 1)),
    (2, 5, (1, 1, 1, 1)),
    (2, 7, (1, 1, 1, 1, 1, 1)),
    (2, 3, (1, 1)),
    (3, 4, (1, 2, 2, 1)),
    (3, 5, (1, 2, 1, 1, 2, 1)),
])
def test_torus_steps_goldens(p, q, steps):
    spec = steps_from_torus_knot(p, q)
    assert spec.steps == steps
    assert spec.sign is Sign.POSITIVE


def test_torus_steps_match_semigroup_oracle():
    small = [(p, q) for p in range(2, 45) for q in range(p + 1, 2000 // p + 1)
             if math.gcd(p, q) == 1]
    # and the long torus knots of the reduce-long benchmark workload
    for p, q in small + [(11, 60), (3, 200), (7, 101), (2, 301), (11, 81), (13, 70)]:
        spec = steps_from_torus_knot(p, q)
        assert spec.steps == semigroup_torus_steps(p, q)
        assert spec.symmetric
        assert sum(spec.steps) == (p - 1) * (q - 1)


@pytest.mark.parametrize("p", [*range(2, 13), 1000])
def test_torus_steps_consecutive(p):
    # the semigroup <p, p+1> has gaps in runs of length p-1, p-2, ..., 1
    steps = steps_from_torus_knot(p, p + 1).steps
    assert steps == tuple(a for k in range(1, p) for a in (k, p - k))


@pytest.mark.parametrize("p,q,msg", [
    (2, 4, "coprime"),
    (1, 5, "2 <= p < q"),
    (5, 3, "2 <= p < q"),
    (3, 3, "2 <= p < q"),
])
def test_torus_steps_rejects(p, q, msg):
    with pytest.raises(ValueError, match=msg):
        steps_from_torus_knot(p, q)


def test_single_step_staircase():
    C = staircase_from_steps(StaircaseSpec((1,), Sign.POSITIVE))
    assert C.n == 2
    assert len(C.arrows) == 1
    assert validate(C).ok


def test_t37_coordinates(t37):
    assert coords(t37) == [(0, 6), (1, 6), (1, 4), (2, 4), (2, 2),
                           (4, 2), (4, 1), (6, 1), (6, 0)]
    assert gradings(t37) == [0, 1, 0, 1, 0, 1, 0, 1, 0]
    assert (t37.f1[t37.index["v0"]], t37.f2[t37.index["v0"]]) == (0, 6)
    assert homology_rank(t37, 0) == 1


def test_t25_staircase_coordinates(t25):
    assert coords(t25) == [(0, 2), (1, 2), (1, 1), (2, 1), (2, 0)]
    assert t25.n == 5


def test_staircase_homology_rank_one_both_signs():
    # even step counts give an odd number of vertices and rank-one homology
    for steps in ((1, 1), (2, 3), (2, 1, 1, 2), (1, 2, 1, 2, 2, 1, 2, 1)):
        for sign in Sign:
            C = staircase_from_steps(StaircaseSpec(steps, sign))
            assert validate(C).ok
            assert homology_rank(C, 0) == 1
            assert homology_rank(C, 1) == 0 and homology_rank(C, -1) == 0


def test_odd_step_count_staircase_is_acyclic():
    # an even number of vertices pairs off completely
    C = staircase_from_steps(StaircaseSpec((1, 2, 1), Sign.POSITIVE))
    assert validate(C).ok
    assert homology_rank(C, 0) == 0 and homology_rank(C, 1) == 0


def test_staircase_rejects_bad_steps():
    with pytest.raises(ValueError, match="at least one step"):
        staircase_from_steps(StaircaseSpec((), Sign.POSITIVE))
    with pytest.raises(ValueError, match="positive"):
        StaircaseSpec((1, 0, 1), Sign.POSITIVE)
    with pytest.raises(ValueError, match="positive"):
        StaircaseSpec((1, -2), Sign.POSITIVE)


def test_mirror_is_an_involution(t25):
    assert mirror(mirror(t25)) == t25


def test_mirror_t25_golden(t25):
    M = mirror(t25)
    assert coords(M) == [(0, -2), (-1, -2), (-1, -1), (-2, -1), (-2, 0)]
    assert gradings(M) == [0, -1, 0, -1, 0]
    assert M.arrows == frozenset({("v0", "v1"), ("v2", "v1"), ("v2", "v3"), ("v4", "v3")})
    assert validate(M).ok


def test_mirror_homology(t37):
    M = mirror(t37)
    assert homology_rank(M, 0) == 1
    assert homology_rank(M, 1) == 0


def test_mirror_requires_unfolded(t25):
    from involutive_upsilon import fold
    with pytest.raises(ValueError, match="ALG_ALEX"):
        mirror(fold(t25))


def test_classify_t37():
    cls = classify(StaircaseSpec((1, 2, 1, 2, 2, 1, 2, 1), Sign.POSITIVE))
    assert (cls.s, cls.d) == (6, 2)
    assert cls.pointing is Pointing.INWARD  # length 8 is 0 mod 4


def test_classify_t25():
    cls = classify(StaircaseSpec((1, 1, 1, 1), Sign.POSITIVE))
    assert (cls.s, cls.d) == (2, 1)
    assert cls.pointing is Pointing.INWARD


def test_classify_negative_t27():
    cls = classify(StaircaseSpec((1, 1, 1, 1, 1, 1), Sign.NEGATIVE))
    assert (cls.s, cls.d) == (3, 2)
    assert cls.pointing is Pointing.INWARD  # length 6 is 2 mod 4


def test_classify_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        classify(StaircaseSpec((1, 2), Sign.POSITIVE))
    with pytest.raises(ValueError, match="not symmetric"):
        classify(StaircaseSpec((1, 2, 1), Sign.POSITIVE))  # odd edge count


def test_unknot_complex():
    C = unknot_complex()
    assert C.n == 1 and validate(C).ok
    g = C.generators[0]
    assert (g.grading, g.f1, g.f2) == (0, 0, 0)
