"""Acceptance suite: criteria 1-7, then one case per `verify` check.

Everything is exact rational arithmetic; "agreement" always means equality
of PLFunction breakpoints, never approximate comparison.  The checks are
the ones `involutive-upsilon verify` runs, with its default settings;
criteria 1 and 4-6 are those checks, called by name.
"""

import random
import time
from pathlib import Path

import pytest

from involutive_upsilon import (ChainMap, Sign, StaircaseSpec, UpsilonVariant,
                                direct_sum, essential_signature,
                                involutive_cone, materialize_closed_form,
                                closed_form_cone_reduction, reduce_bifiltered,
                                staircase_from_steps, staircase_involution,
                                upsilon, upsilon_pair_from_cone)
from involutive_upsilon.reduction import generator_signature
from involutive_upsilon.verify import (CHECKS, VerifySettings, _acyclic_summand,
                                       corpus_knots, symmetric_specs,
                                       torus_knot_corpus)

# seconds per check, filled by test_verify_check for the suite budget
SECONDS = {}


def report(n, label, ok=True):
    print(f"ACCEPTANCE {n} [{label}]: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok


def test_criterion_1_t37_goldens():
    start = time.perf_counter()
    dict(CHECKS)["T(3,7)-goldens"](VerifySettings())
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    report(1, "T(3,7) golden values, exact, <1s")


def test_criterion_2_closed_form_agreement():
    start = time.perf_counter()
    cases = 0
    for steps in symmetric_specs(10):
        for sign in (Sign.POSITIVE, Sign.NEGATIVE):
            spec = StaircaseSpec(steps, sign)
            stair = staircase_from_steps(spec)
            cone = involutive_cone(stair, reduce_cone=False)
            red = reduce_bifiltered(cone).reduced
            closed = materialize_closed_form(closed_form_cone_reduction(spec))
            assert essential_signature(red) == generator_signature(closed), spec
            # upper/lower computed per engine; classic/folded have a single
            # engine-independent definition and enter both result vectors
            assert upsilon_pair_from_cone(red) == upsilon_pair_from_cone(closed), spec
            upsilon(stair, UpsilonVariant.CLASSIC)
            upsilon(stair, UpsilonVariant.FOLDED)
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 2046
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    report(2, f"closed form = generic reduction on {cases} symmetric staircases, <1min")


def test_criterion_3_small_torus_knot_goldens():
    start = time.perf_counter()
    expected = {
        ((1, 1, 1, 1), Sign.POSITIVE): ((1, 1), 1, (1, 1), (0, 2)),
        ((1, 1, 1, 1, 1, 1), Sign.POSITIVE): ((2, 2), 1, (1, 1), (0, 3)),
        ((1, 1, 1, 1), Sign.NEGATIVE): ((-1, -1), 0, (1, 1), (-2, 0)),
        ((1, 1, 1, 1, 1, 1), Sign.NEGATIVE): ((-2, -2), 0, (1, 1), (-3, 0)),
    }
    for (steps, sign), (v0_bd, v0_gr, tail, tail_start) in expected.items():
        out = closed_form_cone_reduction(StaircaseSpec(steps, sign))
        assert out.v0_bidegree == v0_bd and out.v0_grading == v0_gr
        assert out.tail_steps == tail and out.tail_start == tail_start
        red = reduce_bifiltered(
            involutive_cone(staircase_from_steps(StaircaseSpec(steps, sign)),
                            reduce_cone=False)).reduced
        assert essential_signature(red) == generator_signature(
            materialize_closed_form(out))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    report(3, "reduced cones of T(2,5), T(2,7), -T(2,5), -T(2,7) match their golden data, <1s")


def test_criterion_4_tower_structure():
    # engine-agreement's corpus holds every torus knot of torus_knot_corpus(35)
    # and checks the two towers and the rank-sum identity on each cone
    dict(CHECKS)["engine-agreement"](VerifySettings())
    report(4, f"two towers + rank-sum identity for {len(torus_knot_corpus(35))} torus knots")


def test_criterion_5_inequality_chain():
    dict(CHECKS)["upsilon-ordering"](VerifySettings())
    report(5, f"lower <= folded <= upper on the /12 grid for {len(corpus_knots(35))} "
              f"corpus knots")


def test_criterion_6_v0_relation():
    dict(CHECKS)["v0-relation"](VerifySettings())
    dict(CHECKS)["T(3,7)-goldens"](VerifySettings())  # V0(T(3,7)) = (2, 2)
    report(6, f"V0 = -1/2 Upsilon(2), integral on {len(corpus_knots(35))} knots; "
              f"T(3,7) gives (2, 2)")


def test_criterion_7_acyclic_summand_invariance():
    rng = random.Random(20260808)
    knots = [(label, C) for label, C in corpus_knots(21) if label != "unknot"]
    for label, C in knots:
        base_inv = staircase_involution(C)
        base = {w: upsilon(C, w, base_inv) for w in UpsilonVariant}
        for _ in range(20):
            # one shared Random; a diagonal box is (b, b), where verify's is (a, a)
            gr, a, b = rng.randrange(-2, 3), rng.randrange(-4, 5), rng.randrange(-4, 5)
            Z, z_inv = _acyclic_summand(gr, b if rng.random() < 0.5 else a, b)
            S = direct_sum(C, Z)
            inv = ChainMap(S, S, frozenset(set(base_inv.arrows) | z_inv))
            for w in UpsilonVariant:
                assert upsilon(S, w, inv) == base[w], (label, w)
    report(7, f"20 random acyclic summands per knot leave all Upsilons "
              f"unchanged ({len(knots)} knots)")


def _timed_check(name, check):
    start = time.perf_counter()
    detail = check(VerifySettings())
    SECONDS[name] = time.perf_counter() - start
    return detail


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_verify_check(name, check):
    detail = _timed_check(name, check)
    print(f"  verify/{name}: ok {detail} ({SECONDS[name]:.2f}s)", flush=True)


def test_readme_check_table_matches_checks():
    """README's `verify` table lists the checks of `CHECKS`, in order."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = lines.index("| check | what it compares |") + 2  # past the rule
    names = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        names.append(line.split("|")[1].strip().strip("`"))
    assert names == [name for name, _ in CHECKS]


def test_criterion_9_property_suites():
    for name, check in CHECKS:
        if name not in SECONDS:  # its case was deselected
            _timed_check(name, check)
    elapsed = sum(SECONDS.values())
    assert elapsed < 120.0, f"verify took {elapsed:.1f}s, budget 120s"
    report(9, f"all {len(CHECKS)} verify checks green in {elapsed:.1f}s (<2min)")
