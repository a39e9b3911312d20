"""The benchmark's own checks must pass right answers and reject wrong ones.

    PYTHONPATH=src python3 -m pytest -q upsilon_bench
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus  # noqa: E402
import oracle  # noqa: E402
from involutive_upsilon import (StaircaseSpec, UpsilonVariant, dumps_complex,  # noqa: E402
                                involutive_cone, staircase_from_steps, steps_from_torus_knot,
                                upsilon)
from involutive_upsilon.render import plfunction_csv  # noqa: E402

T37 = (1, 2, 1, 2, 2, 1, 2, 1)


def shifted(f, i=1, by=Fraction(1, 3)):
    pts = list(f)
    pts[i] = (pts[i][0], pts[i][1] + by)
    return tuple(pts)


def functions(steps):
    C = staircase_from_steps(StaircaseSpec(steps))
    return {v.value: tuple(upsilon(C, v).breakpoints) for v in UpsilonVariant}


def test_torus_steps_match_the_library():
    for p, q in ((2, 3), (3, 7), (5, 6), (9, 19), (11, 60)):
        assert oracle.torus_steps(p, q) == steps_from_torus_knot(p, q).steps


def test_t_p_p1_formula_matches_oss_formula():
    for p in range(2, 9):
        assert oracle.torus_p_p1(p) == oracle.oss_classic(oracle.torus_steps(p, p + 1), 1)


def test_enumeration_and_elimination_agree():
    for steps in ((1, 1), T37, (2, 1, 1, 2), (1, 3, 2, 2, 3, 1)):
        for sign in (1, -1):
            C, inv = oracle.knot_complex(steps, sign, ((1, 0), (2, 1)))
            for X, grading in ((C, 0), (oracle.fold(C), 0),
                               (oracle.cone(C, inv), 0), (oracle.cone(C, inv), 1)):
                T = oracle.tower(X, grading)
                for j in range(9):
                    t = Fraction(j, 4)
                    assert oracle.level_by_enumeration(T, t) == oracle.level_by_elimination(T, t)


def test_oss_check_passes_t37_and_rejects_a_shifted_breakpoint():
    f = functions(T37)["classic"]
    oracle.check_equal("T(3,7)", f, oracle.oss_classic(T37, 1))
    with pytest.raises(oracle.CheckFailure):
        oracle.check_equal("T(3,7)", shifted(f), oracle.oss_classic(T37, 1))


def test_t_p_p1_check_rejects_a_shifted_breakpoint():
    f = tuple(upsilon(staircase_from_steps(steps_from_torus_knot(5, 6)),
                      UpsilonVariant.CLASSIC).breakpoints)
    oracle.check_equal("T(5,6)", f, oracle.torus_p_p1(5))
    with pytest.raises(oracle.CheckFailure):
        oracle.check_equal("T(5,6)", shifted(f, 2), oracle.torus_p_p1(5))


@pytest.mark.parametrize("which", ["classic", "folded", "upper", "lower"])
def test_coset_minimum_rejects_each_shifted_breakpoint(which):
    steps = (1, 3, 2, 2, 3, 1)
    f = functions(steps)[which]
    C, inv = oracle.knot_complex(steps, 1)
    X, grading = {"classic": (C, 0), "folded": (oracle.fold(C), 0),
                  "upper": (oracle.cone(C, inv), 0), "lower": (oracle.cone(C, inv), 1)}[which]
    T = oracle.tower(X, grading)
    oracle.check_coset_minimum(which, f, T)
    for i in range(len(f)):
        with pytest.raises(oracle.CheckFailure):
            oracle.check_coset_minimum(which, shifted(f, i), T)


def test_properties_pass_and_reject():
    funcs = functions(T37)
    v0 = (-funcs["upper"][-1][1] / 2, -funcs["lower"][-1][1] / 2)
    oracle.check_properties("T(3,7)", funcs, 6, v0)
    with pytest.raises(oracle.CheckFailure):  # V0 off by one
        oracle.check_properties("T(3,7)", funcs, 6, (v0[0] + 1, v0[1]))
    with pytest.raises(oracle.CheckFailure):  # lower above folded
        oracle.check_properties("T(3,7)", dict(funcs, lower=shifted(funcs["folded"])), 6)
    with pytest.raises(oracle.CheckFailure):  # classic no longer symmetric
        oracle.check_properties("T(3,7)", dict(funcs, classic=shifted(funcs["classic"])), 6)
    with pytest.raises(oracle.CheckFailure):  # a slope beyond the width
        oracle.check_properties("T(3,7)", funcs, 1)


def test_reduced_cone_check_rejects_every_dropped_arrow():
    steps = (1, 2, 1, 2, 2, 1, 2, 1, 1, 2, 1, 2, 2, 1, 2, 1)
    doc = json.loads(dumps_complex(involutive_cone(staircase_from_steps(StaircaseSpec(steps)))))
    C, inv = oracle.knot_complex(steps, 1)
    unreduced = oracle.cone(C, inv)
    oracle.check_reduced_cone("cone", doc, unreduced)
    assert doc["differential"]
    for i in range(len(doc["differential"])):
        broken = dict(doc, differential=doc["differential"][:i] + doc["differential"][i + 1:])
        with pytest.raises(oracle.CheckFailure):
            oracle.check_reduced_cone("cone", broken, unreduced)


def test_reduced_cone_check_rejects_an_unreduced_cone():
    C, inv = oracle.knot_complex(T37, 1)
    doc = json.loads(dumps_complex(involutive_cone(staircase_from_steps(StaircaseSpec(T37)),
                                                   reduce_cone=False)))
    with pytest.raises(oracle.CheckFailure):
        oracle.check_reduced_cone("cone", doc, oracle.cone(C, inv))


def test_csv_check_rejects_one_changed_row():
    C = staircase_from_steps(StaircaseSpec(T37))
    f = upsilon(C, UpsilonVariant.UPPER)
    text = plfunction_csv(f)
    oracle.check_csv("upper", text, tuple(f.breakpoints))
    lines = text.splitlines()
    for i in range(1, len(lines)):
        t, v = lines[i].split(",")
        changed = lines[:i] + [f"{t},{Fraction(v) + 1}"] + lines[i + 1:]
        with pytest.raises(oracle.CheckFailure):
            oracle.check_csv("upper", "\n".join(changed) + "\n", tuple(f.breakpoints))


def test_file_complexes_are_staircase_plus_acyclic_boxes(tmp_path):
    knots = corpus.sweep_small(3, tmp_path)
    files = [k for k in knots if k.path]
    assert len(files) == len(knots) // corpus.FILE_SHARE
    for k in files[:8]:
        C, _ = oracle.knot_complex(k.steps, k.sign, k.boxes)
        base, _ = oracle.knot_complex(k.steps, k.sign)
        assert oracle.homology_rank(C, 0) == oracle.homology_rank(base, 0) == 1
        assert json.loads(Path(k.path).read_text())["mode"] == "ALG_ALEX"


def test_corpora_are_seeded(tmp_path):
    for name in ("coset-heavy", "reduce-long"):
        assert corpus.build(name, 5, tmp_path) == corpus.build(name, 5, tmp_path)
        assert corpus.build(name, 5, tmp_path) != corpus.build(name, 6, tmp_path)
    assert len(corpus.coset_heavy(1)) >= 40 and len(corpus.reduce_long(1)) >= 40
