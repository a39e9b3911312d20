import json
import random

import pytest

from involutive_upsilon import (BifilteredComplex, Chain, FiltrationMode,
                                Generator, boundary, direct_sum, dumps_complex,
                                homology_rank, loads_complex, mirror,
                                unknot_complex, validate)
from involutive_upsilon.complexes import homology_data
from involutive_upsilon.involutive import staircase_involution, fold, fold_map, mapping_cone

from oracles import brute_homology


def box(bidegree=(0, 0), grading=0, mode=FiltrationMode.ALG_ALEX):
    f1, f2 = bidegree
    gens = (Generator("x", grading, f1, f2), Generator("y", grading - 1, f1, f2))
    return BifilteredComplex(gens, {("x", "y")}, mode)


def t37_cone(t37):
    return mapping_cone(fold(t37), fold_map(staircase_involution(t37)))


def test_validate_unknot():
    assert validate(unknot_complex()).ok


def test_validate_t37(t37):
    assert t37.n == 9
    assert validate(t37).ok


def test_validate_reports_grading_violation():
    gens = (Generator("x", 0, 1, 1), Generator("y", 0, 0, 0))
    C = BifilteredComplex(gens, {("x", "y")}, FiltrationMode.ALG_ALEX)
    report = validate(C)
    assert not report.ok
    assert [v[0] for v in report.violations] == ["grading-drop"]


def test_validate_enumerates_all_violations():
    gens = (
        Generator("x", 0, 0, 0),   # arrow raises filtration and keeps grading
        Generator("y", 0, 1, 2),
        Generator("z", 1, 3, 1),   # MIN_MAX violation
    )
    C = BifilteredComplex(gens, {("x", "y")}, FiltrationMode.MIN_MAX)
    rules = sorted(v[0] for v in validate(C).violations)
    assert rules == ["filtered", "grading-drop", "min-max"]


def test_validate_d_squared():
    gens = (Generator("a", 2, 0, 0), Generator("b", 1, 0, 0), Generator("c", 0, 0, 0))
    C = BifilteredComplex(gens, {("a", "b"), ("b", "c")}, FiltrationMode.ALG_ALEX)
    report = validate(C)
    assert ("d-squared", "a", "boundary of boundary hits ['c']") in report.violations


def test_duplicate_ids_rejected():
    gens = (Generator("x", 0, 0, 0), Generator("x", 1, 0, 0))
    with pytest.raises(ValueError, match="duplicate"):
        BifilteredComplex(gens, frozenset(), FiltrationMode.ALG_ALEX)


def test_unknown_arrow_rejected():
    gens = (Generator("x", 0, 0, 0),)
    with pytest.raises(ValueError, match="unknown generator"):
        BifilteredComplex(gens, {("x", "nope")}, FiltrationMode.ALG_ALEX)


def test_boundary_zero_chain(t37):
    assert boundary(t37, Chain()).is_zero


def test_boundary_t23_connector(t23):
    # b = v1 is the grading-1 connector; its boundary is the two corners
    assert boundary(t23, Chain.of("v1")) == Chain.of("v0", "v2")


def test_boundary_unknown_id(t23):
    with pytest.raises(ValueError, match="unknown generator id"):
        boundary(t23, Chain.of("v99"))


def test_boundary_u_equivariance(t37):
    z = Chain.of("v1", "v3")
    assert boundary(t37, z.u_shift(2)) == boundary(t37, z).u_shift(2)


def test_homology_unknot():
    C = unknot_complex()
    assert homology_rank(C, 0) == 1
    assert homology_rank(C, 1) == 0


def test_homology_t37(t37):
    assert homology_rank(t37, 0) == 1
    assert homology_rank(t37, 1) == 0


def test_homology_t37_cone_towers(t37):
    cone = t37_cone(t37)
    assert homology_rank(cone, 0) == 1
    assert homology_rank(cone, 1) == 1


def test_homology_matches_brute_oracle(t23, t25):
    for C in (t23, t25, mirror(t25), unknot_complex()):
        for grading in (-1, 0, 1):
            _, _, _, rank = brute_homology(C, grading)
            assert homology_rank(C, grading) == rank


def test_homology_ordering_invariance(t25):
    rng = random.Random(7)
    cone = mapping_cone(fold(t25), fold_map(staircase_involution(t25)))
    win, _, boundaries, _ = brute_homology(cone, 0)
    pos = {term: i for i, term in enumerate(win)}

    def representative(C):
        """The single homology representative, as a mask over cone's window."""
        w, reps, _ = homology_data(C, 0)
        assert len(reps) == 1
        return sum(1 << pos[term] for i, term in enumerate(w) if reps[0] >> i & 1)

    reference = representative(cone)
    for _ in range(5):
        gens = list(cone.generators)
        rng.shuffle(gens)
        shuffled = BifilteredComplex(tuple(gens), cone.arrows, cone.mode)
        # representatives are homologous
        assert representative(shuffled) ^ reference in boundaries


def test_direct_sum_with_empty(t23):
    empty = BifilteredComplex((), frozenset(), FiltrationMode.ALG_ALEX)
    S = direct_sum(t23, empty)
    assert S.generators == t23.generators and S.arrows == t23.arrows


def test_direct_sum_unknots():
    S = direct_sum(unknot_complex(), unknot_complex())
    assert S.n == 2
    assert homology_rank(S, 0) == 2


def test_direct_sum_acyclic_preserves_ranks(t37):
    cone = t37_cone(t37)
    S = direct_sum(cone, box(bidegree=(1, 1), grading=0, mode=FiltrationMode.MIN_MAX))
    lo, hi = cone.grading_span()
    for g in range(lo, hi + 1):
        assert homology_rank(S, g) == homology_rank(cone, g)


def test_direct_sum_mode_mismatch(t23):
    with pytest.raises(ValueError, match="mode mismatch"):
        direct_sum(t23, box(mode=FiltrationMode.MIN_MAX))


def test_shift_grading_matches_cone_a_copy(t37):
    cone = t37_cone(t37)
    for g in t37.generators:
        assert cone.by_id[f"A.{g.id}"].grading == g.grading + 1


def test_json_roundtrip(t37):
    inv = staircase_involution(t37)
    text = dumps_complex(t37, inv.arrows)
    C, arrows = loads_complex(text)
    assert C == t37
    assert arrows == inv.arrows
    assert dumps_complex(C, arrows) == text


def test_json_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown key"):
        loads_complex('{"mode": "ALG_ALEX", "generators": [], "differential": [], "extra": 1}')
    with pytest.raises(ValueError, match="unknown key"):
        loads_complex('{"mode": "ALG_ALEX", "generators": [{"id": "x", "gr": 0, "f1": 0, "f2": 0, "huh": 2}], "differential": []}')


def test_json_duplicate_entries_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        loads_complex(
            '{"mode": "ALG_ALEX",'
            ' "generators": [{"id": "x", "gr": 1, "f1": 0, "f2": 0},'
            ' {"id": "y", "gr": 0, "f1": 0, "f2": 0}],'
            ' "differential": [{"from": "x", "to": "y"}, {"from": "x", "to": "y"}]}')


def test_json_bad_values_rejected():
    with pytest.raises(ValueError, match="mode"):
        loads_complex('{"mode": "DIAGONAL", "generators": [], "differential": []}')
    with pytest.raises(ValueError, match="integer"):
        loads_complex('{"mode": "ALG_ALEX", "generators": [{"id": "x", "gr": 0.5, "f1": 0, "f2": 0}], "differential": []}')
    with pytest.raises(ValueError, match="invalid JSON"):
        loads_complex("{nope")


@pytest.mark.parametrize("field", ["generators", "differential", "involution"])
def test_json_non_list_fields_rejected(field):
    doc = {"mode": "ALG_ALEX", "generators": [{"id": "u", "gr": 0, "f1": 0, "f2": 0}],
           "differential": [], "involution": [{"from": "u", "to": "u"}]}
    for bad in (5, None, "u", {"from": "u", "to": "u"}):
        doc[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be a list"):
            loads_complex(json.dumps(doc))
