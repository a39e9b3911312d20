import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from involutive_upsilon import (BifilteredComplex, FiltrationMode,
                                Generator, Sign, StaircaseSpec,
                                closed_form_cone_reduction, direct_sum, dumps_complex,
                                gf2, homology_rank, involutive_cone, loads_complex,
                                materialize_closed_form, mirror, reduce_bifiltered,
                                staircase_from_steps, strip_acyclic, unknot_complex,
                                validate)
from involutive_upsilon.complexes import homology_data
from involutive_upsilon.involutive import staircase_involution, fold, fold_map, mapping_cone

from oracles import brute_homology, json_dump


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
    # of several, the least offending pair is reported
    with pytest.raises(ValueError, match=r"\('x', 'a'\) references"):
        BifilteredComplex(gens, {("y", "x"), ("x", "b"), ("x", "a")}, FiltrationMode.ALG_ALEX)


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


@pytest.mark.parametrize("grading", [0, 1])
def test_homology_boundaries_are_sorted_positions(t37, grading):
    cone = t37_cone(t37)
    window, _, boundaries = homology_data(cone, grading)
    indices, _, same = cone.homology[grading]
    assert boundaries is same and boundaries and len(window) == len(indices)
    columns = {cone.targets[j] for j, g in enumerate(cone.generators)
               if g.grading % 2 != grading}
    for b in boundaries:
        assert isinstance(b, tuple) and list(b) == sorted(set(b))
        # each position names a generator of this parity, and together they
        # are the boundary of one generator of the other parity
        assert tuple(indices[k] for k in b) in columns


def test_homology_matches_brute_oracle(t23, t25):
    cone = mapping_cone(fold(t25), fold_map(staircase_involution(t25)))
    for C in (t23, t25, mirror(t25), unknot_complex(), cone,
              reduce_bifiltered(cone).reduced, direct_sum(t25, box((1, 0)))):
        for grading in (-1, 0, 1):
            win, cycles, brute_boundaries, rank = brute_homology(C, grading)
            window, reps, boundaries = homology_data(C, grading)
            assert homology_rank(C, grading) == rank
            # a basis of the boundary space: dependent columns would overcount
            assert len(boundaries) == len(brute_boundaries).bit_length() - 1
            for z in reps:
                assert sum(1 << win.index(window[k]) for k in z) in cycles


def test_homology_reduces_each_parity_class_once(t37, monkeypatch):
    cone = t37_cone(t37)
    calls, real = [], gf2.reduce_columns

    def counted(columns):
        columns = list(columns)
        calls.append(len(columns))
        return real(columns)

    monkeypatch.setattr(gf2, "reduce_columns", counted)
    lo, hi = cone.grading_span()
    for g in range(lo, hi + 1):
        homology_rank(cone, g)
    homology_data(cone, 0)
    homology_data(cone, 1)
    # one call per parity class, every column once
    assert len(calls) == 2 and sum(calls) == cone.n


def test_homology_memory_is_linear_on_staircases():
    """A vector held by the reduction costs its support, so the homology of
    [1,2]*k+[2,1]*k peaks about x2 per doubling of its generators; vectors
    costing their highest position would give about x3.4.  A row that no
    row operation touched is its column's own tuple, so the peak stays
    under 320 B per generator (sets for every row peak near 520)."""
    peaks = []
    for k in (2500, 5000):  # 10001 and 20001 generators
        C = staircase_from_steps(StaircaseSpec((1, 2) * k + (2, 1) * k, Sign.POSITIVE))
        tracemalloc.start()
        try:
            assert homology_rank(C, 0) == 1
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.2 * peaks[0], peaks
    assert peaks[1] <= 320 * C.n, (peaks, C.n)


def test_homology_ordering_invariance(t25):
    rng = random.Random(7)
    cone = mapping_cone(fold(t25), fold_map(staircase_involution(t25)))
    win, _, boundaries, _ = brute_homology(cone, 0)
    pos = {term: i for i, term in enumerate(win)}

    def representative(C):
        """The single homology representative, as a mask over cone's window."""
        w, reps, _ = homology_data(C, 0)
        assert len(reps) == 1
        return sum(1 << pos[w[k]] for k in reps[0])

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


T37_SPEC = StaircaseSpec((1, 2, 1, 2, 2, 1, 2, 1))

# every producer of complexes, on T(3,7) or a small sum with it
PRODUCERS = {
    "staircase+": lambda: staircase_from_steps(T37_SPEC),
    "staircase-": lambda: staircase_from_steps(StaircaseSpec(T37_SPEC.steps, Sign.NEGATIVE)),
    "mirror": lambda: mirror(staircase_from_steps(T37_SPEC)),
    "fold": lambda: fold(staircase_from_steps(T37_SPEC)),
    "mapping_cone": lambda: t37_cone(staircase_from_steps(T37_SPEC)),
    "reduced cone": lambda: involutive_cone(staircase_from_steps(T37_SPEC)),
    "strip_acyclic": lambda: strip_acyclic(direct_sum(staircase_from_steps(T37_SPEC), box())),
    "direct_sum": lambda: direct_sum(staircase_from_steps(T37_SPEC),
                                     staircase_from_steps(T37_SPEC)),
    "materialize_closed_form": lambda: materialize_closed_form(
        closed_form_cone_reduction(T37_SPEC)),
    "loads_complex": lambda: loads_complex(dumps_complex(staircase_from_steps(T37_SPEC)))[0],
}


@pytest.mark.parametrize("name", PRODUCERS)
def test_producers_build_columns(name):
    C = PRODUCERS[name]()
    columns = (C.ids, C.gradings, C.f1, C.f2, C.targets)
    assert C.n > 0 and all(type(col) is tuple and len(col) == C.n for col in columns)
    rebuilt = BifilteredComplex(C.generators, C.arrows, C.mode)
    assert rebuilt == C and hash(rebuilt) == hash(C)
    if C.mode is FiltrationMode.ALG_ALEX:
        F = fold(C)  # only the filtration columns are new
        assert F.ids is C.ids and F.gradings is C.gradings and F.targets is C.targets


def test_direct_sum_mode_mismatch(t23):
    with pytest.raises(ValueError, match="mode mismatch"):
        direct_sum(t23, box(mode=FiltrationMode.MIN_MAX))


def test_shift_grading_matches_cone_a_copy(t37):
    cone = t37_cone(t37)
    for g in t37.generators:
        assert cone.generators[cone.index[f"A.{g.id}"]].grading == g.grading + 1


def test_json_roundtrip(t37):
    inv = staircase_involution(t37)
    text = dumps_complex(t37, inv.arrows)
    C, arrows = loads_complex(text)
    assert C == t37
    assert arrows == inv.arrows
    assert dumps_complex(C, arrows) == text


# ids that json escapes: non-ASCII (a lone surrogate too), quotes,
# backslashes and control characters
id_texts = st.text(st.sampled_from('a"\\/\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600')
                   | st.characters(), max_size=4)


@st.composite
def dumpable(draw):
    """A complex of at most five generators, any arrows, and an involution
    that is absent, empty or present."""
    ids = draw(st.lists(id_texts, unique=True, max_size=5))
    gens = tuple(Generator(g, *draw(st.tuples(st.integers(), st.integers(), st.integers())))
                 for g in ids)
    pairs = (st.frozensets(st.sampled_from([(x, y) for x in ids for y in ids]), max_size=6)
             if ids else st.just(frozenset()))
    C = BifilteredComplex(gens, draw(pairs), draw(st.sampled_from(FiltrationMode)))
    return C, draw(st.none() | pairs)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(dumpable())
@example((BifilteredComplex(), None))
@example((BifilteredComplex(), frozenset()))
@example((BifilteredComplex((Generator("u", 0, 0, 0),)), frozenset()))
@example((box(), frozenset({("x", "x"), ("y", "y")})))
@example((involutive_cone(staircase_from_steps(StaircaseSpec((1, 2) * 50 + (2, 1) * 50))),
          None))
@example((involutive_cone(staircase_from_steps(
    StaircaseSpec((1, 2) * 50 + (2, 1) * 50, Sign.NEGATIVE))), None))
def test_dump_matches_json_dumps(case):
    C, involution = case
    assert dumps_complex(C, involution) == json_dump(C, involution)


def test_dump_rejects_an_unknown_involution_id(t23):
    with pytest.raises(ValueError, match=r"\('v0', 'zz'\) references unknown generator"):
        dumps_complex(t23, {("zz", "v0"), ("v2", "v1"), ("v0", "zz"), ("v1", "v9")})


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
    with pytest.raises(ValueError, match="invalid JSON: .*5000 digits"):
        loads_complex('{"mode": "ALG_ALEX", "generators": [{"id": "x", "gr": %s, "f1": 0, '
                      '"f2": 0}], "differential": []}' % ("1" * 5000))
    # past MAX_DIGITS the outputs would pass int's 4300-digit str limit
    with pytest.raises(ValueError, match="'f1' has more than 2000 digits"):
        loads_complex('{"mode": "ALG_ALEX", "generators": [{"id": "x", "gr": 0, "f1": -%s, '
                      '"f2": 0}], "differential": []}' % ("1" + "0" * 2000))


@pytest.mark.parametrize("field", ["generators", "differential", "involution"])
def test_json_non_list_fields_rejected(field):
    doc = {"mode": "ALG_ALEX", "generators": [{"id": "u", "gr": 0, "f1": 0, "f2": 0}],
           "differential": [], "involution": [{"from": "u", "to": "u"}]}
    for bad in (5, None, "u", {"from": "u", "to": "u"}):
        doc[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be a list"):
            loads_complex(json.dumps(doc))
