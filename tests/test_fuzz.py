"""Fuzzing of complex files: whatever the input, `loads_complex` returns a
complex or raises ValueError (which the CLI turns into exit 2), and
`compute --knot file:PATH` and `dump-complex --knot file:PATH` at every
stage end with exit 0, 2 or 5, never an exception.  A dump that succeeds
parses back, and at the base stage it re-dumps to the same bytes.  Knot
specs: `compute` on any torus:, -torus: or steps: string ends with exit 0
or 2.

Derandomized, without an example database, so every run checks the same
inputs.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from involutive_upsilon import dumps_complex, loads_complex
from involutive_upsilon.cli import main

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100)

scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text())
json_values = st.recursive(
    scalars, lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=20)

# documents shaped like complex files, so the fuzzing reaches past the
# top-level checks into generators, edges and the complex constructor
ids = st.sampled_from(["a", "b", "c"])
levels = st.integers(-2, 2)
generators = st.fixed_dictionaries({"id": ids, "gr": levels, "f1": levels, "f2": levels})
edges = st.fixed_dictionaries({"from": ids, "to": ids})
documents = st.fixed_dictionaries(
    {"mode": st.sampled_from(["ALG_ALEX", "MIN_MAX"]) | scalars,
     "generators": st.lists(generators | scalars, max_size=4),
     "differential": st.lists(edges | scalars, max_size=4)},
    optional={"involution": st.lists(edges | scalars, max_size=4),
              "extra": scalars})


def parses_or_rejects(text):
    try:
        loads_complex(text)
    except ValueError:
        pass


@FUZZ
@given(st.text())
def test_loads_complex_arbitrary_text(text):
    parses_or_rejects(text)


@FUZZ
@given(json_values)
def test_loads_complex_arbitrary_json(value):
    parses_or_rejects(json.dumps(value))


@FUZZ
@given(documents)
def test_loads_complex_complex_shaped_json(doc):
    parses_or_rejects(json.dumps(doc))


@st.composite
def knot_files(draw):
    """Complex files with an involution that often pass validation.

    A central generator c of grading 0 and f1 = f2 is fixed by the
    involution.  Each further block is an arrow x -> z that drops the
    grading by one and is filtered, with its copy y -> w of swapped
    filtrations; the involution swaps x with y and z with w.  Random arrows
    between blocks come with their swapped copy too, and one random
    involution arrow is sometimes added.
    """
    levels = st.integers(-1, 1)
    level = draw(levels)
    gens, mate = {"c": (0, level, level)}, {"c": "c"}
    arrows = set()
    for i in range(draw(st.integers(0, 3))):
        gr, f1, f2 = draw(st.sampled_from([0, 1])), draw(levels), draw(levels)
        d1, d2 = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        gens.update({f"x{i}": (gr, f1, f2), f"y{i}": (gr, f2, f1),
                     f"z{i}": (gr - 1, f1 - d1, f2 - d2), f"w{i}": (gr - 1, f2 - d2, f1 - d1)})
        mate.update({f"x{i}": f"y{i}", f"y{i}": f"x{i}", f"z{i}": f"w{i}", f"w{i}": f"z{i}"})
        arrows |= {(f"x{i}", f"z{i}"), (f"y{i}", f"w{i}")}
    pairs = [(x, y) for x in gens for y in gens]
    for x, y in pairs:
        (gx, ax, bx), (gy, ay, by) = gens[x], gens[y]
        if gy == gx - 1 and ay <= ax and by <= bx and draw(st.integers(0, 3)) == 0:
            arrows |= {(x, y), (mate[x], mate[y])}
    involution = set(mate.items())
    if draw(st.integers(0, 7)) == 0:
        involution.add(draw(st.sampled_from(pairs)))
    return {"mode": draw(st.sampled_from(["ALG_ALEX"] * 4 + ["MIN_MAX"])),
            "generators": [{"id": g, "gr": gr, "f1": f1, "f2": f2}
                           for g, (gr, f1, f2) in gens.items()],
            "differential": [{"from": x, "to": y} for x, y in sorted(arrows)],
            "involution": [{"from": x, "to": y} for x, y in sorted(involution)]}


@pytest.fixture(scope="module")
def knot_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "knot.json"


@settings(FUZZ, max_examples=300)  # compute still gets about 100
@given(knot_files() | documents, st.booleans(),
       st.sampled_from([None, "base", "folded", "cone", "reduced"]))
def test_compute_file_end_to_end(knot_path, doc, strip, stage):
    """`compute` when stage is None, else `dump-complex --stage stage`."""
    knot_path.write_text(json.dumps(doc), encoding="utf-8")
    command = ["compute"] if stage is None else ["dump-complex", "--stage", stage]
    argv = command + ["--knot", f"file:{knot_path}"] + (["--strip-acyclic"] if strip else [])
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 5)
    if stage is not None and code == 0:
        C, involution = loads_complex(out.getvalue())
        if stage == "base":
            assert dumps_complex(C, involution) == out.getvalue()


# small numbers, or odd ones (so torus parameters are often coprime) past
# sys.maxsize; a mid-size torus knot would build a dense list of
# (p-1)(q-1) + 1 Alexander polynomial coefficients
numbers = st.integers(-30, 30) | st.integers(min_value=sys.maxsize + 1).map(lambda n: n | 1)
torus_specs = st.builds("{}{},{}".format, st.sampled_from(["torus:", "-torus:"]),
                        numbers, numbers)
steps_specs = st.builds(lambda head, nums: head + ",".join(map(str, nums)),
                        st.sampled_from(["steps:+:", "steps:-:"]),
                        st.lists(numbers, min_size=1, max_size=6))
knot_specs = (st.builds(str.__add__, torus_specs | steps_specs,
                        st.just("") | st.text(max_size=3))
              | st.text().filter(lambda text: not text.startswith("file:")))


@FUZZ
@given(knot_specs)
def test_compute_knot_spec_end_to_end(spec):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["compute", f"--knot={spec}", "--invariant", "classic"])
    assert code in (0, 2)
