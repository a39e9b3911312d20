"""Fuzzing of the complex-file parser: whatever the input, `loads_complex`
returns a complex or raises ValueError (which the CLI turns into exit 2).

Derandomized, without an example database, so every run checks the same
inputs.
"""

import json

from hypothesis import given, settings, strategies as st

from involutive_upsilon import loads_complex

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
