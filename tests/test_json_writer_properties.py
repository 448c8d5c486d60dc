"""Property-based test for the CLI's JSON writer.

`--format json` prints `json.dumps(payload, indent=2)`, built by the CLI's
own writer, `minplus.cli._dumps_indented`. The trees have str keys, as
every `to_json` does, and hold records: lists of dicts over one key set,
most in one key order and some in another.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from minplus.cli import _dumps_indented

TEXT = st.text(st.characters(), max_size=6) | st.sampled_from(["", "\n", '"', "\\", "\x00", "ε", "inf", "-3/2"])
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT


def records(values):
    def over(keys):
        in_order = st.tuples(*(values for _ in keys)).map(lambda vs: dict(zip(keys, vs)))
        shuffled = st.permutations(keys).flatmap(
            lambda order: st.tuples(*(values for _ in order)).map(lambda vs: dict(zip(order, vs)))
        )
        return st.lists(in_order | shuffled, min_size=1, max_size=5)

    return st.lists(TEXT, min_size=1, max_size=4, unique=True).flatmap(over)


TREES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT, children, max_size=5)
        | records(SCALARS)
        | records(SCALARS | children)
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(TREES)
def test_writer_equals_json_dumps(obj):
    assert _dumps_indented(obj) == json.dumps(obj, indent=2)
