"""The CLI's JSON writer against ``json.dumps(..., indent=2)``, the encoder
it replaces: equal text on random documents, those that hold one list
object in several places included, and a ``TypeError`` for every value or
key a CLI document never holds."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newtonzeta.cli import _json_text

scalars = (st.none() | st.booleans() | st.integers(-10**30, 10**30)
           | st.text())
documents = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=5)
                      | st.dictionaries(st.text(), children, max_size=5)),
    max_leaves=40)


@settings(derandomize=True, max_examples=300, database=None)
@given(documents)
def test_random_documents_match_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


@st.composite
def shared_documents(draw):
    """A document that holds one nonempty list object at depths 1 and 3,
    and maybe at others inside a subdocument, which it holds at depths 2
    and 3: the writer's memo must key each list on its indent too."""
    shared = draw(st.lists(scalars | st.lists(scalars, max_size=3), min_size=1, max_size=4))
    sub = draw(st.recursive(
        scalars | st.just(shared),
        lambda children: (st.lists(children, max_size=4)
                          | st.dictionaries(st.text(max_size=3), children, max_size=4)),
        max_leaves=20))
    return {"top": shared, "nested": [[shared], sub], "again": [[sub]]}


@settings(derandomize=True, max_examples=100, database=None)
@given(shared_documents())
def test_documents_that_share_lists_match_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {}, [], [{}], {"a": []}, [[[], {}], {"b": [{}]}],
    [True, 1, False, 0, None],
    {"\"\\\n\x00\x1f": "é\ud800\U0001f600", "": ""},
    "é",
])
def test_edge_documents_match_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    1.0, [Fraction(1)], {"a": (1, 2)}, {1: "a"}, [{"ok": [{True: 1}]}],
])
def test_values_no_document_holds_are_refused(doc):
    with pytest.raises(TypeError):
        _json_text(doc)
