"""The indexed Naive rewriting (a hash set for the membership test)
must be semantically identical to the reference."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transform import TransformQuery, transform_copy_update
from repro.transform.naive import transform_naive_indexed
from repro.updates import parse_update
from repro.xmltree import deep_equal, parse

from tests.strategies import trees, xpath_queries


@pytest.fixture
def doc():
    return parse(
        "<db><part><pname>kb</pname><supplier><price>12</price></supplier></part>"
        "<part><pname>m</pname><supplier><price>8</price></supplier></part></db>"
    )


@pytest.mark.parametrize(
    "update_text",
    [
        "delete $a//price",
        "insert <x/> into $a/part[pname = 'kb']",
        "replace $a//supplier with <gone/>",
        "rename $a/part as item",
    ],
)
def test_variants_match_reference(doc, update_text):
    query = TransformQuery(parse_update(update_text))
    expected = transform_copy_update(doc, query)
    assert deep_equal(transform_naive_indexed(doc, query), expected)


@settings(max_examples=60, deadline=None)
@given(
    tree=trees(),
    query_text=xpath_queries(),
    kind=st.sampled_from(["insert", "delete"]),
)
def test_variants_match_reference_property(tree, query_text, kind):
    target = ("$a" + query_text) if query_text.startswith("//") else f"$a/{query_text}"
    text = f"insert <n/> into {target}" if kind == "insert" else f"delete {target}"
    query = TransformQuery(parse_update(text))
    expected = transform_copy_update(tree, query)
    assert deep_equal(transform_naive_indexed(tree, query), expected)
