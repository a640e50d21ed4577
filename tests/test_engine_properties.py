"""Property tests for the engine: on random XMark documents and random
trees, with generated transform queries, the planner-chosen strategy's
output must be ``deep_equal`` to the naive reference, and every plan
must name a real strategy."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Engine, deep_equal, transform_naive
from repro.engine import TREE_STRATEGIES
from repro.transform.query import parse_transform_query
from repro.xmark.generator import generate

from tests.strategies import trees, xpath_queries

#: One engine across examples: preparation caching must never change
#: results.
ENGINE = Engine()

UPDATE_TEMPLATES = [
    "delete $a{path}",
    "rename $a{path} as renamed",
    "insert <mark/> into $a{path}",
    "replace $a{path} with <sub>1</sub>",
]


def _transform_text(path_text: str, template: str) -> str:
    path = path_text if path_text.startswith("//") else "/" + path_text
    update = template.format(path=path)
    return f'transform copy $a := doc("T") modify do {update} return $a'


#: XMark-shaped embedded paths, mixing child and descendant steps and
#: the qualifier forms the Fig. 11 workload uses.
XMARK_PATHS = [
    "people/person",
    "people/person[@id = 'person0']",
    "regions//item",
    "//description",
    "regions//item[location = 'United States']",
    "open_auctions/open_auction[initial > 10]/bidder",
    "//*[.//keyword]",
    "closed_auctions//price",
]


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    path_text=st.sampled_from(XMARK_PATHS),
    template=st.sampled_from(UPDATE_TEMPLATES),
)
def test_planner_choice_matches_naive_on_xmark(seed, path_text, template):
    doc = generate(0.001, seed=seed)
    text = _transform_text(path_text, template)
    prepared = ENGINE.prepare_transform(text)
    plan = prepared.plan_for(doc)
    assert plan.strategy in TREE_STRATEGIES
    # The header must name the *chosen* strategy (every strategy name
    # appears in the cost table, so match the header line exactly).
    assert f"strategy: {plan.strategy}" in prepared.explain(doc)
    result = prepared.run(doc)
    assert deep_equal(result, transform_naive(doc, prepared.query))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    tree=trees(),
    path_text=xpath_queries(),
    template=st.sampled_from(UPDATE_TEMPLATES),
)
def test_planner_choice_matches_naive_on_random_trees(tree, path_text, template):
    text = _transform_text(path_text, template)
    try:
        query = parse_transform_query(text)
    except ValueError:
        # A generated path the update grammar rejects (e.g. trailing
        # attribute steps) — not the planner's concern.
        return
    prepared = ENGINE.prepare_transform(text)
    plan = prepared.plan_for(tree)
    assert plan.strategy in TREE_STRATEGIES
    assert deep_equal(prepared.run(tree), transform_naive(tree, query))


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=trees(), path_text=xpath_queries())
def test_explain_always_names_a_real_strategy(tree, path_text):
    text = _transform_text(path_text, "delete $a{path}")
    try:
        prepared = ENGINE.prepare_transform(text)
    except ValueError:
        return
    plan = prepared.plan_for(tree)
    explained = prepared.explain(tree)
    assert f"strategy: {plan.strategy}" in explained
    assert "because:" in explained
