"""``plan_commit`` without a store: a frozen arena, staged entries and
view definitions in, the next arena and every cache decision out.

No ``ViewStore``, WAL, lock or registry is built here.  The plan's
arena is held to the O(document) reference (``apply_entries_rebuilt``)
column for column, the base arena to staying untouched, its decisions
to being the same on a second plan over the same input, and every
outcome — keep, patch and each reason in ``DROP_REASONS`` — is reached
by at least one hand-built entry.  Survivors over the document are
checked against a fresh evaluation over ``plan.arena``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.arena_run import serialize_arena_items
from repro.compiled import CompiledCache
from repro.store.answer import Answer, node_refs, result_key
from repro.store.commit import plan_commit
from repro.store.delta import (
    DROP_REASONS,
    apply_entries_rebuilt,
    query_labels,
    transform_labels,
)
from repro.store.log import StagedUpdate
from repro.store.views import View
from repro.xmltree.arena import freeze
from repro.xmltree.parser import parse_to_arena
from repro.xmltree.serializer import serialize_arena
from repro.xquery.arena_eval import ArenaEvaluator

from tests.strategies import transform_texts, trees, user_queries

DOC = (
    "<db><people>"
    "<person id='p0'><name>ann</name></person>"
    "<person id='p1'><name>bob</name></person>"
    "<person id='p2'><name>cy</name></person>"
    "</people><regions><item><name>i0</name></item></regions></db>"
)
OLD, NEW = 10, 11

COLUMNS = ("sym", "up", "size", "payload", "attr_keys", "attr_values", "n_elements")


def _t(body: str) -> str:
    return f'transform copy $a := doc("db") modify do {body} return $a'


def _entries(compiled, *bodies):
    return [StagedUpdate(compiled.transform(_t(b)), _t(b)) for b in bodies]


def _view(compiled, name: str, body: str) -> View:
    transform = compiled.transform(_t(body))
    compiled.selecting_nfa_for(transform.path)
    return View(name, "db", transform, _t(body), transform_labels(transform))


def _fresh(compiled, arena, query: str) -> Answer:
    """*query* evaluated over *arena*, as the result cache holds it."""
    parsed = compiled.user_query(query)
    refs = ArenaEvaluator(arena, compiled.selecting_nfa_for).evaluate_refs(parsed)
    return Answer(serialize_arena_items(arena, refs), node_refs(refs), query_labels(parsed))


def _decide_all(plan, entries):
    """Every entry through the plan's mapper, as ``results.rekey`` calls
    it; returns what each became and the plan's tallies."""
    plan.old_uid, plan.new_uid = OLD, NEW
    out = []
    for key, answer in entries:
        mapped = plan.decide(key, answer)
        out.append(None if mapped is None else (mapped[0], mapped[1].items, mapped[1].refs))
    return out, (plan.kept, plan.patched, dict(plan.drop_reasons))


def _snapshot(arena) -> tuple:
    return tuple(
        (name, list(value) if not isinstance(value, int) else value)
        for name, value in ((c, getattr(arena, c)) for c in COLUMNS)
    )


def test_the_plan_reaches_keep_patch_and_every_drop_reason():
    compiled = CompiledCache()
    base = parse_to_arena(DOC)
    before = _snapshot(base)
    v = _view(compiled, "v", "delete $a/regions/item/name")
    w = _view(compiled, "w", "delete $a/people")
    x = _view(compiled, "x", "rename $a/people/person as human")
    targets = {"db": [], "v": [v], "w": [w], "x": [x]}
    insert = _entries(compiled, "insert <watch>w</watch> into $a/people/person[@id = 'p1']")

    def cached():
        doc = {
            query: _fresh(compiled, base, query)
            for query in (
                "for $x in regions/item return $x",                  # keep
                "for $x in people/person return $x",                 # patch
                "for $x in people/person/watch return $x",           # label:watch
                "for $x in people/* return $x",                      # unanalyzable
                "for $x in people/person[@id = 'p1'] return $x",     # wide-patch
            )
        }
        query = "for $x in people/person return $x/name"
        over_view = Answer(["<name/>"], None, query_labels(compiled.user_query(query)))
        return [
            *((result_key("db", OLD, q, ((), ())), a) for q, a in doc.items()),
            (result_key("db", OLD, "q", ((), (insert[0].text,))), Answer(["s"])),  # staged
            (result_key("v", OLD, query, (("old text",), ())), over_view),  # stack-changed
            (result_key("v", OLD, query, ((v.transform_text,), ())), over_view),  # view-labels
            (result_key("w", OLD, query, ((w.transform_text,), ())), over_view),  # swallowed
            # view-labels: the query misses the delta, the view does not
            (result_key("x", OLD, "q", ((x.transform_text,), ())),
             Answer(["i"], None, frozenset({"item"}))),
            (result_key("db", OLD - 5, "q", ((), ())), Answer(["late"])),  # late-publisher
            (result_key("db", NEW, "q", ((), ())), Answer(["early"])),  # stays
        ]

    plan = plan_commit(base, insert, targets, compiled)
    decided, tallies = _decide_all(plan, cached())
    assert tallies == (2, 1, {
        "label:watch": 1, "unanalyzable": 1, "wide-patch": 1, "staged": 1,
        "stack-changed": 1, "view-labels": 2, "late-publisher": 1,
    })
    kept_key, patched_key = (result_key("db", NEW, q, ((), ())) for q in (
        "for $x in regions/item return $x", "for $x in people/person return $x",
    ))
    survivors = {key: (items, refs) for key, items, refs in filter(None, decided)}
    for key in (kept_key, patched_key):
        fresh = _fresh(compiled, plan.arena, key[2])
        assert survivors[key] == (fresh.items, fresh.refs), key[2]
    assert result_key("w", NEW, "for $x in people/person return $x/name",
                      ((w.transform_text,), ())) in survivors
    assert result_key("db", NEW, "q", ((), ())) in survivors

    # Deterministic: a second plan over the same input decides the
    # same way, and neither touched the arena it was planned from.
    again = plan_commit(base, insert, targets, compiled)
    assert _decide_all(again, cached()) == (decided, tallies)
    assert _snapshot(base) == before

    # An item inside a removed range: the query named no label the
    # delete changed, so only the positions can tell.
    delete = _entries(compiled, "delete $a/people/person[@id = 'p1']")
    bob = _fresh(compiled, base, "for $x in people/person[@id = 'p1']/name return $x")
    plan = plan_commit(base, delete, targets, compiled)
    _, tallies = _decide_all(plan, [
        (result_key("db", OLD, "q", ((), ())), Answer(bob.items, bob.refs, frozenset())),
    ])
    assert tallies == (0, 0, {"removed-item": 1})

    reached = {"staged", "stack-changed", "unanalyzable", "label", "removed-item",
               "wide-patch", "late-publisher", "view-labels"}
    assert reached == set(DROP_REASONS)


def test_materializations_survive_on_the_swallow_test_alone():
    compiled = CompiledCache()
    base = parse_to_arena(DOC)
    v = _view(compiled, "v", "delete $a/regions/item/name")
    w = _view(compiled, "w", "delete $a/people")
    stale = _view(compiled, "stale", "delete $a/people")
    for view in (v, w):
        view.set_materialized(base, 1)
    stale.set_materialized(base, 0)  # not the version being replaced
    insert = _entries(compiled, "insert <watch>w</watch> into $a/people/person[@id = 'p1']")
    plan = plan_commit(base, insert, {"db": [], "v": [v], "w": [w], "stale": [stale]}, compiled)
    plan.rebase_materializations(1, 2)
    assert (plan.mats_kept, plan.mats_dropped) == (1, 2)
    assert w.materialization_for(2) is base
    assert v.materialized_root is None and stale.materialized_root is None
    receipt = plan.receipt("db", 1, 2)
    assert (receipt.entries, receipt.patches, receipt.mats_kept) == (1, 1, 1)


@settings(deadline=None)
@given(
    tree=trees(),
    texts=st.lists(transform_texts(), min_size=1, max_size=3),
    queries=st.lists(user_queries(), min_size=1, max_size=4),
)
def test_the_plan_is_the_rebuilt_arena_and_decides_what_a_fresh_read_gives(
    tree, texts, queries
):
    compiled = CompiledCache()
    base = freeze(tree)
    before = _snapshot(base)
    entries = [StagedUpdate(compiled.transform(text), text) for text in texts]
    plan = plan_commit(base, entries, {"db": []}, compiled)

    rebuilt = apply_entries_rebuilt(base, entries)
    for column in COLUMNS:
        assert getattr(plan.arena, column) == getattr(rebuilt, column), column
    assert serialize_arena(plan.arena) == serialize_arena(rebuilt)
    assert _snapshot(base) == before

    cached = [
        (result_key("db", OLD, q, ((), ())), _fresh(compiled, base, q))
        for q in dict.fromkeys(queries)
    ]
    decided, tallies = _decide_all(plan, cached)
    again = plan_commit(base, entries, {"db": []}, compiled)
    assert _decide_all(again, [
        (key, _fresh(compiled, base, key[2])) for key, _ in cached
    ]) == (decided, tallies)
    for survivor in filter(None, decided):
        key, items, refs = survivor
        fresh = _fresh(compiled, plan.arena, key[2])
        assert (items, refs) == (fresh.items, fresh.refs), key[2]
