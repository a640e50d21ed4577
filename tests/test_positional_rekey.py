"""The positional re-key: what a commit leaves of the result cache.

A cached answer read off a document knows where its items sit
(``Answer.refs``); a spliced commit says which labels it changed, which
kept nodes serialize differently and how the rest moved
(``ArenaStep.changed`` / ``chain`` / ``patches``); one pure rule,
``repro.store.delta.rekey_verdict``, keeps, patches or drops each entry.
The contract pinned here, whatever the commit:

* every entry that survives holds exactly what a fresh evaluation of
  its query over the new arena serializes to, **and** its ``refs`` are
  that evaluation's refs — a stale position would go unnoticed until
  the next commit lands in the wrong item;
* a patched entry shares every untouched string with the entry it
  replaces and carries no stale wire form;
* the commit visits the entries over the names it can affect and no
  other, in place.

Differentials: a long seeded run over an XMark document (single- and
two-entry commits of all four kinds; patches inside, beside and above
the answers' items), a Hypothesis run over small random trees whose
five labels collide all the time, and three planted mutants of the rule
that the first must kill.
"""

import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serialize
from repro.automata.arena_run import serialize_arena_items
from repro.cli import main
from repro.lru import LRUCache
from repro.obs import MetricsRegistry
from repro.store import Answer, ViewStore
from repro.store import delta as delta_module
from repro.store import store as store_module
from repro.store.answer import node_refs
from repro.store.delta import DROP_REASONS, rekey_verdict
from repro.store.state import open_store, save_store
from repro.transform.arena import transform_arena
from repro.xmark.generator import generate
from repro.xmltree.arena import carry_indices, freeze, shift_table
from repro.xmltree.node import Element
from repro.xmltree.parser import parse

from tests.strategies import transform_texts, trees, user_queries


def _t(body: str, doc: str = "db") -> str:
    return f'transform copy $a := doc("{doc}") modify do {body} return $a'


def _texts(items) -> list:
    return [serialize(x) if isinstance(x, Element) else str(x) for x in items]


def _fresh(store: ViewStore, target: str, query: str) -> tuple:
    """``(items, refs)`` of *query* evaluated now, past the cache."""
    pinned = store.pin_read(target)
    arena, _, raw = store.evaluate(pinned, query, store.compiled)
    return serialize_arena_items(arena, raw), node_refs(raw)


def _check_survivors(store: ViewStore, target: str, oracle: bool = False) -> int:
    """Every entry the cache holds over *target* is the fresh answer,
    items and refs; returns how many there are."""
    uid = store.pin(target).uid
    entries = [(key, answer) for key, answer in store.results.items() if key[0] == target]
    for key, answer in entries:
        assert key[1] == uid, key
        items, refs = _fresh(store, target, key[2])
        assert list(answer.items) == items, key[2]
        assert answer.refs == refs, key[2]
        if oracle:
            assert items == _texts(store.query_naive(target, key[2])), key[2]
    return len(entries)


# ----------------------------------------------------------------------
# (i) The XMark differential
# ----------------------------------------------------------------------

#: Read before every commit, so every commit has entries to keep,
#: patch or drop: a descendant-or-self sweep, a ``//`` label, a negated
#: qualifier, a ``//`` below a step, a ``for`` body path, a wildcard,
#: an element template — and the plain selects a patch lands inside.
XMARK_POOL = [
    "for $x in people/person//. return $x",
    "for $x in //watch return $x",
    "for $x in people/person[not(watch)] return $x",
    "for $x in regions//item/name return $x",
    "for $x in people/person return $x/name",
    "for $x in regions/* return $x",
    "for $x in people/person return <row>{$x/name}</row>",
    "for $x in people/person return $x",
    "for $x in people/person[profile/age > 20] return $x",
    "for $x in people/person[@id = 'person3'] return $x",
    "for $x in regions//item return $x",
    "for $x in people/person/watch return $x",
    "for $x in people return $x",
]


def _xmark_commit(rng: random.Random) -> str:
    """One update body: all four kinds, qualified and ``//`` targets,
    landing inside, beside and above the pool's items."""
    person = f"$a/people/person[@id = 'person{rng.randrange(40)}']"
    return rng.choice([
        f"insert <watch>w</watch> into {person}",            # inside an item
        f"insert <watch>w</watch> into {person}",
        f"insert <name>alias</name> into {person}",          # a label the pool names
        f"delete {person}/watch",                            # inside, removes items too
        "delete $a//watch",                                  # // target
        f"rename {person}/watch as seen",
        "rename $a//seen as watch",
        f"replace {person}/profile with <profile><age>33</age></profile>",
        f"delete {person}",                                  # removes whole items
        "insert <bench_marker/> into $a/regions",            # above the items
        "rename $a/regions/bench_marker as bench_done",
        "delete $a/regions/bench_done",
        "insert <audit><entry>e</entry></audit> into $a/people",   # beside the items
        "delete $a/people/audit",
        "insert <note>n</note> into $a/regions//item[quantity > 8]",  # many patches
        "delete $a/regions//item/note",
        "insert <person id=\"extra\"><name>new</name></person> into $a/people",
        "insert <stamp/> into $a/closed_auctions",            # the root's chain only
        f"insert <stamp/> into {person}/profile",             # deep inside an item
    ])


def _xmark_store() -> ViewStore:
    store = ViewStore()
    store.put("db", generate(0.01, 42))
    return store


def _run_xmark(store: ViewStore, commits: int, seed: int) -> dict:
    """*commits* random commits, each after reading the whole pool and
    each followed by the survivor check; returns the tallies."""
    rng = random.Random(seed)
    tally = {"kept": 0, "patched": 0, "dropped": 0, "two_entry": 0, "reasons": set()}
    for index in range(commits):
        for query in XMARK_POOL:
            store.query_serialized("db", query)
        if rng.random() < 0.3:
            store.stage("db", _t(_xmark_commit(rng)))
            tally["two_entry"] += 1
        delta = store.commit_delta("db", _t(_xmark_commit(rng)))
        assert delta.results_kept + delta.results_patched + delta.results_dropped == len(
            XMARK_POOL
        )
        survivors = _check_survivors(store, "db", oracle=index % 25 == 0)
        assert survivors == delta.results_kept + delta.results_patched
        tally["kept"] += delta.results_kept
        tally["patched"] += delta.results_patched
        tally["dropped"] += delta.results_dropped
        tally["reasons"].update(r.partition(":")[0] for r in delta.drop_reasons)
    return tally


def test_survivors_equal_a_fresh_evaluation_over_random_xmark_commits():
    store = _xmark_store()
    tally = _run_xmark(store, commits=300, seed=27)
    # The run is only a differential if all three verdicts were given,
    # on both commit shapes.  (``removed-item`` is a backstop no query
    # of the grammar reaches: an item inside a removed range has its
    # label in ``changed``.)
    assert tally["two_entry"] >= 60
    assert tally["kept"] > tally["dropped"] > 300 and tally["patched"] > 100, tally
    assert tally["reasons"] == {"label", "unanalyzable", "wide-patch"}
    assert store.stats()["commits"]["spliced"] == 300


# ----------------------------------------------------------------------
# (i') The same contract over small random trees
# ----------------------------------------------------------------------

#: Shapes ``user_queries`` does not draw: qualified, negated, sweeping,
#: wildcard, body-path and constructed.
SHAPES = [
    "for $x in a//. return $x",
    "for $x in //b[not(c)] return $x",
    "for $x in //c[d = '9'] return $x",
    "for $x in //b[.//t = '9'] return $x",
    "for $x in * return $x",
    "for $x in //a return $x/b",
    "for $x in //a return <r>{$x/b}</r>",
    "for $x in //d[@id] return $x",
    "for $x in //t return $x",
]


@settings(deadline=None)
@given(
    tree=trees(),
    queries=st.lists(user_queries() | st.sampled_from(SHAPES), min_size=1, max_size=8),
    commits=st.lists(
        st.lists(transform_texts(), min_size=1, max_size=2), min_size=1, max_size=4
    ),
)
def test_survivors_equal_the_oracle_over_random_trees(tree, queries, commits):
    store = ViewStore()
    store.put("db", tree)
    for texts in commits:
        for query in queries:
            store.query_serialized("db", query)
        for text in texts[:-1]:
            store.stage("db", text)
        store.commit_delta("db", texts[-1])
        _check_survivors(store, "db", oracle=True)


# ----------------------------------------------------------------------
# (ii) Three planted mutants, each killed by the XMark differential
# ----------------------------------------------------------------------


def _skip_chain_test(refs, chain, dirty):
    """Mutant: no item ever contains a patch."""


def _skip_carry(old, patches, cum, syms=()):
    """Mutant: the items sit where they sat."""
    return old


def _ignore_changed(needed, refs, steps):
    """Mutant: positions alone decide — no label test."""
    return rekey_verdict(
        needed, refs, [step._replace(changed=frozenset()) for step in steps]
    )


@pytest.mark.parametrize("where, name, mutant", [
    (delta_module, "_on_chain", _skip_chain_test),
    (delta_module, "carry_indices", _skip_carry),
    (store_module, "rekey_verdict", _ignore_changed),
])
def test_the_differential_kills_a_planted_mutant(where, name, mutant):
    with mock.patch.object(where, name, mutant):
        with pytest.raises(AssertionError):
            _run_xmark(_xmark_store(), commits=40, seed=27)


# ----------------------------------------------------------------------
# (iii) A patched answer: shared strings, no stale bytes
# ----------------------------------------------------------------------

DOC = (
    "<db><people>"
    "<person id='p0'><name>ann</name></person>"
    "<person id='p1'><name>bob</name></person>"
    "<person id='p2'><name>cy</name></person>"
    "</people><regions><item><name>i0</name></item></regions></db>"
)


def test_a_patched_answer_shares_untouched_strings_and_drops_its_wire_form():
    store = ViewStore()
    store.put("db", DOC)
    query = "for $x in people/person return $x"
    store.query_serialized("db", query)
    [(_, before)] = store.results.items()
    before.wire()
    old_wire = before.wire()  # asked for again: the entry now holds it
    assert before.wire_bytes == len(old_wire)

    delta = store.commit_delta(
        "db", _t("insert <watch>w</watch> into $a/people/person[@id = 'p1']")
    )
    assert (delta.results_kept, delta.results_patched, delta.results_dropped) == (0, 1, 0)
    [(key, after)] = store.results.items()
    assert key[1] == delta.new_uid and after is not before
    assert after.items[0] is before.items[0] and after.items[2] is before.items[2]
    assert after.items[1] == "<person id=\"p1\"><name>bob</name><watch>w</watch></person>"
    assert before.items[1] == "<person id=\"p1\"><name>bob</name></person>"
    # The old bytes spell the old items and went with the old entry;
    # the entry had been asked for again, so the next build is kept.
    assert after.wire_bytes == 0
    assert json.loads(after.wire()) == list(after.items)
    assert after.wire_bytes == len(after.wire()) and after.wire() != old_wire
    assert store.query_serialized("db", query) == _texts(store.query_naive("db", query))
    assert store.results.stats()["hits"] == 1


def test_a_kept_answer_is_the_same_object_with_its_bytes_and_moved_refs():
    store = ViewStore()
    store.put("db", DOC)
    query = "for $x in regions/item/name return $x"
    store.query_serialized("db", query)
    [(_, answer)] = store.results.items()
    answer.wire()
    wire = answer.wire()
    old_refs = answer.refs
    delta = store.commit_delta(
        "db", _t("insert <watch>w</watch> into $a/people/person[@id = 'p1']")
    )
    assert (delta.results_kept, delta.results_patched, delta.results_dropped) == (1, 0, 0)
    [(_, after)] = store.results.items()
    assert after is answer and answer.wire() is wire
    assert [ref - 2 for ref in answer.refs] == list(old_refs)  # <watch> + its text
    assert answer.refs == _fresh(store, "db", query)[1]


def test_refs_are_taken_only_where_a_commit_can_use_them():
    store = ViewStore()
    store.put("db", DOC)
    store.define_view("v", "db", _t("delete $a/regions"))
    store.stage("db", _t("insert <x/> into $a/people"))
    plain = "for $x in people/person return $x/name"
    for target, query, staged in [
        ("db", plain, False), ("v", plain, False), ("db", plain, True),
        ("db", "for $x in people/person return <r>{$x/name}</r>", False),
        ("db", "for $x in people/person return 'lit'", False),
    ]:
        store.query_serialized(target, query, include_staged=staged)
    held = {
        (key[0], key[2], bool(key[4])): answer.refs
        for key, answer in store.results.items()
    }
    assert list(held.pop(("db", plain, False))) == [3, 6, 9]
    assert len(held) == 4 and set(held.values()) == {None}
    assert node_refs([5, 2]) is None and node_refs([2, 2, 5]) is not None


# ----------------------------------------------------------------------
# The rule and the mover, directly
# ----------------------------------------------------------------------


def _step(store: ViewStore, arena, body: str):
    update = store.compiled.transform(_t(body)).update
    return transform_arena(arena, update, store.compiled.selecting_nfa_for(update.path))


def test_the_rule_is_pure_and_names_why():
    store = ViewStore()
    arena = freeze(parse(DOC))
    persons = node_refs([2, 5, 8])  # the three <person> elements
    insert = _step(store, arena, "insert <watch>w</watch> into $a/people/person[@id = 'p1']")
    assert insert.changed == {"watch"} and insert.chain == {0, 1, 5}
    assert insert.labels == {"watch", "db", "people", "person"}

    needs_person = frozenset({"people", "person"})
    verdict, reason, refs, dirty = rekey_verdict(needs_person, persons, [insert])
    assert (verdict, reason, list(refs), dirty) == ("patch", "", [2, 5, 10], {1})
    assert list(persons) == [2, 5, 8]  # the input is not edited
    assert rekey_verdict(None, persons, [insert])[:2] == ("drop", "unanalyzable")
    assert rekey_verdict(frozenset({"watch", "name"}), persons, [insert])[:2] == (
        "drop", "label:watch"
    )
    # One item of one: re-evaluating costs the reader the same.
    assert rekey_verdict(needs_person, node_refs([5]), [insert])[:2] == ("drop", "wide-patch")
    # No positions: held to the whole delta label set, as a view is.
    assert rekey_verdict(needs_person, None, [insert])[:2] == ("drop", "label:people,person")
    assert rekey_verdict(frozenset({"regions"}), None, [insert]) == ("keep", "", None, None)

    delete = _step(store, arena, "delete $a/people/person[@id = 'p1']/name")
    # The query reaches its items by no label the delete changed, and
    # one of them is gone all the same: the backstop.
    assert rekey_verdict(frozenset(), node_refs([2, 6, 8]), [delete])[:2] == (
        "drop", "removed-item"
    )
    # A rename moves nothing; the renamed node itself is on the chain.
    rename = _step(store, arena, "rename $a/people/person[@id = 'p1'] as member")
    assert rename.patches is None and rename.chain == {0, 1, 5}
    assert rename.changed == {"person", "member"}
    verdict, _, refs, _ = rekey_verdict(frozenset({"regions", "item"}), node_refs([12]), [rename])
    assert verdict == "keep" and list(refs) == [12]


@settings(deadline=None)
@given(tree=trees(), text=transform_texts())
def test_carry_indices_agrees_with_the_definition(tree, text):
    """Every index of the arena at once, one at a time (a list shorter
    than the patch list), and the definition — a kept node lands where
    the spliced arena holds it."""
    store = ViewStore()
    arena = freeze(tree)
    update = store.compiled.transform(text).update
    try:
        step = transform_arena(arena, update, store.compiled.selecting_nfa_for(update.path))
    except ValueError:  # removes the root
        return
    if step.patches is None:
        return
    assert step.cum == shift_table(step.patches)
    removed = set()
    for start, stop, _, _ in step.patches:
        removed.update(range(start, stop))
    kept = [index for index in range(len(arena)) if index not in removed]
    want = [
        index + step.cum[sum(1 for patch in step.patches if patch[1] <= index)]
        for index in kept
    ]
    together = carry_indices(node_refs(range(len(arena))), step.patches, step.cum)
    singly = [
        list(carry_indices(node_refs([index]), step.patches, step.cum))
        for index in range(len(arena))
    ]
    assert list(together) == want
    assert singly == [[want[kept.index(i)]] if i not in removed else [] for i in range(len(arena))]
    for before, after in zip(kept, want):
        assert arena.sym[before] == step.arena.sym[after]
        assert arena.payload[before] == step.arena.payload[after]


# ----------------------------------------------------------------------
# Satellites: the indexed re-key, multi-entry commits, counted reasons
# ----------------------------------------------------------------------


def test_rekey_visits_only_the_named_groups_in_place():
    cache = LRUCache(2048, group=lambda key: key[0])
    for n in range(1000):
        cache.put(("aux", 1, n), n)
    for n in range(5):
        cache.put(("db", 7, n), n)
    cache.put(("aux", 1, "late"), "late")
    calls = []

    def mapper(key, value):
        calls.append(key)
        if key[2] == 1:
            return None
        return (key[0], 8, key[2]), value * 10

    before = [key for key, _ in cache.items()]
    assert cache.rekey(mapper, ["db", "nothing-cached-here"]) == (4, 1)
    assert sorted(calls) == [("db", 7, n) for n in range(5)]
    # In place: recency order is what it was, minus the dropped entry.
    renamed = [("db", 8, key[2]) if key[0] == "db" else key for key in before]
    renamed.remove(("db", 8, 1))
    assert [key for key, _ in cache.items()] == renamed
    assert cache.get(("db", 8, 3)) == 30 and ("db", 7, 3) not in cache
    # The side table follows eviction and invalidation.
    cache.invalidate(lambda key: key[0] == "aux")
    assert len(cache) == 4 and cache.rekey(mapper, ["aux"]) == (0, 0)
    small = LRUCache(2, group=lambda key: key[0])
    for n in range(5):
        small.put(("db", n), n)
    seen = []
    small.rekey(lambda key, value: seen.append(key) or (key, value), ["db"])
    assert seen == [("db", 3), ("db", 4)]
    with pytest.raises(ValueError):
        LRUCache(2).rekey(mapper, ["db"])


@pytest.mark.parametrize("early_first", [False, True])
def test_a_rename_onto_a_key_already_published_keeps_the_moved_entry(early_first):
    """The moved entry takes the key, whichever of the two the pass
    meets first, and is not handed to the mapper a second time."""
    cache = LRUCache(8, group=lambda key: key[0])
    puts = [(("db", 7, "q"), "moved"), (("db", 8, "q"), "early")]
    for key, value in reversed(puts) if early_first else puts:
        cache.put(key, value)
    cache.put(("db", 7, "r"), "other")
    calls = []

    def mapper(key, value):
        calls.append(key)
        return ((key[0], 8, key[2]), value) if key[1] == 7 else None

    assert cache.rekey(mapper, ["db"]) == (2, 1 if early_first else 0)
    assert sorted(cache.items()) == [(("db", 8, "q"), "moved"), (("db", 8, "r"), "other")]
    assert calls.count(("db", 8, "q")) == early_first
    # The side tables agree: nothing is left under the old keys.
    assert cache.rekey(lambda key, value: (key, value), ["db"]) == (0, 0)
    assert cache.invalidate(lambda key: True) == 2 and len(cache) == 0


def test_an_early_publisher_on_the_new_arena_does_not_cost_the_kept_entry():
    """``doc.install`` comes before the re-key, outside the document
    lock: a reader can pin the new arena and publish under the new key
    first.  One entry survives, counted as kept and not as dropped."""
    store = ViewStore()
    store.put("db", DOC)
    query = "for $x in people/person return $x/name"
    kept = store.query_serialized("db", query)
    rekey_results = store._rekey_results

    def published_first(verdicts, outcome, old_uid, new_uid):
        store.query_serialized("db", query)  # a miss on the new arena: evaluates, puts
        assert len(store.results) == 2
        return rekey_results(verdicts, outcome, old_uid, new_uid)

    with mock.patch.object(store, "_rekey_results", published_first):
        delta = store.commit_delta("db", _t("insert <x/> into $a/regions"))
    assert (delta.results_kept, delta.results_patched, delta.results_dropped) == (1, 0, 0)
    assert delta.drop_reasons == {}
    assert [list(answer.items) for _, answer in store.results.items()] == [kept]
    assert _check_survivors(store, "db") == 1


def test_a_commit_calls_the_rule_for_no_entry_of_another_document():
    store = ViewStore()
    store.put("db", DOC)
    store.put("aux", "<aux><n>1</n><n>2</n></aux>")
    for n in range(50):
        store.query_serialized("aux", f"for $x in n[. = '{n}'] return $x")
    store.query_serialized("db", "for $x in people/person return $x/name")
    aux_before = [(key, answer) for key, answer in store.results.items() if key[0] == "aux"]
    with mock.patch.object(
        store_module, "rekey_verdict", wraps=store_module.rekey_verdict
    ) as rule:
        delta = store.commit_delta("db", _t("insert <x/> into $a/regions"))
    assert rule.call_count == 1 and delta.results_kept == 1
    after = store.results.items()
    assert [(k, a) for k, a in after if k[0] == "aux"] == aux_before
    assert after[-1][0][0] == "db"  # still the most recent


def test_a_two_entry_commit_keeps_what_neither_entry_touched():
    store = ViewStore()
    store.put("db", generate(0.005, 42))
    untouched = [
        "for $x in people/person return $x/name",
        "for $x in regions//item/name return $x",
        "for $x in open_auctions/open_auction return $x/initial",
    ]
    patched = "for $x in people/person return $x"
    for query in untouched + [patched]:
        store.query_serialized("db", query)
    held = dict(store.results.items())
    store.stage("db", _t("insert <bench_marker/> into $a/regions"))
    delta = store.commit_delta(
        "db", _t("insert <watch>w</watch> into $a/people/person[@id = 'person2']")
    )
    assert delta.entries == 2 and delta.patches == 2
    assert (delta.results_kept, delta.results_patched, delta.results_dropped) == (3, 1, 0)
    for key, answer in store.results.items():
        items, refs = _fresh(store, "db", key[2])
        assert list(answer.items) == items == _texts(store.query_naive("db", key[2]))
        assert answer.refs == refs
        old = held[("db", delta.old_uid) + key[2:]]
        assert (answer is old) == (key[2] != patched)


def test_every_drop_has_a_counted_reason():
    store = ViewStore()
    registry = MetricsRegistry()
    store.bind_metrics(registry)
    store.put("db", DOC)
    store.define_view("v", "db", _t("delete $a/regions/item/name"))
    reads = [
        ("db", "for $x in people/person return $x", False),         # patched
        ("db", "for $x in regions/item return $x", False),          # kept
        ("db", "for $x in people/person/watch return $x", False),   # label:watch
        ("db", "for $x in people/* return $x", False),              # unanalyzable
        ("db", "for $x in people/person[@id = 'p1'] return $x", False),  # wide-patch
        ("db", "for $x in regions return $x", True),                # staged
        ("v", "for $x in people/person return $x/name", False),     # view-labels
    ]
    store.stage("db", _t("insert <watch>w</watch> into $a/people/person[@id = 'p1']"))
    for target, query, staged in reads:
        store.query_serialized(target, query, include_staged=staged)
    # What a late publisher leaves: an entry on an arena already dead.
    store.results.put(("db", -1, "for $x in regions return $x", (), ()), Answer(["<late/>"]))
    delta = store.commit_delta("db")
    assert (delta.results_kept, delta.results_patched, delta.results_dropped) == (1, 1, 6)
    assert delta.drop_reasons == {
        "label:watch": 1, "unanalyzable": 1, "wide-patch": 1, "staged": 1,
        "view-labels": 1, "late-publisher": 1,
    }
    snapshot = registry.snapshot()
    assert snapshot["store.commit.delta.results_kept"] == 2  # kept + patched
    assert snapshot["store.commit.delta.results_patched"] == 1
    assert snapshot["store.commit.delta.results_dropped"] == 6
    want = dict.fromkeys(DROP_REASONS, 0)
    want.update({
        "label": 1, "unanalyzable": 1, "wide-patch": 1, "staged": 1,
        "view-labels": 1, "late-publisher": 1,
    })
    for reason, count in want.items():
        name = "store.commit.drop_reason." + reason.replace("-", "_")
        assert snapshot[name] == count, name
    last = store.stats()["commits"]["last"]
    assert last["results_patched"] == 1 and last["drop_reasons"] == delta.drop_reasons
    assert last["retention_ratio"] == 2 / 8

    # A commit removing most of the document is a splice like any
    # other: what it missed survives, what it removed drops by label.
    store.query_serialized("db", "for $x in regions/item return $x")
    delta = store.commit_delta("db", _t("delete $a/people"))
    assert (delta.results_kept, delta.results_patched) == (1, 0), delta
    assert all(reason.startswith("label:") for reason in delta.drop_reasons), delta
    assert _check_survivors(store, "db", oracle=True) == 1
    assert not [name for name in registry.snapshot() if "rebuild" in name]


def test_store_stat_prints_the_last_commits_verdicts(tmp_path, capsys):
    state = str(tmp_path / "state")
    store = open_store(state)
    store.put("db", DOC)
    save_store(store, state)
    # Logged, not checkpointed: ``stat`` replays it, so it has a last commit.
    store.commit("db", _t("insert <x/> into $a/regions"))
    store.wal.close()
    assert main(["store", "stat", "--state", state]) == 0
    assert "      results: 0 kept, 0 patched, 0 dropped\n" in capsys.readouterr().out
