"""Incremental commits: the version chain and the one commit path, a splice.

The oracle throughout is the paper's semantics: whatever a spliced
commit produces must serialize identically to what the rebuild function
(:func:`repro.store.delta.apply_entries_rebuilt` — thaw, apply, freeze)
produces for the same staged sequence, and both to ``transform_naive``
folded over a parsed copy — deterministically per update kind through
a store, and as one property-based differential over random trees and
random update sequences, with no second store anywhere.  On top of
equivalence: chain time travel (``pin(version=N)``), snapshot
isolation for readers pinned to old chain versions while a writer
splices, structural sharing between consecutive chain entries, the
delta-scoped invalidation receipts (results kept by label
disjointness, materializations kept by the swallow test), and the
one-representation contract (a plain document never builds its Node
cache on the open → read → commit → checkpoint path).
"""

import dataclasses
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import deep_chain
from repro.compiled import CompiledCache
from repro.obs import MetricsRegistry
from repro.store import MaterializationPolicy, StoreError, ViewStore
from repro.store.delta import apply_entries_rebuilt, apply_entries_spliced
from repro.store.errors import WalCorruptError
from repro.store.log import StagedUpdate
from repro.store.state import open_store, save_store
from repro.store.wal import WalWriter, wal_path
from repro.transform.arena import transform_arena
from repro.transform.naive import transform_naive
from repro.xmltree.arena import freeze, freeze_segment, splice, thaw
from repro.xmltree.parser import parse
from repro.xmltree.serializer import serialize, serialize_arena, write_file

from tests.strategies import transform_texts, trees

DOC = "<db><a><x>1</x></a><b><y>2</y></b><c>3</c></db>"


def _transform(body: str, name: str = "db") -> str:
    return (
        f'transform copy $a := doc("{name}") modify do {body} return $a'
    )


def _staged(texts, compiled=None):
    """The staged entries a store would hand the derivation functions."""
    compiled = compiled if compiled is not None else CompiledCache()
    return compiled, [StagedUpdate(compiled.transform(text), text) for text in texts]


def _naive_xml(xml: str, entries) -> str:
    """``transform_naive`` folded over a parsed copy, serialized."""
    tree = parse(xml)
    for entry in entries:
        tree = transform_naive(tree, entry.transform)
    return serialize(tree)


def _assert_wellformed(arena) -> None:
    """Structural invariants of a pre-order arena: parents precede
    their children and subtree ranges nest."""
    n = len(arena)
    par = [arena.parent_of(i) for i in range(n)]
    end = [arena.end_of(i) for i in range(n)]
    assert len(arena.sym) == n and len(arena.up) == len(arena.size) == n
    assert len(arena.payload) == n
    assert par[0] == -1 and end[0] == n
    open_chain = [0]  # the ancestors whose range holds i, innermost last
    for i in range(1, n):
        while end[open_chain[-1]] <= i:
            open_chain.pop()
        p = open_chain[-1]
        assert par[i] == p, (i, par[i], p)
        assert i < end[i] <= end[p], (i, end[i], end[p])
        open_chain.append(i)
    assert arena.n_elements == sum(1 for s in arena.sym if s >= 0)


# ----------------------------------------------------------------------
# Splice == rebuild == naive: deterministic per update kind, via a store
# ----------------------------------------------------------------------


class TestCommitMatchesTheReferences:
    def _commit(self, xml: str, text: str):
        """Commit *text* through a store; returns ``(store, receipt,
        committed XML, rebuild-function XML, naive XML)``."""
        store = ViewStore()
        store.put("db", xml)
        base = store.pin("db").arena
        _, entries = _staged([text], store.compiled)
        delta = store.commit_delta("db", text)
        snapshot = store.pin("db")
        _assert_wellformed(snapshot.arena)
        rebuilt = apply_entries_rebuilt(base, entries)
        return (
            store, delta, serialize_arena(snapshot.arena),
            serialize_arena(rebuilt), _naive_xml(xml, entries),
        )

    @pytest.mark.parametrize(
        "body",
        [
            "insert <w><t>9</t></w> into $a/b",
            "delete $a/a/x",
            "replace $a/c with <c>9</c>",
            "rename $a//y as z",
        ],
        ids=["insert", "delete", "replace", "rename"],
    )
    def test_each_kind_splices_and_matches_the_rebuild(self, body):
        store, delta, committed, rebuilt, naive = self._commit(DOC, _transform(body))
        assert delta.entries == 1 and delta.patches >= 1, delta
        assert delta.new_version == delta.old_version + 1
        assert committed == rebuilt == naive

    def test_zero_match_update_is_a_spliced_identity(self):
        _, delta, committed, rebuilt, naive = self._commit(
            DOC, _transform("delete $a/nosuch")
        )
        assert delta.entries == 1 and delta.patches == 0 and delta.touched_nodes == 0
        assert committed == rebuilt == naive == DOC

    def test_document_spanning_delete_splices_and_keeps_what_it_missed(self):
        # A delta covering most of the document is a splice like any
        # other: one patch, the chain records it, and a cached answer
        # beside it survives by position.
        wide = "<db><big><x>1</x><y>2</y><z>3</z></big><s/></db>"
        store = ViewStore()
        store.put("db", wide)
        base = store.pin("db").arena
        query = "for $i in s return $i"
        assert store.query_serialized("db", query) == ["<s/>"]
        held = dict(store.results.items())
        text = _transform("delete $a/big")
        _, entries = _staged([text], store.compiled)
        delta = store.commit_delta("db", text)
        assert delta.entries == 1 and delta.patches == 1, delta
        assert delta.touched_nodes > len(base) // 2, delta
        assert (delta.results_kept, delta.results_dropped) == (1, 0), delta
        committed = serialize_arena(store.pin("db").arena)
        assert committed == serialize_arena(apply_entries_rebuilt(base, entries))
        assert committed == _naive_xml(wide, entries) == "<db><s/></db>"
        (key, answer), = store.results.items()
        assert key[1] == delta.new_uid and answer is held[("db", delta.old_uid) + key[2:]]
        assert store.query_serialized("db", query) == ["<s/>"]
        assert store.results.stats()["hits"] == 1
        doc = store.documents.get("db")
        assert doc.version == 2 and doc.splices == 1 and doc.arena_builds == 1
        assert [entry.kind for entry in doc.chain.snapshot()] == ["load", "splice"]
        commits = store.stats()["commits"]
        assert commits["spliced"] == 1 and "rebuilds" not in commits
        registry = MetricsRegistry()
        store.bind_metrics(registry)
        metrics = registry.snapshot()
        assert metrics["store.commit.delta.spliced"] == 1
        assert not [name for name in metrics if "rebuild" in name]


# ----------------------------------------------------------------------
# A path the selecting automaton refuses is refused when it is staged
# ----------------------------------------------------------------------

#: ``$a/.`` selects the root itself; ``//.[x]`` puts a qualifier on
#: the looping descendant state.  Both are ``ValueError`` s of the
#: automaton, as a view definition and a staged read raise them.
UNCOMPILABLE = ["delete $a/.", "delete $a//.[x]"]


@pytest.mark.parametrize("body", UNCOMPILABLE)
def test_stage_refuses_a_path_the_automaton_cannot_compile(body):
    store = ViewStore()
    store.put("db", DOC)
    store.query_serialized("db", "for $x in a return $x")
    text = _transform(body)
    with pytest.raises(ValueError) as defined:
        store.define_view("v", "db", text)
    with pytest.raises(ValueError) as staged:
        store.stage("db", text)
    assert str(staged.value) == str(defined.value)
    with pytest.raises(ValueError):
        store.commit_delta("db", text)
    assert store.log.staged("db") == []
    # Nothing was committed: the version, the arena and the cache stand.
    delta = store.commit_delta("db")
    assert delta.entries == 0 and delta.new_version == 1
    assert len(store.results) == 1
    assert serialize_arena(store.pin("db").arena) == DOC


def test_replay_refuses_a_logged_update_this_build_will_not_stage(tmp_path):
    """A WAL record of such an update (only an older build could have
    written one) stops recovery with an error naming the record; it is
    never skipped."""
    state_dir = str(tmp_path / "st")
    seed = ViewStore()
    seed.put("db", DOC)
    save_store(seed, state_dir)
    wal = WalWriter(wal_path(state_dir))
    wal.append({
        "kind": "commit", "doc": "db", "version": 2,
        "texts": [_transform("insert <w/> into $a/b"), _transform(UNCOMPILABLE[0])],
    })
    wal.close()
    with pytest.raises(WalCorruptError, match=r"commit record for 'db' v2 cannot be applied"):
        open_store(state_dir)


# ----------------------------------------------------------------------
# Splice == rebuild == naive: one differential over random sequences
# ----------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(tree=trees(), texts=st.lists(transform_texts(), min_size=1, max_size=3))
def test_splice_rebuild_and_naive_agree_byte_for_byte(tree, texts):
    compiled, entries = _staged(texts)
    base = freeze(tree)
    before = serialize_arena(base)
    want = _naive_xml(before, entries)

    rebuilt = apply_entries_rebuilt(base, entries)
    _assert_wellformed(rebuilt)
    assert serialize_arena(rebuilt) == want

    spliced = apply_entries_spliced(base, entries)
    _assert_wellformed(spliced.arena)
    assert len(spliced.steps) == len(entries)
    assert serialize_arena(spliced.arena) == want
    # Neither derivation touched the arena it derived from.
    assert serialize_arena(base) == before


# ----------------------------------------------------------------------
# One representation: a document's lifecycle runs on columns only
# ----------------------------------------------------------------------


def test_plain_document_lifecycle_never_thaws_the_document(tmp_path, thaw_calls):
    """``open_store`` → reads → spliced commits → ``save_store`` on a
    plain document runs on columns only — the one ``thaw`` is the
    element result ``query`` hands back — and the checkpoint file is
    byte-identical to what the Node serializer writes."""
    state_dir = str(tmp_path / "st")
    seed = ViewStore()
    seed.put("db", DOC)
    save_store(seed, state_dir)

    store = open_store(state_dir)
    doc = store.documents.get("db")
    assert doc.arena_builds == 1 and doc.version == 1
    assert store.query_serialized("db", "for $x in b/y return $x") == ["<y>2</y>"]
    assert [serialize(x) for x in store.query("db", "for $x in a/x return $x")] == [
        "<x>1</x>"
    ]
    for body in ("insert <w>9</w> into $a/b", "rename $a//y as z", "delete $a/a/x"):
        assert store.commit_delta("db", _transform(body)).entries == 1
    assert store.stats()["documents"]["db"]["nodes"] == len(doc.arena)
    save_store(store, state_dir)
    store.wal.close()
    assert len(thaw_calls) == 1 and thaw_calls[0] != 0
    assert doc.arena_builds == 1 and doc.splices == 3

    reference = str(tmp_path / "reference.xml")
    write_file(thaw(doc.arena), reference)
    with open(f"{state_dir}/doc-db-v4.xml", "rb") as written, open(reference, "rb") as want:
        assert written.read() == want.read()


# ----------------------------------------------------------------------
# The version chain: time travel and structural sharing
# ----------------------------------------------------------------------


def test_pin_time_travel_on_the_chain():
    store = ViewStore()
    store.put("db", "<db><a>1</a></db>")
    store.commit("db", _transform("insert <b>2</b> into $a/a"))
    store.commit("db", _transform("insert <c>3</c> into $a/a"))
    assert store.pin("db").version == 3

    v1 = serialize_arena(store.pin("db", version=1).arena)
    v2 = serialize_arena(store.pin("db", version=2).arena)
    assert "<b>2</b>" not in v1 and "<c>3</c>" not in v1
    assert "<b>2</b>" in v2 and "<c>3</c>" not in v2
    assert "<c>3</c>" in serialize_arena(store.pin("db", version=3).arena)

    with pytest.raises(StoreError) as excinfo:
        store.pin("db", version=99)
    assert "resident" in str(excinfo.value)


def test_spliced_versions_share_structure():
    store = ViewStore()
    store.put("db", DOC)
    store.commit("db", _transform("insert <w>9</w> into $a/b"))
    store.commit("db", _transform("rename $a//y as z"))

    a1 = store.pin("db", version=1).arena
    a2 = store.pin("db", version=2).arena
    a3 = store.pin("db", version=3).arena
    assert a2.symbols is a1.symbols and a3.symbols is a1.symbols
    # A rename touches only the symbol column: everything else aliases.
    assert a3.up is a2.up and a3.size is a2.size
    assert a3.payload is a2.payload
    assert a3.attr_keys is a2.attr_keys and a3.attr_values is a2.attr_values

    info = store.chain_info("db")
    assert info["length"] == 3 and info["splices"] == 2
    assert [row["version"] for row in info["per_version"]] == [1, 2, 3]
    assert info["per_version"][1]["shared_bytes"] > 0
    assert info["per_version"][2]["shared_bytes"] > 0
    doc = store.documents.get("db")
    assert doc.splices == 2 and doc.arena_builds == 1


def test_chain_retention_limit_evicts_oldest():
    store = ViewStore()
    store.put("db", "<db><a/></db>")
    doc = store.documents.get("db")
    for _ in range(doc.chain.limit + 2):
        store.commit("db", _transform("insert <b/> into $a/a"))
    assert len(doc.chain) == doc.chain.limit
    with pytest.raises(StoreError):
        store.pin("db", version=1)


def test_an_evicted_version_dies_outside_the_document_lock():
    """The commit that pushes the oldest version off the chain frees it
    after releasing the document lock (and the chain's): a reader's
    ``pin()`` never waits behind deallocating an old arena."""

    class StandIn:
        pass

    store = ViewStore()
    store.put("db", "<db><a/></db>")
    doc = store.documents.get("db")
    chain = doc.chain
    stand_in = StandIn()
    oldest = chain.snapshot()[0]
    chain._entries[0] = dataclasses.replace(oldest, arena=stand_in)
    locks_at_death: list = []
    weakref.finalize(
        stand_in,
        lambda: locks_at_death.append((doc.lock.locked(), chain._lock.locked())),
    )
    del stand_in, oldest
    for _ in range(chain.limit - 1):
        store.commit("db", _transform("insert <b/> into $a/a"))
    assert locks_at_death == [] and chain.versions()[0] == 1
    store.commit("db", _transform("insert <b/> into $a/a"))
    assert chain.versions()[0] == 2
    assert locks_at_death == [(False, False)]


# ----------------------------------------------------------------------
# Snapshot isolation: readers on old chain versions vs a splicing writer
# ----------------------------------------------------------------------


PAIRED = [
    _transform("insert <t/> into $a/left"),
    _transform("insert <t/> into $a/right"),
]


def test_readers_pinned_to_old_versions_never_observe_splices():
    """A writer splices paired inserts while readers re-pin version 1
    and the latest version: the old snapshot must stay byte-identical
    and the latest must never expose half a commit (odd ``<t/>``)."""
    store = ViewStore()
    store.put("db", "<db><left><l/></left><right><r/></right></db>")
    baseline = serialize_arena(store.pin("db").arena)
    commits = 5  # stays within the chain retention limit
    done = threading.Event()
    errors: list = []
    torn: list = []

    def writer():
        try:
            for _ in range(commits):
                for text in PAIRED:
                    store.stage("db", text)
                delta = store.commit_delta("db")
                if delta.entries != 2:
                    errors.append(AssertionError(f"not a two-entry commit: {delta}"))
                    return
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)
        finally:
            done.set()

    def reader():
        try:
            rounds = 0
            while rounds < 2000 and not (done.is_set() and rounds >= 20):
                rounds += 1
                if serialize_arena(store.pin("db", version=1).arena) != baseline:
                    torn.append("pinned v1 drifted")
                    return
                latest = store.pin("db").arena
                count = sum(
                    1
                    for i in range(len(latest))
                    if latest.is_element(i) and latest.label(i) == "t"
                )
                if count % 2:
                    torn.append(("odd commit observed", count))
                    return
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors.append(exc)

    writer_thread = threading.Thread(target=writer)
    reader_threads = [threading.Thread(target=reader) for _ in range(3)]
    writer_thread.start()
    for thread in reader_threads:
        thread.start()
    for thread in reader_threads:
        thread.join()
    writer_thread.join()
    assert not errors, errors
    assert not torn, torn
    assert store.documents.get("db").splices == commits
    assert serialize_arena(store.pin("db", version=1).arena) == baseline


# ----------------------------------------------------------------------
# Delta-scoped invalidation receipts
# ----------------------------------------------------------------------


def test_disjoint_results_survive_a_spliced_commit():
    """``insert <w/> into $a/a`` changes no ``x`` and no ``y``: both
    answers survive (the label rule used to drop ``a/x`` for naming the
    attach point's label), the one *containing* the patch is patched,
    and the one naming the new label drops."""
    store = ViewStore()
    store.put("db", DOC)
    queries = {
        "beside": "for $x in b/y return $x",
        "below": "for $x in a/x return $x",
        "around": "for $x in a return $x",
        "named": "for $x in a/w return $x",
    }
    before = {name: store.query_serialized("db", q) for name, q in queries.items()}

    delta = store.commit_delta("db", _transform("insert <w>9</w> into $a/a"))
    assert delta.entries == 1, delta
    assert delta.labels is not None
    assert "a" in delta.labels and "b" not in delta.labels
    assert (delta.results_kept, delta.results_patched, delta.results_dropped) == (
        2, 0, 2
    ), delta
    # One item of one is more than half: re-evaluating costs the same.
    assert delta.drop_reasons == {"wide-patch": 1, "label:w": 1}
    # The kept results were re-keyed onto the new arena: cache hits,
    # each equal to the oracle's answer.
    for name, q in queries.items():
        rows = store.query_serialized("db", q)
        assert rows == [serialize(n) for n in store.query_naive("db", q)]
        assert (rows == before[name]) == (name in ("beside", "below"))
    assert store.results.stats()["hits"] == 2
    assert {key[1] for key, _ in store.results.items()} == {delta.new_uid}


def test_swallowed_commit_keeps_the_view_materialization():
    """A commit that lands entirely inside a subtree the view deletes
    cannot change the view's output: its materialization is re-stamped,
    not rebuilt."""
    store = ViewStore(policy=MaterializationPolicy(hot_threshold=1))
    store.put("db", "<db><part><pname>kb</pname><secret><cost>1</cost></secret></part></db>")
    store.define_view("public", "db", _transform("delete $a//secret"))
    query = "for $x in part/pname return $x"
    store.query("public", query)
    view = store.views.get("public")
    assert view.materialized_root is not None

    delta = store.commit_delta(
        "db", _transform("insert <cost>2</cost> into $a/part/secret")
    )
    assert delta.entries == 1, delta
    assert delta.mats_kept == 1 and delta.mats_dropped == 0, delta
    assert view.materialized_root is not None
    assert view.materialized_version == delta.new_version
    assert [serialize(row) for row in store.query("public", query)] == [
        serialize(row) for row in store.query_naive("public", query)
    ]

    # A commit the view does NOT swallow drops the materialization.
    delta = store.commit_delta(
        "db", _transform("insert <pname>mouse</pname> into $a/part")
    )
    assert delta.entries == 1, delta
    assert delta.mats_kept == 0 and delta.mats_dropped == 1, delta
    assert view.materialized_root is None
    assert [serialize(row) for row in store.query("public", query)] == [
        serialize(row) for row in store.query_naive("public", query)
    ]


# ----------------------------------------------------------------------
# Deep chains: nested patches, every attach point under every other
# ----------------------------------------------------------------------


@pytest.mark.parametrize("fanout", [0, 3])
@pytest.mark.parametrize(
    "body",
    [
        "insert <m><t>9</t></m> into $a//a",
        "delete $a//a[.//b]/*[not(.//b)]",
        "replace $a//a/*[not(.//b)] with <c><m/><m/></c>",
        "rename $a//*[.//b] as seen",
    ],
    ids=["insert", "delete", "replace", "rename"],
)
def test_nested_patches_on_a_deep_chain_equal_the_naive_columns(body, fanout):
    """Hundreds of attach points on one ancestor chain: ``splice``
    records each net at its attach point and sums the chain once, and
    the columns are those of freezing the naive result."""
    root = deep_chain(400, fanout)
    compiled = CompiledCache()
    transform = compiled.transform(_transform(body, "deep"))
    step = transform_arena(
        freeze(root), transform.update, compiled.selecting_nfa_for(transform.update.path)
    )
    want = freeze(transform_naive(root, transform))
    got = step.arena
    assert step.ranges
    _assert_wellformed(got)
    assert (got.sym, got.up, got.size) == (want.sym, want.up, want.size)
    assert (got.payload, got.attr_keys, got.attr_values, got.n_elements) == (
        want.payload, want.attr_keys, want.attr_values, want.n_elements
    )


def test_one_splice_may_grow_here_and_shrink_there():
    """Patches whose nets have both signs, in either order: every
    kept node right of the first patch moves by the running sum."""
    xml = "<r><a><x>1</x><y>2</y></a><b><c/></b><d><e>3</e><e>4</e></d><f k='v'/></r>"
    base = freeze(parse(xml))
    at = {base.label(i): i for i in base.iter_elements()}
    big = freeze_segment(parse("<n><m>9</m><m>8</m><m>7</m></n>"))
    small = freeze_segment(parse("<s/>"))

    def remove(label, segment=None):
        i = at[label]
        return (i, base.end_of(i), base.parent_of(i), segment)

    def insert(label, segment):
        i = at[label]
        return (base.end_of(i), base.end_of(i), i, segment)

    cases = {
        "grow, then shrink": (
            [insert("a", big), remove("d")],
            "<r><a><x>1</x><y>2</y><n><m>9</m><m>8</m><m>7</m></n></a>"
            "<b><c/></b><f k=\"v\"/></r>",
        ),
        "shrink, then grow": (
            [remove("a", small), insert("d", big), insert("f", small)],
            "<r><s/><b><c/></b><d><e>3</e><e>4</e><n><m>9</m><m>8</m><m>7</m></n></d>"
            "<f k=\"v\"><s/></f></r>",
        ),
        "back to zero": (
            [remove("x"), insert("b", small), remove("f", big)],
            "<r><a><y>2</y></a><b><c/><s/></b><d><e>3</e><e>4</e></d>"
            "<n><m>9</m><m>8</m><m>7</m></n></r>",
        ),
    }
    for name, (patches, want) in cases.items():
        got = splice(base, patches)
        _assert_wellformed(got)
        assert serialize_arena(got) == want, name
        again = freeze(parse(want))
        assert got.attr_keys == again.attr_keys, name
        assert got.attr_values == again.attr_values, name


def test_splice_rejects_an_insertion_into_a_removed_subtree():
    base = freeze(parse("<r><a><b/></a><c/></r>"))
    a, b = 1, 2
    inside = (base.end_of(b), base.end_of(b), b, freeze_segment(parse("<s/>")))
    with pytest.raises(ValueError, match="inside a removed range"):
        splice(base, [(a, base.end_of(a), 0, None), inside])
    with pytest.raises(ValueError, match="overlaps an earlier patch"):
        splice(base, [(a, base.end_of(a), 0, None), (b, base.end_of(b), a, None)])
