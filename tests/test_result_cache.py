"""The one result cache (``ViewStore.results``), under random histories.

One state machine drives a store behind a service through puts, view
definitions, stagings, commits, rollbacks, drop-and-redefine and
drop-and-reload, reading through all three fronts — the store, the
service and the wire (``handle_request`` + ``encode_response``, what
the server's handler runs) — and every commit first reads a fixed pool
on every target, so it has entries to keep, move or drop.  Whatever the history:

* every answer the cache could hand out — an entry whose key a read of
  the current state would build — equals ``query_naive``, serialized,
  and so does what its wire form decodes to (an entry carries its
  bytes across every re-key that keeps it), and an entry that knows
  where its items sit (``refs`` — what the next commit's keep / patch /
  drop verdict rests on) names the refs a fresh evaluation finds;
* once a commit (or a reload) returns, no key names an arena that is
  not some document's current one.  The machine is single-threaded, so
  there is no late publisher; that case has its own test in
  ``test_service.py``.
"""

import io

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import QueryService, serialize
from repro.service.protocol import encode_response, handle_request, read_response
from repro.store import ViewStore
from repro.store.answer import body_items, node_refs
from repro.xmltree.node import Element

from tests.strategies import transform_texts, trees, user_queries

AUX = "<a><b>1</b><c><b>5</b></c></a>"


def _t(body: str) -> str:
    return f'transform copy $a := doc("db") modify do {body} return $a'


#: Defined over every fresh ``db``: a stack whose innermost layer can
#: swallow a commit, and one whose labels a commit can overlap while
#: the query's do not.
SEED_VIEWS = {"hide": _t("delete $a/c"), "ren": _t("rename $a//b as e")}

#: Read on every target before each commit, so every commit has
#: entries to keep, move or drop.
POOL = [f"for $x in {path} return $x" for path in ("//a", "//b", "//c", "//d", "//e", "*")]


def _texts(items) -> list:
    return [serialize(x) if isinstance(x, Element) else str(x) for x in items]


class ResultCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = ViewStore()
        self.service = QueryService(store=self.store)
        self.service.put("db", "<a><b>1</b><c><d>x</d></c></a>")
        self.service.put("aux", AUX)  # never written: its entries outlive db's commits
        #: view name → its base; a *leaf* is a view nothing stacks on.
        self.bases: dict = {}
        self.defined = 0
        self.wire_responses = 0
        self._seed_views()

    def _seed_views(self):
        for name, text in SEED_VIEWS.items():
            self.service.define_view(name, "db", text)
            self.bases[name] = "db"

    def _leaves(self):
        return sorted(set(self.bases) - set(self.bases.values()))

    def teardown(self):
        self.service.close()

    # -- writes ----------------------------------------------------------

    @rule(text=transform_texts(), data=st.data())
    def define_view(self, text, data):
        name = f"v{self.defined}"
        self.defined += 1
        base = data.draw(st.sampled_from(["db"] + sorted(self.bases)))
        self.service.define_view(name, base, text)
        self.bases[name] = base

    @rule(text=st.none() | transform_texts())
    def stage_or_rollback(self, text):
        if text is not None:
            self.service.stage("db", text)
        elif self.store.log.staged("db"):
            self.service.rollback("db")

    @rule(text=st.none() | transform_texts())
    def commit(self, text):
        """Whatever is staged, plus *text*."""
        for index, target in enumerate(["db", "aux"] + sorted(self.bases)):
            self._read(target, POOL, staged=False, through_service=index % 2 == 0)
        self._read("db", POOL[:2], staged=True, through_service=True)
        aux_entries = self._entries_over("aux")
        self.service.commit("db", text)
        if self.store.last_delta.entries:  # a no-op commit touches no cache
            self._every_key_names_a_live_arena()
        assert self._entries_over("aux") == aux_entries

    @rule(text=transform_texts(), data=st.data())
    def drop_and_redefine(self, text, data):
        name = data.draw(st.sampled_from(self._leaves()))
        self.service.drop(name)
        self.service.define_view(name, self.bases[name], text)

    @rule(tree=trees(), reload=st.booleans())
    def put_or_drop_and_reload(self, tree, reload):
        if not reload:
            self.service.put("db", serialize(tree), replace=True)
            return
        while self.bases:
            for name in self._leaves():
                self.service.drop(name)
                del self.bases[name]
        self.service.drop("db")
        self.service.put("db", serialize(tree))
        assert self.store.pin("db").version == 1
        self._every_key_names_a_live_arena()
        self._seed_views()

    # -- reads -----------------------------------------------------------

    @rule(
        queries=st.lists(user_queries(), min_size=1, max_size=4), data=st.data(),
        staged=st.booleans(), through_service=st.booleans(),
    )
    def read(self, queries, data, staged, through_service):
        target = data.draw(st.sampled_from(["db", "aux"] + sorted(self.bases)))
        self._read(target, queries, staged, through_service)

    @rule(
        queries=st.lists(user_queries(), min_size=1, max_size=4), data=st.data(),
        staged=st.booleans(), repeats=st.integers(1, 3),
    )
    def wire_read(self, queries, data, staged, repeats):
        """The server's handler, minus the socket: a repeat is answered
        from the bytes the entry holds."""
        target = data.draw(st.sampled_from(["db", "aux"] + sorted(self.bases)))
        for query in queries:
            expected = self._oracle(target, query, staged)
            for _ in range(repeats):
                self.wire_responses += 1
                frame = {
                    "id": self.wire_responses, "op": "query",
                    "target": target, "text": query, "staged": staged,
                }
                response = encode_response(frame["id"], handle_request(self.service, frame))
                decoded = read_response(io.BytesIO(response))
                assert (decoded["id"], decoded["ok"], decoded["result"]) == (
                    frame["id"], True, expected,
                )

    def _read(self, target, queries, staged, through_service):
        for query in queries:
            if through_service:
                answer = self.service.query(target, query, staged=staged)
            else:
                answer = self.store.query_serialized(
                    target, query, include_staged=staged
                )
            assert answer == self._oracle(target, query, staged)

    # -- the two properties ------------------------------------------------

    def _oracle(self, target, query, staged):
        return _texts(self.store.query_naive(target, query, include_staged=staged))

    def _entries_over(self, target):
        return {key for key, _ in self.store.results.items() if key[0] == target}

    def _every_key_names_a_live_arena(self):
        live = {self.store.pin(name).uid for name in self.store.documents.names()}
        dead = [key for key, _ in self.store.results.items() if key[1] not in live]
        assert not dead, dead

    @invariant()
    def whatever_the_cache_can_serve_is_the_oracle(self):
        """An entry is servable when a read of the current state would
        build its key — worked out here from the store's tables, not
        with the store's key builder."""
        pending = tuple(entry.text for entry in self.store.log.staged("db"))
        for key, cached in self.store.results.items():
            target, uid, query, stack_texts, staged_texts = key
            if target in self.store.views:
                doc_name, stack = self.store.views.stack(target)
            elif target in self.store.documents:
                doc_name, stack = target, []
            else:
                continue
            if uid != self.store.pin(doc_name).uid:
                continue
            if stack_texts != tuple(view.transform_text for view in stack):
                continue
            if staged_texts and (doc_name != "db" or staged_texts != pending):
                continue
            expected = self._oracle(target, query, bool(staged_texts))
            assert list(cached.items) == expected, key
            assert body_items(cached.wire(), len(cached.items)) == expected, key
            if cached.refs is not None:
                # Positions are kept for reads of a document itself
                # only: anything else indexes an arena no commit moves.
                assert not stack and not staged_texts, key
                fresh = self.store.evaluate(self.store.pin_read(target), query)[2]
                assert cached.refs == node_refs(fresh), key

    @invariant()
    def the_accounting_identity_holds(self):
        m = self.service.metrics()
        assert m["service.requests.total"] == (
            m["service.dispatch.evaluations"]
            + m["service.dispatch.coalesced"]
            + m["service.dispatch.memo_hits"]
        )
        assert m["service.wire.built"] + m["service.wire.reused"] == self.wire_responses


# max_examples comes from the Hypothesis profile: 100 by default, more
# under ``--hypothesis-profile=ci`` (tests/conftest.py).
ResultCacheMachine.TestCase.settings = settings(stateful_step_count=40, deadline=None)
TestResultCacheMachine = ResultCacheMachine.TestCase
