"""Hits are bytes: a cached :class:`~repro.store.answer.Answer` is
sent as a header line and its own wire form, the length-prefixed body,
and a client reads back exactly the items.

* decoding ``encode_response(id, Answer(items))`` returns the id and
  ``items`` for every JSON-scalar id and every list of ``str``;
* over a real server, the response to a miss and to every repeat are
  byte-equal after the id, and decode to the service's answer;
* the memory rule: an entry holds wire bytes only once it has been
  asked for again;
* the bytes live on the entry: a re-key moves the same object, a drop
  frees it;
* concurrent hits and the followers of one flight share one form;
* in-process readers still get their own lists.
"""

import gc
import io
import json
import socket
import sys
import threading
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import QueryService, ServiceConfig, serialize
from repro.service import ServiceServer
from repro.service.protocol import (
    decode_line,
    encode_frame,
    encode_response,
    handle_request,
    read_response,
    result_frame,
)
from repro.store import Answer, ViewStore
from repro.store import answer as answer_module
from repro.xmark.generator import generate

from tests.test_service import _Call, _hold_evaluations, _oracle, _wait_for

NON_ASCII = (
    '<db note="café ☃"><p lang="日本語">naïve – “quoted” &amp; &lt;tag&gt; '
    "back\\slash /slash</p><p lang='ру\"с'>Привет мир \U0001f600</p>"
    "<q>tab\there</q></db>"
)

XMARK_READS = [
    "for $x in people/person return $x/name",
    "for $x in regions//item[location = 'United States'] return $x",
    "for $x in people/person[@id = 'person0'] return $x",
    "for $x in nowhere return $x",
]


def _query_frame(request_id, target, text) -> dict:
    return {"id": request_id, "op": "query", "target": target, "text": text}


def _respond(service, request_id, target, text) -> bytes:
    """What the server's handler does with one decoded query frame."""
    answer = handle_request(service, _query_frame(request_id, target, text))
    assert type(answer) is Answer
    return encode_response(request_id, answer)


def _held(store) -> list:
    return [answer for answer in store.results.values() if answer.wire_bytes]


def _decode(response: bytes) -> dict:
    """One whole response through the client's reader; nothing may be
    left over."""
    stream = io.BytesIO(response)
    frame = read_response(stream)
    assert stream.read() == b""
    return frame


def _split(response: bytes):
    """A ``query`` response as (header dict, body bytes)."""
    line, body = response.split(b"\n", 1)
    return json.loads(line), body


# ----------------------------------------------------------------------
# (a) What is sent is what is read back
# ----------------------------------------------------------------------

ids = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
    st.text(),
    st.none(),
    st.booleans(),
)
#: Any ``str``: lone surrogates (and a pair split over two items) and
#: non-BMP characters included — strict UTF-8 would refuse the first.
items = st.lists(st.text(st.characters(exclude_categories=())), max_size=300)


@settings(max_examples=300, deadline=None)
@given(request_id=ids, items=items)
@example(request_id=-7, items=[])
@example(request_id=1.5, items=[""])
@example(request_id=0, items=["\n", "\x00", "", "\n\n"])
@example(request_id='q"\\ é', items=['" \\ / & < >', "\x00\x1f\x7f\n\r\t", "naïve ☃ \U0001f600"])
@example(request_id=2, items=["\ud800", "a\udfff", "\ud83d", "\ude00", "\U0001f600\ud83d"])
@example(request_id=None, items=["<a b=\"c\">d</a>"] * 300)
@example(request_id=True, items=["  "])
def test_a_decoded_response_is_the_answer(request_id, items):
    answer = Answer(items)
    # First call (built, let go), second (built, kept), third (reused):
    # the same bytes every time.
    responses = {encode_response(request_id, answer) for _ in range(3)}
    assert len(responses) == 1
    [response] = responses
    header, body = _split(response)
    assert header == {
        "id": request_id, "ok": True, "items": len(items), "bytes": len(body),
    }
    assert response.startswith(b'{"id":' + json.dumps(request_id).encode())
    assert answer.wire_bytes == len(body)
    assert _decode(response) == dict(header, result=items)
    assert answer.items == tuple(items)


def test_everything_but_an_answer_is_framed_as_before():
    assert encode_response(3, "pong") == encode_frame(result_frame(3, "pong"))
    assert encode_response(3, ["a"]) == encode_frame(result_frame(3, ["a"]))
    stats = {"service": {"requests": 1}, "x": [1, 2.5, None]}
    assert encode_response("s", stats) == encode_frame(result_frame("s", stats))
    error = decode_line(encode_response(4, None, ValueError("no such thing")))
    assert error == {
        "id": 4, "ok": False, "error": {"code": "error", "message": "no such thing"},
    }
    # An error wins over a result (the pre-send fault hook's case).
    assert decode_line(encode_response(5, Answer(["a"]), ValueError("x")))["ok"] is False


# ----------------------------------------------------------------------
# (b) Over a real server: a miss and its repeats, byte-equal after the id
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "xml, reads",
    [
        (None, XMARK_READS),
        (NON_ASCII, ["for $x in p return $x", "for $x in q return $x", "for $x in * return $x"]),
    ],
    ids=["xmark-0.004", "non-ascii"],
)
def test_first_and_repeat_responses_are_byte_equal_after_the_id(xml, reads):
    service = QueryService()
    service.put("doc", serialize(generate(0.004, seed=7)) if xml is None else xml)
    request_ids = [1, 2, -3, "four", 5.5, None]
    decoded = {}
    with ServiceServer(service) as server:
        with socket.create_connection(server.address, timeout=10.0) as sock:
            with sock.makefile("rwb") as stream:
                for text in reads:
                    expected = _oracle(service.store, "doc", text)
                    tails = []
                    for request_id in request_ids:
                        stream.write(encode_frame(_query_frame(request_id, "doc", text)))
                        stream.flush()
                        line = stream.readline()
                        response = line + stream.read(json.loads(line)["bytes"])
                        frame = _decode(response)
                        assert frame["id"] == request_id and frame["result"] == expected
                        head, tail = response.split(b',"ok":', 1)
                        assert head == b'{"id":' + json.dumps(request_id).encode()
                        tails.append(tail)
                    assert len(set(tails)) == 1
                    decoded[text] = frame["result"]
        m = service.metrics()
        assert decoded == {text: service.query("doc", text) for text in reads}
    assert m["service.dispatch.evaluations"] == len(reads)
    assert m["service.dispatch.memo_hits"] == len(reads) * (len(request_ids) - 1)
    # Per text: the miss and the first hit build, every later hit reuses.
    assert m["service.wire.built"] == 2 * len(reads)
    assert m["service.wire.reused"] == len(reads) * (len(request_ids) - 2)


# ----------------------------------------------------------------------
# (c) The memory rule
# ----------------------------------------------------------------------


def test_an_entry_holds_wire_bytes_only_once_it_is_asked_for_again():
    with QueryService() as service:
        service.put("doc", serialize(generate(0.004, seed=7)))
        texts = [
            f"for $x in people/person[@id = 'person{i}'] return $x/name"
            for i in range(100)
        ]
        for index, text in enumerate(texts):
            _respond(service, index, "doc", text)
        assert len(service.store.results) == 100
        assert _held(service.store) == []
        m = service.metrics()
        assert (m["store.cache.results.wire_entries"], m["store.cache.results.wire_bytes"]) == (
            0, 0,
        )

        again = _respond(service, 100, "doc", texts[42])
        [held] = _held(service.store)
        assert held.items == tuple(_oracle(service.store, "doc", texts[42]))
        header, body = _split(again)
        assert body == held.wire() and header["bytes"] == held.wire_bytes
        m = service.metrics()
        assert (m["store.cache.results.wire_entries"], m["store.cache.results.wire_bytes"]) == (
            1, held.wire_bytes,
        )
        # An in-process repeat is not a wire repeat: nothing is built for it.
        service.query("doc", texts[7])
        service.store.query_serialized("doc", texts[8])
        assert _held(service.store) == [held]


# ----------------------------------------------------------------------
# (d) The bytes travel with the entry and die with it
# ----------------------------------------------------------------------


def test_a_rekey_moves_the_same_object_and_a_drop_frees_its_bytes():
    service = QueryService()
    service.put(
        "db",
        "<db><left/><part><pname>kb</pname><secret><cost>1</cost></secret>"
        "</part></db>",
    )
    service.define_view(
        "public", "db",
        'transform copy $a := doc("db") modify do delete $a/part/secret return $a',
    )
    text = "for $x in part return $x/pname"

    def commit(body):
        service.commit("db", f'transform copy $a := doc("db") modify do {body} return $a')

    def entry():
        [(key, answer)] = service.store.results.items()
        assert key[1] == service.store.pin("db").uid
        return answer

    first = _respond(service, 1, "public", text)
    assert _respond(service, 2, "public", text)[7:] == first[7:]
    answer = entry()
    wire = answer.wire()
    assert answer.wire_bytes == len(wire) and wire is answer.wire()

    commit("insert <t/> into $a/left")  # label-disjoint from query and stack
    assert entry() is answer and answer.wire() is wire
    commit("insert <cost>2</cost> into $a/part/secret")  # swallowed by the view
    assert entry() is answer and answer.wire() is wire
    before = service.metrics()
    assert _respond(service, 3, "public", text)[7:] == first[7:]
    after = service.metrics()
    assert after["service.dispatch.memo_hits"] - before["service.dispatch.memo_hits"] == 1
    assert after["service.wire.reused"] - before["service.wire.reused"] == 1
    assert after["service.wire.built"] == before["service.wire.built"]

    alive = weakref.ref(answer)
    del answer
    commit("insert <pname>mouse</pname> into $a/part")  # overlaps the query
    assert len(service.store.results) == 0
    gc.collect()
    assert alive() is None  # nothing else held the entry — or its bytes
    assert service.metrics()["store.cache.results.wire_bytes"] == 0
    fresh = _respond(service, 4, "public", text)
    assert _decode(fresh)["result"] == ["<pname>kb</pname>", "<pname>mouse</pname>"]
    service.close()


def test_an_evicted_entry_takes_its_bytes_with_it():
    with QueryService(store=ViewStore(result_cache_size=2)) as service:
        service.put("db", "<db><a>1</a><b>2</b><c>3</c></db>")
        for request_id in (1, 2):
            _respond(service, request_id, "db", "for $x in a return $x")
        [held] = _held(service.store)
        alive = weakref.ref(held)
        del held
        _respond(service, 3, "db", "for $x in b return $x")
        _respond(service, 4, "db", "for $x in c return $x")  # evicts the oldest
        gc.collect()
        assert alive() is None and _held(service.store) == []


# ----------------------------------------------------------------------
# (e) Concurrent hits, and the followers of one flight
# ----------------------------------------------------------------------


def _counting_wire_body(calls: list):
    """A stand-in for :func:`repro.store.answer.wire_body`: every wire
    form built appends to *calls*."""
    wire_body = answer_module.wire_body

    def counting(items):
        calls.append(len(items))
        return wire_body(items)

    return counting


def test_eight_threads_hitting_one_key_get_equal_bytes():
    threads, rounds = 8, 50
    text = XMARK_READS[0]
    service = QueryService()
    service.put("doc", serialize(generate(0.004, seed=7)))
    expected = encode_response(0, Answer(_oracle(service.store, "doc", text)))
    assert _respond(service, 0, "doc", text) == expected  # the leading miss
    before = service.metrics()
    barrier = threading.Barrier(threads)

    def hammer():
        barrier.wait(timeout=10.0)
        return {_respond(service, 0, "doc", text) for _ in range(rounds)}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the racing first builders
    try:
        seen = [call.result(timeout=60.0) for call in [_Call(hammer) for _ in range(threads)]]
    finally:
        sys.setswitchinterval(interval)
    assert all(responses == {expected} for responses in seen)
    after = service.metrics()
    hits = after["service.dispatch.memo_hits"] - before["service.dispatch.memo_hits"]
    assert hits == threads * rounds
    assert after["service.dispatch.evaluations"] == before["service.dispatch.evaluations"] == 1
    built = after["service.wire.built"] - before["service.wire.built"]
    reused = after["service.wire.reused"] - before["service.wire.reused"]
    # Only requests that raced the first hit's build can have built.
    assert built + reused == threads * rounds and 1 <= built <= threads
    [held] = _held(service.store)
    assert _split(expected)[1] == held.wire()
    service.close()


def test_the_followers_of_a_flight_share_one_wire_form():
    followers = 4
    text = XMARK_READS[1]
    service = QueryService(config=ServiceConfig(workers=1))
    service.put("doc", serialize(generate(0.004, seed=7)))
    expected = encode_response(9, Answer(_oracle(service.store, "doc", text)))
    _, release = _hold_evaluations(service)
    builds: list = []
    interval = sys.getswitchinterval()
    # No involuntary thread switch: a follower then runs from its
    # wake-up through its build without another one starting the same
    # build beside it (that race is benign — equal bytes — but it would
    # make the count below a matter of timing).
    sys.setswitchinterval(10.0)
    try:
        with mock.patch.object(answer_module, "wire_body", _counting_wire_body(builds)):
            calls = [
                _Call(_respond, service, 9, "doc", text) for _ in range(followers + 1)
            ]
            try:
                _wait_for(lambda: service.metrics()["service.requests.total"] == followers + 1)
            finally:
                release.set()
            responses = [call.result() for call in calls]
    finally:
        sys.setswitchinterval(interval)
    assert responses == [expected] * (followers + 1)
    m = service.metrics()
    assert (
        m["service.dispatch.evaluations"],
        m["service.dispatch.coalesced"],
        m["service.dispatch.memo_hits"],
    ) == (1, followers, 0)
    # The first response of the five builds and lets go, the second
    # builds and keeps, the other three are that form — never one
    # encoding per follower.
    assert len(builds) == 2, builds
    assert (m["service.wire.built"], m["service.wire.reused"]) == (2, followers - 1)
    assert len(service.store.results) == 1 and len(_held(service.store)) == 1
    service.close()


# ----------------------------------------------------------------------
# (f) In-process readers still own their lists
# ----------------------------------------------------------------------


@pytest.mark.parametrize("served_over_the_wire", [False, True])
def test_in_process_reads_return_fresh_lists(served_over_the_wire):
    with QueryService() as service:
        service.put("doc", NON_ASCII)
        text = "for $x in p return $x"
        expected = _oracle(service.store, "doc", text)
        assert len(expected) == 2
        if served_over_the_wire:
            for request_id in (1, 2, 3):
                _respond(service, request_id, "doc", text)
            assert len(_held(service.store)) == 1
        for read in (service.query, service.store.query_serialized):
            first = read("doc", text)
            assert first == expected and type(first) is list
            first.clear()  # poisons nobody
            first.append("<poison/>")
            again = read("doc", text)
            assert again == expected and again is not first
        assert _decode(_respond(service, 4, "doc", text))["result"] == expected
