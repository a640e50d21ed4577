"""The ledger's inputs: documents, query texts and op streams.

Everything here is a pure function of ``--seed`` (and the fixed XMark
document seed), so two runs with one seed send the server byte-equal
requests in the same order.  The *document* is deliberately not drawn
from ``--seed``: a different tree would change every latency by its
size, and the spread across seeds would then measure the generator,
not the system.  The seed moves what the system's caches can see —
query parameters, pool contents and op order.
"""

from __future__ import annotations

import itertools
import random

from repro.xmark.generator import COUNTRIES, generate
from repro.xmark.queries import EMBEDDED_PATHS, INSERT_CONTENT, QUERY_IDS
from repro.xmltree import serialize

#: The name every workload stores its document under.
NAME = "xmark"
#: XMark generator seed — fixed, see the module docstring.
DOC_SEED = 42

WORKLOADS = ("serve_scan", "serve_hot", "serve_write", "paper_fig12")

_TRANSFORM = 'transform copy $a := doc("' + NAME + '") modify do {} return $a'


def build_document(factor: float) -> str:
    """The workload document as XML text."""
    return serialize(generate(factor, DOC_SEED))


def user_query(path: str) -> str:
    return f"for $x in {path} return $x"


#: ``loadgen.READS``: the six Fig-12 user queries a memoising server
#: answers from its result memo after the first round.
HOT_READS = [user_query(EMBEDDED_PATHS[u]) for u in ("U1", "U2", "U3", "U4", "U8", "U9")]

#: A 0.4 KB answer: the probe text for a memoised round trip, and the
#: first question asked of a recovered server.
POINT_READ = user_query(EMBEDDED_PATHS["U2"])


def distinct_reads(rng: random.Random, persons: int, lane: int = 0, lanes: int = 1):
    """An endless stream of query texts, no two equal.

    Five parameterised templates, each once per five texts (every seed
    sends the same mix) but in a fresh order each time (two streams
    never fall into step), with selective predicates (a few percent of
    their candidates match), so the DFA scan and qualifier checks — not
    serialization — are what a request pays for; every text is new to
    the server's memo and compiled caches.  Streams
    with different *lane* numbers never share a text either: each takes
    its own residue class of person ids and ends every numeric
    parameter in its lane digit.
    """
    seen = set()
    ids = list(range(lane, persons, lanes))
    rng.shuffle(ids)

    def number(low: float, high: float) -> str:
        return f"{rng.uniform(low, high):.4f}{lane}"

    def person_id() -> int:
        return ids.pop() if ids else persons + rng.randrange(10 ** 9) * lanes + lane

    templates = (
        lambda: f"people/person[@id = 'person{person_id()}']",
        lambda: f"people/person[profile/age > {number(58, 66)}]",
        lambda: (
            f"regions//item[location = '{rng.choice(COUNTRIES)}']"
            f"[quantity > {number(6, 10)}]"
        ),
        lambda: (
            f"open_auctions/open_auction[initial > {number(200, 300)} "
            f"and reserve > {number(500, 800)}]/bidder"
        ),
        lambda: f"closed_auctions/closed_auction[price > {number(750, 900)}]",
    )
    while True:
        for template in rng.sample(templates, len(templates)):
            text = user_query(template())
            while text in seen:
                text = user_query(template())
            seen.add(text)
            yield text


def pooled_reads(rng: random.Random, pool):
    while True:
        yield rng.choice(pool)


class CommitScript:
    """The write workload's commits, in their one defined order.

    Four updates rotate: insert a marker under ``regions``, rename it,
    delete it, and insert a ``watch`` under one person.  The first
    three leave the document as they found it and are label-disjoint
    from the ``people`` reads; the fourth is not, so re-keying both
    keeps and drops cached answers.  ``acked`` counts commits the
    server acknowledged; the next text depends on it alone, which is
    what lets a recovered server be checked against ``expected()``.
    """

    #: Literal fragments a commit can add to a read's answer; stripping
    #: them maps any version's answer back onto the pristine document.
    ARTEFACTS = ("<watch>w</watch>",)

    def __init__(self, persons: int):
        self.persons = persons
        self.acked = 0

    def text(self) -> str:
        step, cycle = self.acked % 4, self.acked // 4
        if step == 0:
            update = "insert <bench_marker/> into $a/regions"
        elif step == 1:
            update = "rename $a/regions/bench_marker as bench_done"
        elif step == 2:
            update = "delete $a/regions/bench_done"
        else:
            person = (cycle * 7) % self.persons
            update = f"insert <watch>w</watch> into $a/people/person[@id = 'person{person}']"
        return _TRANSFORM.format(update)

    def expected(self) -> dict:
        """Version and marker counts implied by the acknowledged commits."""
        return {
            "version": 1 + self.acked,
            "regions/bench_marker": 1 if self.acked % 4 == 1 else 0,
            "regions/bench_done": 1 if self.acked % 4 == 2 else 0,
            "people/person/watch": self.acked // 4,
        }


def write_mix(reads, script: CommitScript, every: int = 5):
    """Connection 0 of ``serve_write``: every *every*-th op is the
    script's next commit.  The other connection only reads, so commits
    are ≈10 % of all ops and all come from one connection."""
    count = 0
    while True:
        count += 1
        if count % every == 0:
            yield "commit", script.text()
        else:
            yield "read", next(reads)


def as_reads(texts):
    for text in texts:
        yield "read", text


def serving_streams(workload: str, seed: int, persons: int, script: CommitScript):
    """One op stream per client connection (two connections)."""
    if workload == "serve_scan":
        return [
            as_reads(distinct_reads(random.Random(seed * 2 + conn), persons, conn, 2))
            for conn in (0, 1)
        ]
    if workload == "serve_hot":
        start = random.Random(seed).randrange(len(HOT_READS))
        rotated = HOT_READS[start:] + HOT_READS[:start]
        return [as_reads(itertools.cycle(rotated[conn:] + rotated[:conn])) for conn in (0, 3)]
    if workload == "serve_write":
        # The pool is the same for every seed (which texts it holds
        # decides how much each commit invalidates and how large the
        # server grows); the seed orders the reads drawn from it.
        fresh = distinct_reads(random.Random(DOC_SEED), persons)
        pool = HOT_READS + [next(fresh) for _ in range(42)]
        return [
            write_mix(pooled_reads(random.Random(seed * 2), pool), script),
            as_reads(pooled_reads(random.Random(seed * 2 + 1), pool)),
        ]
    if workload == "paper_fig12":
        # Only the traced run serves this workload's document: the ten
        # embedded paths as user queries.
        texts = [user_query(fig12_direct_path(u)) for u in QUERY_IDS]
        random.Random(seed).shuffle(texts)
        return [as_reads(itertools.cycle(texts[conn:] + texts[:conn])) for conn in (0, 5)]
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# The paper's experiment (Fig. 12 transforms, Fig. 15 compositions)
# ----------------------------------------------------------------------


def _target(uid: str) -> str:
    path = EMBEDDED_PATHS[uid]
    return f"$a{path}" if path.startswith("//") else f"$a/{path}"


def fig12_direct_path(uid: str) -> str:
    """Ui as a user-query path.  U10's leading ``//`` is dropped, as in
    the paper's composition experiment (``open_auctions`` occurs only
    at the top level); U5's ``//description`` is not redundant."""
    path = EMBEDDED_PATHS[uid]
    return path[2:] if uid == "U10" else path


def _insert(uid: str) -> str:
    return _TRANSFORM.format(f"insert {INSERT_CONTENT} into {_target(uid)}")


def _delete(uid: str) -> str:
    return _TRANSFORM.format(f"delete {_target(uid)}")


def fig12_transforms() -> list:
    """The 20 transform-query texts: insert and delete embedding U1–U10."""
    return [_insert(u) for u in QUERY_IDS] + [_delete(u) for u in QUERY_IDS]


def fig15_pairs() -> list:
    """The four (user query, transform) text pairs of Fig. 15."""
    return [
        (user_query(fig12_direct_path("U2")), _insert("U1")),
        (user_query(fig12_direct_path("U1")), _insert("U9")),
        (user_query(fig12_direct_path("U4")), _delete("U9")),
        (user_query(fig12_direct_path("U10")), _delete("U8")),
    ]


def fig12_round(seed: int) -> list:
    """One round: 20 ``("transform", text)`` + 4 ``("composed", (user,
    transform))`` ops, in a seed-chosen order kept for every round."""
    ops = [("transform", text) for text in fig12_transforms()]
    ops += [("composed", pair) for pair in fig15_pairs()]
    random.Random(seed).shuffle(ops)
    return ops
