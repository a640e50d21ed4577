"""``repro.store`` — a resident multi-document store with stacked
virtual views, compiled-query caches, and commit/rollback.

The rest of the package evaluates one query over one freshly parsed
document; this subsystem keeps documents resident and routes queries
through *view stacks*::

    from repro import ViewStore

    store = ViewStore()
    store.put("catalog", "<db><part><pname>kb</pname>"
                         "<supplier><sname>HP</sname><price>12</price>"
                         "<country>A</country></supplier></part></db>")
    store.define_view(
        "public", "catalog",
        'transform copy $a := doc("catalog") modify do '
        "delete $a//supplier[country = 'A']/price return $a",
    )
    store.define_view(
        "emea", "public",
        'transform copy $a := doc("public") modify do '
        "rename $a//sname as vendor return $a",
    )
    rows = store.query("emea", "for $x in part/supplier return $x")

A view is its transform query; the arena it reads as is derived data
of its document's version, spliced on the first read of that version
and kept until a commit the view does not swallow (see
:mod:`repro.store.store` for how a read is served).  Compiled artifacts
are cached in an LRU :class:`CompiledCache`, and serialized answers
are cached per arena (``ViewStore.results``, one :class:`Answer` per
key).  A document at rest is one frozen arena, its current version's;
staged updates commit by installing the next one in its place
(carrying provably unaffected views and results across) or roll back,
and an older version lives on only in the snapshots readers hold.

:mod:`repro.store.state` gives the ``repro store`` CLI durable state:
one directory with a JSON manifest plus one checksummed column file
per document (:mod:`repro.store.columns`).
"""

from repro.compiled import CompiledCache
from repro.lru import LRUCache
from repro.store.answer import Answer
from repro.store.documents import DocumentStore, Snapshot, StoredDocument
from repro.store.errors import (
    CorruptStateError,
    DuplicateNameError,
    InvalidNameError,
    NothingStagedError,
    StateLockedError,
    StoreError,
    UnknownNameError,
)
from repro.store.log import StagedUpdate, UpdateLog
from repro.store.state import locked_state, open_store, save_store
from repro.store.store import PinnedRead, ViewStore, result_key
from repro.store.views import View, ViewRegistry

__all__ = [
    "Answer",
    "CompiledCache",
    "CorruptStateError",
    "DocumentStore",
    "DuplicateNameError",
    "InvalidNameError",
    "LRUCache",
    "NothingStagedError",
    "PinnedRead",
    "Snapshot",
    "StagedUpdate",
    "StateLockedError",
    "StoreError",
    "StoredDocument",
    "UnknownNameError",
    "UpdateLog",
    "View",
    "ViewRegistry",
    "ViewStore",
    "locked_state",
    "open_store",
    "result_key",
    "save_store",
]
