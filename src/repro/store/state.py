"""Durable state for the ``repro store`` CLI and ``repro serve
--state``: a directory holding one column file per document plus a
JSON manifest.

Layout of a state directory::

    store.json             — format 2: versions, view definitions,
                             staged updates, commit counts, and the file
                             that holds each document
    doc-<name>-vN.arena    — one column file per document, named by the
                             version it holds (:mod:`repro.store.columns`:
                             the arena's columns with a CRC per section)
    wal.jsonl              — write-ahead log of commits past the checkpoint
    state.lock             — the cross-process lock

Opening a directory reads each document's columns back as checksummed
byte runs — no tokenizer, no builder — and a damaged file is a typed
:class:`~repro.store.errors.CorruptStateError` naming the file and
the section, never a wrong answer.  A format-1 directory (one XML file
per document) still opens: its files are parsed, and those documents
are admitted dirty, so the next checkpoint rewrites them as column
files and collects the XML.  A format-2 manifest never names one.

Document files are **never overwritten**: a checkpoint writes changed
documents under fresh versioned names and the manifest replace is the
single atomic commit point — a crash anywhere before it leaves the old
manifest referencing the old (untouched) files.  Files no checkpoint
references any longer are garbage-collected after the WAL truncate.

The CLI is one process per command, so each invocation rebuilds a
:class:`~repro.store.store.ViewStore` from the directory, applies its
command, and writes the directory back.  Compiled caches and postings
are in-memory only (they are cheap to rebuild and never stale); what
persists is exactly the stateful part: documents, their versions, the
view definitions in dependency order, and the staged-update texts.

Durability: :func:`save_store` is an atomic **checkpoint** — every
temp file is fsync'd before its rename, the directory entry is fsync'd
after, and only then is the write-ahead log truncated.
:func:`open_store` **recovers**: after the manifest loads, any WAL tail
the last checkpoint did not cover is replayed through the ordinary
commit path (idempotently — each record carries the version it
produces, so records the checkpoint already covers are skipped).  A
torn final record is the expected crash artifact and is truncated away
with a warning; damage anywhere else raises the typed
:class:`~repro.store.errors.WalCorruptError`.  How long the column
reads and the replay took is kept on the store (``stats()["open"]``).
:func:`fsck` checks a directory without opening it: the manifest,
every column file's header, lengths and CRCs, and the WAL's framing.

Cross-process exclusion: a ``state.lock`` file in the directory is
``flock``-ed for the duration of every read-modify-write cycle
(:class:`StateLock` / :func:`locked_state`), so two CLI invocations —
or a CLI invocation and a running ``repro serve`` — cannot interleave
their commits.  A held lock surfaces as the typed
:class:`~repro.store.errors.StateLockedError`; an unreadable manifest
or column file as :class:`~repro.store.errors.CorruptStateError` —
both map to one ``repro: …`` line and exit code 2 at the CLI boundary.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import warnings
from typing import Iterator, Optional

from repro.faults import fault_point
from repro.store import columns
from repro.store.errors import CorruptStateError, StateLockedError, WalCorruptError
from repro.store.store import ViewStore
from repro.store.views import MaterializationPolicy
from repro.store.wal import (
    WAL_NAME,
    WalWriter,
    effective_commits,
    read_wal,
    truncate_torn_tail,
    wal_path,
)

try:  # POSIX; on platforms without fcntl the lock degrades to advisory-only
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

MANIFEST_NAME = "store.json"
LOCK_NAME = "state.lock"
#: The manifest format :func:`save_store` writes (documents as column
#: files); format 1 (documents as XML) is still read.
_FORMAT = 2
_XML_FORMAT = 1


def _manifest_path(state_dir: str) -> str:
    return os.path.join(state_dir, MANIFEST_NAME)


def _document_file(name: str, version: int, attempt: int = 0) -> str:
    if attempt:
        return f"doc-{name}-v{version}.{attempt}.arena"
    return f"doc-{name}-v{version}.arena"


class StateLock:
    """An exclusive ``flock`` on a state directory's ``state.lock``.

    Advisory but sufficient: every code path that reads or writes the
    directory (the CLI commands via :func:`locked_state`, ``repro
    serve`` for its whole lifetime) takes it first.  Read-only cycles
    acquire it **shared** (``LOCK_SH``) — any number of concurrent
    readers, excluded only while a writer holds it exclusively.
    Acquisition polls with a short timeout rather than blocking
    forever, so a command racing a long-running holder fails fast with
    the typed :class:`StateLockedError` instead of hanging.
    """

    def __init__(self, state_dir: str):
        self.state_dir = state_dir
        self.path = os.path.join(state_dir, LOCK_NAME)
        self._handle = None

    def acquire(
        self, timeout: float = 5.0, poll: float = 0.05, shared: bool = False
    ) -> "StateLock":
        if self._handle is not None:
            return self
        os.makedirs(self.state_dir, exist_ok=True)
        handle = open(self.path, "a+", encoding="utf-8")
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            self._handle = handle
            return self
        mode = fcntl.LOCK_SH if shared else fcntl.LOCK_EX
        deadline = time.monotonic() + timeout
        while True:
            try:
                fcntl.flock(handle.fileno(), mode | fcntl.LOCK_NB)
                break
            except OSError:
                if time.monotonic() >= deadline:
                    holder = ""
                    with contextlib.suppress(OSError):
                        handle.seek(0)
                        holder = handle.read(128).strip()
                    handle.close()
                    raise StateLockedError(self.state_dir, holder) from None
                time.sleep(poll)
        if not shared:
            # Only the exclusive holder stamps its identity; shared
            # readers must not scribble over each other.
            with contextlib.suppress(OSError):
                handle.seek(0)
                handle.truncate()
                handle.write(f"pid {os.getpid()}\n")
                handle.flush()
        self._handle = handle
        return self

    def release(self) -> None:
        handle, self._handle = self._handle, None
        if handle is None:
            return
        if fcntl is not None:
            with contextlib.suppress(OSError):
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        handle.close()

    def __enter__(self) -> "StateLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


@contextlib.contextmanager
def locked_state(
    state_dir: str,
    policy: Optional[MaterializationPolicy] = None,
    *,
    save: bool = True,
    timeout: float = 5.0,
) -> Iterator[ViewStore]:
    """One locked read-modify-write cycle on a state directory.

    Opens the store under the directory's :class:`StateLock`, yields
    it, and (by default) saves it back before the lock is released —
    the unit every ``repro store`` CLI command runs as.  With
    ``save=False`` the cycle is read-only: nothing is written back,
    and the lock is taken *shared*, so concurrent readers never
    exclude each other (only a writer's exclusive hold does).
    """
    with StateLock(state_dir).acquire(timeout=timeout, shared=not save):
        store = open_store(state_dir, policy)
        yield store
        if save:
            save_store(store, state_dir)


def open_store(
    state_dir: str, policy: Optional[MaterializationPolicy] = None
) -> ViewStore:
    """Build a :class:`ViewStore` from a state directory.

    A missing directory (or one without a manifest) yields an empty
    store — ``repro store load`` bootstraps it on first save — with
    its write-ahead log attached like any other.  An unreadable or
    unsupported manifest, or a damaged column file, raises the typed
    :class:`CorruptStateError` rather than a raw traceback.  What the
    open spent, by part, is ``store.open_parts``.
    """
    started = time.perf_counter()
    store = ViewStore(policy=policy)
    manifest_path = _manifest_path(state_dir)
    staged_texts = (
        _load_manifest(store, state_dir, manifest_path)
        if os.path.exists(manifest_path)
        else {}
    )
    replay_started = time.perf_counter()
    replayed_docs, last_seq = _replay_wal(store, state_dir)
    store.open_parts["replay_ms"] = (time.perf_counter() - replay_started) * 1e3
    # Checkpoint-time staged texts are restored only for documents with
    # no replayed commit: a commit consumes the *whole* staging area,
    # so any replayed commit's record already contains (or supersedes)
    # everything the checkpoint had staged for that document.  This
    # must run after replay — replay's commits would otherwise consume
    # the restored entries as their own.
    for name, texts in staged_texts.items():
        if name in replayed_docs:
            continue
        for text in texts:
            store.stage(name, text)
    # The writer attaches only now: replayed commits must not be
    # re-appended, and fresh appends continue the surviving sequence.
    # It attaches to a store booted on an empty directory too — the
    # documents a server admits later commit through the same log.
    os.makedirs(state_dir, exist_ok=True)
    store.wal = WalWriter(wal_path(state_dir), start_seq=last_seq)
    store.open_parts["open_ms"] = (time.perf_counter() - started) * 1e3
    return store


def _read_manifest(manifest_path: str) -> dict:
    """The parsed manifest, checked to be an object in a format this
    build reads."""
    with open(manifest_path, "r", encoding="utf-8") as handle:
        try:
            manifest = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CorruptStateError(manifest_path, f"not valid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise CorruptStateError(manifest_path, "manifest is not a JSON object")
    if manifest.get("format") not in (_XML_FORMAT, _FORMAT):
        raise CorruptStateError(
            manifest_path,
            f"unsupported format {manifest.get('format')!r} "
            f"(this build reads formats {_XML_FORMAT} and {_FORMAT})",
        )
    return manifest


@contextlib.contextmanager
def _manifest_entries(manifest_path: str) -> Iterator[None]:
    """A missing or mistyped manifest field is a :class:`CorruptStateError`."""
    try:
        yield
    except (KeyError, TypeError, AttributeError) as exc:
        raise CorruptStateError(
            manifest_path, f"malformed manifest entry ({exc!r})"
        ) from None


def _load_manifest(store: ViewStore, state_dir: str, manifest_path: str) -> dict:
    """Admit the checkpointed documents and views into *store*; returns
    the checkpoint-time staged texts per document."""
    manifest = _read_manifest(manifest_path)
    parts = store.open_parts
    staged_texts = {}
    with _manifest_entries(manifest_path):
        for name, info in manifest.get("documents", {}).items():
            path = os.path.join(state_dir, info["file"])
            version = int(info.get("version", 1))
            started = time.perf_counter()
            if manifest["format"] == _XML_FORMAT:
                # Parsed, and left dirty: the next checkpoint rewrites
                # the document as a column file and collects the XML.
                store.documents.load(name, path, version=version)
            else:
                doc = store.documents.admit(
                    name, columns.read(path), version=version, source=path
                )
                doc.dirty = False  # the columns came from the state file itself
                doc.state_file = info["file"]
            parts["columns_ms"] += (time.perf_counter() - started) * 1e3
            parts["columns_bytes"] += os.path.getsize(path)
            staged_texts[name] = list(info.get("staged", []))
            # 1.21 and earlier wrote every committed text; only the
            # count is kept now.
            committed = info.get("committed", len(info.get("history", [])))
            store.log.restore_committed(name, int(committed))
        # Views were saved in definition order, so bases always exist.
        for entry in manifest.get("views", []):
            store.define_view(entry["name"], entry["base"], entry["transform"])
    return staged_texts


def fsck(state_dir: str) -> Iterator[str]:
    """Check a state directory without opening it, one line per object
    checked: the manifest, every document file it names (a column
    file's header, section lengths and CRCs), and the WAL's framing.

    The first damage raises :class:`CorruptStateError` or
    :class:`WalCorruptError`.  Nothing is written: a torn final WAL
    record is reported, and left for the next open to cut.  Callers
    hold the state lock (shared is enough).
    """
    manifest_path = _manifest_path(state_dir)
    if not os.path.exists(manifest_path):
        yield f"{MANIFEST_NAME}: absent (an empty store)"
    else:
        manifest = _read_manifest(manifest_path)
        with _manifest_entries(manifest_path):
            documents = manifest.get("documents", {})
            yield (
                f"{MANIFEST_NAME}: format {manifest['format']}, "
                f"{len(documents)} document(s), "
                f"{len(manifest.get('views', []))} view(s)"
            )
            for name, info in sorted(documents.items()):
                filename = info["file"]
                path = os.path.join(state_dir, filename)
                version = int(info.get("version", 1))
                if manifest["format"] == _XML_FORMAT:
                    os.stat(path)
                    yield (
                        f"{filename}: {name!r} v{version}, XML (format "
                        f"{_XML_FORMAT}: no checksums; the next checkpoint "
                        f"rewrites it as a column file)"
                    )
                    continue
                checked = columns.check(path)
                yield (
                    f"{filename}: {name!r} v{version}, {checked.nodes} nodes, "
                    f"{checked.size} bytes, {len(checked.sections)} sections, "
                    f"checksums ok"
                )
    wal = read_wal(wal_path(state_dir))
    tail = ", torn final record (the next open cuts it)" if wal.truncated_tail else ""
    yield f"{WAL_NAME}: {len(wal.records)} record(s) through seq {wal.last_seq}{tail}"


def _replay_wal(store: ViewStore, state_dir: str) -> "tuple[set, int]":
    """Replay the WAL tail past the checkpoint into *store*.

    Returns ``(documents that received a replayed commit, last good
    sequence number)``.  Each effective commit record is re-staged and
    committed through the ordinary path; records whose version the
    checkpoint already covers are skipped (the idempotence that makes a
    crash *between* manifest replace and WAL truncate harmless).  A
    version past ``doc.version + 1`` means a record the log should hold
    is missing — that is mid-log damage, not a tolerable tail.
    """
    path = wal_path(state_dir)
    result = read_wal(path)
    if result.truncated_tail:
        truncate_torn_tail(path, result.valid_bytes)
        store.wal_truncated_tail = 1
        warnings.warn(
            f"write-ahead log {path!r}: torn final record truncated "
            f"(expected after a crash mid-append)",
            RuntimeWarning,
            stacklevel=3,
        )
    replayed_docs: set = set()
    replayed = 0
    for rec in effective_commits(result.records):
        name = rec.get("doc")
        version = rec.get("version")
        texts = rec.get("texts")
        if not isinstance(name, str) or not isinstance(version, int) \
                or not isinstance(texts, list) or not texts:
            raise WalCorruptError(path, f"malformed commit record {rec!r}")
        if name not in store.documents:
            warnings.warn(
                f"write-ahead log {path!r}: commit for unknown document "
                f"{name!r} skipped (dropped after the record was written?)",
                RuntimeWarning,
                stacklevel=3,
            )
            continue
        doc = store.documents.get(name)
        if version <= doc.version:
            continue  # the checkpoint already covers this record
        if version != doc.version + 1:
            raise WalCorruptError(
                path,
                f"version gap for {name!r}: document at {doc.version}, "
                f"next record claims {version}",
            )
        try:
            for text in texts:
                store.stage(name, text)
        except ValueError as exc:
            # Only an older build could have logged an update this one
            # refuses to stage; skipping it would lose a commit.
            raise WalCorruptError(
                path, f"commit record for {name!r} v{version} cannot be applied: {exc}"
            ) from None
        store.commit(name)
        replayed += 1
        replayed_docs.add(name)
    store.wal_replayed = replayed
    return replayed_docs, result.last_seq


def _fsync_path(path: str) -> None:
    """fsync a file *or directory* by path (O_RDONLY suffices for both
    on POSIX — directories cannot be opened for writing at all)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_store(store: ViewStore, state_dir: str) -> str:
    """Checkpoint the store's durable state into *state_dir*; returns
    the manifest path.

    Atomic and durable: changed documents are written as column files
    under **fresh versioned filenames** (fsync'd — rename alone only
    orders the directory entry, not the data), never over a file the
    on-disk manifest may still reference; the manifest's own
    temp-write/fsync/``os.replace`` is then the single commit point.
    The directory entry is fsync'd after the renames, and only then is
    the write-ahead log truncated (and unreferenced document files
    collected).  A crash at any point leaves either the old checkpoint
    — its files untouched — plus a full WAL, or the new checkpoint
    plus a WAL whose records replay idempotently: never a state that
    loses a logged commit or replays one onto the wrong tree.
    """
    os.makedirs(state_dir, exist_ok=True)
    documents = {}
    wrote_files = False
    for name in store.documents.names():
        doc = store.documents.get(name)
        with doc.lock:
            filename = doc.state_file
            # Only rewrite documents that changed (commit / fresh load /
            # read from XML): a manifest-only command on a store of large
            # documents must not pay — or risk — a full rewrite of each.
            if doc.dirty or filename is None or not os.path.exists(
                os.path.join(state_dir, filename)
            ):
                # First free versioned name: a replace-put can reuse a
                # version number whose file an older checkpoint still
                # references, and that file must survive a crash here.
                attempt = 0
                filename = _document_file(name, doc.version)
                path = os.path.join(state_dir, filename)
                while os.path.exists(path):
                    attempt += 1
                    filename = _document_file(name, doc.version, attempt)
                    path = os.path.join(state_dir, filename)
                temp = path + ".tmp"
                columns.write(doc.arena, temp)
                _fsync_path(temp)
                fault_point("checkpoint.fsync.file")
                os.replace(temp, path)
                doc.state_file = filename
                doc.dirty = False
                wrote_files = True
            documents[name] = {
                "file": filename,
                "version": doc.version,
                "staged": [entry.text for entry in store.log.staged(name)],
                "committed": store.log.committed(name),
            }
    if wrote_files:
        # New document entries must be durable before a manifest that
        # names them can be: otherwise a power loss could persist the
        # manifest rename but not a file it references.
        _fsync_path(state_dir)
    views = [
        {"name": view.name, "base": view.base, "transform": view.transform_text}
        for view in store.views.in_definition_order()
    ]
    manifest = {"format": _FORMAT, "documents": documents, "views": views}
    manifest_path = _manifest_path(state_dir)
    temp_path = manifest_path + ".tmp"
    with open(temp_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    fault_point("checkpoint.fsync.file")
    fault_point("wal.checkpoint.mid")
    os.replace(temp_path, manifest_path)
    # The renames are durable only once the directory entries are:
    # fsync the directory before the WAL is touched, or a crash could
    # pair the *old* manifest with an already-emptied log.
    _fsync_path(state_dir)
    fault_point("checkpoint.fsync.dir")
    fault_point("wal.checkpoint.pre_truncate")
    if store.wal is not None:
        store.wal.truncate()
    else:
        # A store built in memory and saved over an existing state dir:
        # a stale log from the previous store must not replay over this
        # checkpoint.
        stale = wal_path(state_dir)
        if os.path.exists(stale):
            with open(stale, "wb") as handle:
                os.fsync(handle.fileno())
    # The new checkpoint is durable: document files it no longer
    # references (superseded versions, dropped documents, orphans from
    # an interrupted earlier checkpoint) are garbage.
    # That includes a format-1 directory's XML, once its documents are
    # column files.
    referenced = {info["file"] for info in documents.values()}
    for entry in os.listdir(state_dir):
        stale_doc = entry.startswith("doc-") and entry not in referenced
        # A .tmp can only be the leftover of an interrupted checkpoint:
        # the exclusive state lock means no concurrent save owns one.
        if stale_doc or entry.endswith(".tmp"):
            with contextlib.suppress(OSError):
                os.remove(os.path.join(state_dir, entry))
    return manifest_path
