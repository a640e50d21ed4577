"""The store's write-ahead log: checksummed JSON lines, fsync'd per
commit.

Every ``commit_delta`` on a state-dir-backed store first appends one
record describing the staged update texts it is about to apply —
*before* the splice touches the document — and fsyncs it.  A
checkpoint (:func:`~repro.store.state.save_store`) then truncates the
log: the manifest now covers every record.  Recovery
(:func:`~repro.store.state.open_store`) replays the surviving tail
through the ordinary commit path.

Record format — one JSON object per line::

    {"crc": <crc32 of the canonical body>, "seq": N, "rec": {...}}

The body is the canonical (sorted-keys, no-whitespace) JSON of
``{"seq": N, "rec": record}``; ``crc`` is ``zlib.crc32`` over its UTF-8
bytes.  Sequence numbers are contiguous from 1 within one checkpoint
epoch.  ``rec`` kinds:

* ``{"kind": "commit", "doc": name, "version": V, "texts": [...]}`` —
  the staged transform texts a commit consumed, and the version the
  document will hold once they apply.
* ``{"kind": "abort", "doc": name, "version": V}`` — the commit whose
  record was already durable failed before installing; its record is
  cancelled (see :func:`effective_commits`).

Damage policy: a torn or checksum-failing **final** line is the
expected crash artifact — :func:`read_wal` reports it so the opener can
physically truncate to the last good record and warn.  Anything wrong
*before* the final line (bad line, bad crc, sequence gap) raises the
typed :class:`~repro.store.errors.WalCorruptError`: records past the
damage cannot be trusted, and replaying around a hole would fabricate
history.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from typing import IO, Any, Dict, List, Optional

from repro.faults import fault_point
from repro.store.errors import WalCorruptError

__all__ = [
    "WAL_NAME",
    "WalReadResult",
    "WalWriter",
    "effective_commits",
    "encode_record",
    "read_wal",
    "truncate_torn_tail",
    "wal_path",
]

WAL_NAME = "wal.jsonl"


def wal_path(state_dir: str) -> str:
    return os.path.join(state_dir, WAL_NAME)


def encode_record(seq: int, record: Dict[str, Any]) -> bytes:
    """One checksummed WAL line (terminating newline included)."""
    body = json.dumps(
        {"seq": seq, "rec": record}, sort_keys=True, separators=(",", ":")
    )
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    line = json.dumps(
        {"crc": crc, "seq": seq, "rec": record},
        sort_keys=True,
        separators=(",", ":"),
    )
    return line.encode("utf-8") + b"\n"


def _decode_line(raw: bytes) -> Optional[Dict[str, Any]]:
    """One parsed-and-verified line, or ``None`` when torn/corrupt."""
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(obj, dict):
        return None
    crc = obj.get("crc")
    seq = obj.get("seq")
    rec = obj.get("rec")
    if not isinstance(crc, int) or not isinstance(seq, int) or not isinstance(rec, dict):
        return None
    body = json.dumps(
        {"seq": seq, "rec": rec}, sort_keys=True, separators=(",", ":")
    )
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != crc:
        return None
    return obj


class WalReadResult:
    """What :func:`read_wal` recovered from one log file."""

    __slots__ = ("records", "last_seq", "truncated_tail", "valid_bytes")

    def __init__(
        self,
        records: List[Dict[str, Any]],
        last_seq: int,
        truncated_tail: bool,
        valid_bytes: int,
    ) -> None:
        self.records = records
        self.last_seq = last_seq
        self.truncated_tail = truncated_tail
        self.valid_bytes = valid_bytes


def read_wal(path: str) -> WalReadResult:
    """Read and verify a WAL file.

    Returns the good records in order.  ``truncated_tail`` is set when
    the final line was torn (the caller should physically truncate the
    file to ``valid_bytes`` before appending again — a later append
    after a torn line would turn tail damage into mid-log damage).
    Mid-log damage raises :class:`WalCorruptError`.
    """
    if not os.path.exists(path):
        return WalReadResult([], 0, False, 0)
    with open(path, "rb") as handle:
        data = handle.read()
    records: List[Dict[str, Any]] = []
    last_seq = 0
    offset = 0
    valid_bytes = 0
    n = len(data)
    line_no = 0
    while offset < n:
        end = data.find(b"\n", offset)
        torn_line = end < 0  # no terminating newline: the write was cut
        if torn_line:
            end = n
        raw = data[offset:end]
        line_no += 1
        obj = None if torn_line else _decode_line(raw)
        if obj is None:
            if end >= n or not data[end + 1:].strip():
                # Damage confined to the tail: report, let the caller
                # truncate to the last good record.
                return WalReadResult(records, last_seq, True, valid_bytes)
            raise WalCorruptError(
                path, "bad record before the final line", line_no
            )
        seq = obj["seq"]
        if seq != last_seq + 1:
            raise WalCorruptError(
                path,
                f"sequence gap: expected {last_seq + 1}, found {seq}",
                line_no,
            )
        records.append(obj["rec"])
        last_seq = seq
        offset = end + 1
        valid_bytes = offset
    return WalReadResult(records, last_seq, False, valid_bytes)


def truncate_torn_tail(path: str, valid_bytes: int) -> None:
    """Physically cut a torn tail so future appends start clean."""
    with open(path, "rb+") as handle:
        handle.truncate(valid_bytes)
        handle.flush()
        os.fsync(handle.fileno())


def effective_commits(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Commit records that still count, in order.

    An ``abort`` record cancels the **latest prior uncancelled**
    commit record with the same ``(doc, version)`` — the commit whose
    record made it to disk but whose apply failed in-process (the store
    restored its staged entries, so a retry writes a fresh record with
    the same version; without cancellation the replay would apply the
    failed attempt and skip the real one).
    """
    commits: List[Optional[Dict[str, Any]]] = []
    for rec in records:
        kind = rec.get("kind")
        if kind == "commit":
            commits.append(rec)
        elif kind == "abort":
            for index in range(len(commits) - 1, -1, -1):
                prior = commits[index]
                if (
                    prior is not None
                    and prior.get("doc") == rec.get("doc")
                    and prior.get("version") == rec.get("version")
                ):
                    commits[index] = None
                    break
        # Unknown kinds are skipped: a newer writer may add record
        # kinds an older reader can ignore safely.
    return [rec for rec in commits if rec is not None]


class WalWriter:
    """Appends checksummed, fsync'd records to one WAL file.

    Attached to a :class:`~repro.store.store.ViewStore` by
    ``open_store`` *after* replay (so replayed commits are not
    re-logged), continuing the surviving sequence.  ``fsync=False``
    exists for the benchmark baseline only — it forfeits the
    durability guarantee.
    """

    # guarded-by[seq, appends, fsyncs, _handle]: self._lock

    def __init__(self, path: str, start_seq: int = 0, fsync: bool = True) -> None:
        self.path = path
        self.fsync_enabled = fsync
        self._lock = threading.Lock()
        self.seq = start_seq
        self.appends = 0
        self.fsyncs = 0
        self._handle: Optional[IO[bytes]] = None

    def append(self, record: Dict[str, Any]) -> int:
        """Durably append one record; returns its sequence number.

        The record is on disk (written, flushed, fsync'd) before this
        returns — the commit it describes may then proceed.
        """
        with self._lock:
            handle = self._handle
            if handle is None:
                handle = open(self.path, "ab")
                self._handle = handle
            seq = self.seq + 1
            handle.write(encode_record(seq, record))
            handle.flush()
            fault_point("wal.append.pre_fsync")
            if self.fsync_enabled:
                os.fsync(handle.fileno())
                self.fsyncs += 1
            fault_point("wal.append.post_fsync")
            self.seq = seq
            self.appends += 1
            return seq

    def truncate(self) -> None:
        """Reset the log after a checkpoint covered every record."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            with open(self.path, "wb") as handle:
                handle.flush()
                os.fsync(handle.fileno())
            self.seq = 0

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "seq": self.seq,
                "appends": self.appends,
                "fsyncs": self.fsyncs,
            }
