"""Store-layer exceptions.

Every store error is a :class:`ValueError` subclass so the CLI boundary
(which already maps ``ValueError``/``OSError`` to a one-line message and
exit code 2) covers the store without special cases.
"""

from __future__ import annotations

from typing import Optional


class StoreError(ValueError):
    """Base class for every error raised by :mod:`repro.store`."""


class UnknownNameError(StoreError):
    """A document or view name that the store does not know."""

    def __init__(self, name: str):
        super().__init__(f"unknown document or view {name!r}")
        self.name = name


class DuplicateNameError(StoreError):
    """A name already taken by a document or a view.

    Documents and views share one namespace: a query names its target
    without saying which kind it is, so the store keeps them disjoint.
    """

    def __init__(self, name: str):
        super().__init__(f"name {name!r} is already in use")
        self.name = name


class NothingStagedError(StoreError):
    """Commit or rollback on a document with an empty staging area."""

    def __init__(self, name: str):
        super().__init__(f"no staged updates for document {name!r}")
        self.name = name


class StateLockedError(StoreError):
    """Another process holds the durable state directory's lock.

    Two CLI invocations (or a CLI invocation and a running ``repro
    serve``) must not interleave reads and writes of one state
    directory — the second comer gets this error instead of a
    half-merged store.
    """

    def __init__(self, state_dir: str, holder: str = ""):
        detail = f" (held by {holder})" if holder else ""
        super().__init__(
            f"store state directory {state_dir!r} is locked by another "
            f"process{detail}; retry when it finishes"
        )
        self.state_dir = state_dir


class CorruptStateError(StoreError):
    """A file of the durable state directory cannot be read.

    Raised for a manifest with unparseable JSON, a missing required
    field or an unsupported format number, and for a column file that
    is truncated, fails a checksum or was written by an incompatible
    build (*section* then names the damaged part) — anything where
    proceeding would silently drop or mangle stored documents.
    """

    def __init__(self, path: str, reason: str, section: Optional[str] = None):
        where = f"section {section!r}: " if section else ""
        super().__init__(f"corrupt store state {path!r}: {where}{reason}")
        self.path = path
        self.section = section


class WalCorruptError(StoreError):
    """The write-ahead log is damaged somewhere other than its tail.

    A torn *final* record is the expected crash artifact and is
    tolerated (truncate-and-warn); a bad checksum, unparseable line, or
    sequence gap **mid-log** means records after the damage cannot be
    trusted, so recovery refuses to replay past it — as it refuses a
    commit record whose update this build will not stage.
    """

    def __init__(self, wal_path: str, reason: str, line: int = 0) -> None:
        detail = f" (line {line})" if line else ""
        super().__init__(
            f"corrupt write-ahead log {wal_path!r}{detail}: {reason}"
        )
        self.wal_path = wal_path
        self.line = line


class InvalidNameError(StoreError):
    """A name the store refuses (it must be a plain identifier-ish
    token: letters, digits, ``_``, ``.`` and ``-`` — names double as
    state-directory file names)."""

    def __init__(self, name: str):
        super().__init__(
            f"invalid name {name!r}: use letters, digits, '_', '.' or '-'"
        )
        self.name = name
