"""The value of the result cache: one serialized answer, and — once it
has been asked for again — the bytes a server sends for it.

``ViewStore.results`` maps :func:`~repro.store.store.result_key` to
one :class:`Answer` per key.  ``items`` is the answer every in-process
reader copies out of; :meth:`Answer.wire` is the same answer as the
compact-JSON array a response frame carries after ``"result":``, built
lazily and then kept *on the entry* — so it moves with the entry when
a commit re-keys it (the cache moves values by reference) and goes
with it on drop or eviction.  There is no second cache and no second
key.

Memory rule: an entry keeps its wire form only once it has been asked
for again.  The first :meth:`Answer.wire` call — the response to the
miss that made the entry — builds the bytes and lets them go; the
second call (a hit, or the first follower of the entry's flight) keeps
what it builds, and every later call returns that object.  A workload
that never repeats a text therefore never holds a wire byte.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional, Tuple

__all__ = ["Answer"]


class Answer:
    """One cached answer: the serialized items, immutable, and their
    wire form from the second time it is asked for."""

    # __weakref__: lets a test watch an entry die with its bytes.
    __slots__ = ("items", "_asked", "_wire", "__weakref__")

    # unguarded[_asked, _wire]: write-once-then-read fields shared by connection threads without a lock; _wire is published by one attribute store of complete, immutable bytes, and two racing builders produce equal bytes (last store wins, both valid); a lost _asked update only postpones retention by one call

    def __init__(self, items: Iterable[str]) -> None:
        #: Immutable, so no reader can change what another reads; each
        #: in-process caller takes its own ``list(answer.items)``.
        self.items: Tuple[str, ...] = tuple(items)
        self._asked = False
        self._wire: Optional[bytes] = None

    def wire(self) -> bytes:  # hot-path
        """``items`` as a compact JSON array in ASCII — exactly what
        :func:`~repro.service.protocol.encode_frame` puts after
        ``"result":`` for ``list(items)``."""
        wire = self._wire
        if wire is None:
            wire = json.dumps(self.items, separators=(",", ":")).encode("ascii")
            if self._asked:
                self._wire = wire
            self._asked = True
        return wire

    @property
    def wire_bytes(self) -> int:
        """Bytes of wire form this entry holds (0 until the second
        :meth:`wire` call)."""
        wire = self._wire
        return 0 if wire is None else len(wire)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Answer({len(self.items)} items, {self.wire_bytes} wire bytes)"
