"""Stacked views: a base (document or another view) plus one transform
query per layer, stacked to arbitrary depth.

A view is defined by its transform query alone; what it reads as is
derived data of its document's version.  The first committed read of a
version splices every layer onto the pinned arena and keeps each
layer's arena (untouched columns and the payload pool are shared with
its base, not copied); every later read of that version starts from
the kept arena, until a commit the view does not swallow drops it.  See
:mod:`repro.store.store` for how a read is served.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.store.documents import validate_name
from repro.store.errors import StoreError, UnknownNameError
from repro.transform.query import TransformQuery
from repro.xmltree.arena import FrozenDocument


class View:
    """One stacked view layer: a name, its base, and a transform."""

    __slots__ = (
        "name",
        "base",
        "transform",
        "transform_text",
        "labels",
        "materialized_root",
        "materialized_version",
    )

    # A View's mutable state is guarded by the *owning document's*
    # lock, which the View cannot name: ViewStore touches these fields
    # only inside `with doc.lock:` — when a read is pinned, when it
    # publishes a materialization, and when a commit installs.  (A
    # commit's plan reads materialized_root before, unlocked, only to
    # pay the swallow test early; the install decides under the lock.)
    # unguarded[materialized_root, materialized_version]: guarded by the owning document's lock (held by ViewStore's pin, publish and commit-install steps); a View cannot name it

    def __init__(
        self,
        name: str,
        base: str,
        transform: TransformQuery,
        transform_text: str,
        labels: Optional[frozenset],
    ) -> None:
        self.name = name
        self.base = base
        self.transform = transform
        self.transform_text = transform_text
        #: The labels the transform mentions
        #: (:func:`~repro.store.delta.transform_labels`, analyzed once at
        #: definition — a definition only changes by drop + define);
        #: ``None`` when unanalyzable.
        self.labels = labels
        #: The view's whole output as a frozen arena, once a committed
        #: read of ``materialized_version`` has built it.
        self.materialized_root: Optional[FrozenDocument] = None
        self.materialized_version: Optional[int] = None

    def materialization_for(self, version: int) -> Optional[FrozenDocument]:
        """The cached arena, if it reflects document *version*."""
        if self.materialized_version == version:
            return self.materialized_root
        return None

    def set_materialized(self, root: FrozenDocument, version: int) -> None:
        self.materialized_root = root
        self.materialized_version = version

    def invalidate(self) -> None:
        self.materialized_root = None
        self.materialized_version = None

    def rebase_materialization(self, version: int) -> None:
        """Re-stamp the cached arena onto a new committed *version*: a
        commit provably invisible through this view's stack (every
        patch swallowed by an inner delete/replace) leaves it exact."""
        self.materialized_version = version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hot = " materialized" if self.materialized_root is not None else ""
        return f"View({self.name!r} over {self.base!r}{hot})"


class ViewRegistry:
    """The name → :class:`View` table and its stacking structure."""

    # guarded-by[_views]: self._lock

    def __init__(self) -> None:
        self._views: dict[str, View] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Definition
    # ------------------------------------------------------------------

    def define(
        self,
        name: str,
        base: str,
        transform: TransformQuery,
        transform_text: str,
        labels: Optional[frozenset],
    ) -> View:
        """Register a view.  The caller (the store facade) has already
        checked that *base* names an existing document or view and that
        *name* is free in the shared namespace."""
        validate_name(name)
        view = View(name, base, transform, transform_text, labels)
        with self._lock:
            self._views[name] = view
        return view

    def drop(self, name: str) -> None:
        with self._lock:
            if name not in self._views:
                raise UnknownNameError(name)
            dependents = sorted(
                v.name for v in self._views.values() if v.base == name
            )
            if dependents:
                raise StoreError(
                    f"cannot drop view {name!r}: views {dependents} stack on it"
                )
            del self._views[name]

    # ------------------------------------------------------------------
    # Lookup and structure
    # ------------------------------------------------------------------

    def get(self, name: str) -> View:
        with self._lock:
            try:
                return self._views[name]
            except KeyError:
                raise UnknownNameError(name) from None

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._views

    def __len__(self) -> int:
        with self._lock:
            return len(self._views)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._views)

    def stack(self, name: str) -> tuple[str, list[View]]:
        """Resolve a view to ``(document_name, layers)`` with the layers
        ordered innermost (closest to the document) first."""
        chain: list[View] = []
        current = self.get(name)
        with self._lock:
            while True:
                chain.append(current)
                nxt = self._views.get(current.base)
                if nxt is None:
                    break
                current = nxt
        chain.reverse()
        return chain[0].base, chain

    def document_of(self, name: str) -> str:
        """The document a view stack bottoms out in."""
        return self.stack(name)[0]

    def stacks_over(self, doc_name: str) -> dict[str, list[View]]:
        """Every view whose stack bottoms out in *doc_name*, by name,
        with its layers innermost first (:meth:`stack`)."""
        with self._lock:
            names = list(self._views)
        stacks = {name: self.stack(name) for name in names}
        return {name: layers for name, (base, layers) in stacks.items() if base == doc_name}

    def in_definition_order(self) -> list[View]:
        """Views ordered so every base precedes its dependents (the
        insertion order, which :meth:`define` guarantees is valid)."""
        with self._lock:
            return list(self._views.values())

    def stats(self) -> dict[str, dict[str, Any]]:
        out: dict[str, dict[str, Any]] = {}
        for view in self.in_definition_order():
            doc_name, layers = self.stack(view.name)
            out[view.name] = {
                "base": view.base,
                "document": doc_name,
                "depth": len(layers),
                "materialized": view.materialized_root is not None,
                "transform": view.transform_text,
            }
        return out
