"""Virtual views: a base (document or another view) plus one transform
query per layer, stacked to arbitrary depth.

A view never holds a document of its own — it *is* its transform
query.  Queries against a view are answered by the Compose Method
against the outermost transform (pruning the work to the subtrees the
query actually visits) over the arena the inner layers splice out of
the pinned document; see :mod:`repro.store.store` for how a read is
served.

The exception is a **hot** view: once the configurable
:class:`MaterializationPolicy` decides a view is queried often enough,
its arena is kept (a splice of its base — untouched columns and the
payload pool are shared, not copied) and reused until a commit on the
underlying document invalidates it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional

from repro.store.documents import validate_name
from repro.store.errors import StoreError, UnknownNameError
from repro.transform.query import TransformQuery
from repro.xmltree.arena import FrozenDocument


@dataclass
class MaterializationPolicy:
    """When does a view earn a cached (materialized) arena?

    *hot_threshold* is the number of queries routed through a view
    before its arena is cached; ``enabled=False`` keeps every view fully
    virtual regardless of traffic (the paper's default posture).
    """

    hot_threshold: int = 8
    enabled: bool = True

    def should_materialize(self, view: "View") -> bool:
        return self.enabled and view.query_count >= self.hot_threshold


class View:
    """One stacked view layer: a name, its base, and a transform."""

    __slots__ = (
        "name",
        "base",
        "transform",
        "transform_text",
        "query_count",
        "materialized_root",
        "materialized_version",
    )

    # A View's mutable state is guarded by the *owning document's*
    # lock, which the View cannot name: ViewStore touches these fields
    # only inside `with doc.lock:` — when a read is pinned, when it
    # publishes a materialization, and when a commit installs.
    # unguarded[query_count, materialized_root, materialized_version]: guarded by the owning document's lock (held by ViewStore's pin, publish and commit-install steps); a View cannot name it

    def __init__(
        self, name: str, base: str, transform: TransformQuery, transform_text: str
    ) -> None:
        self.name = name
        self.base = base
        self.transform = transform
        self.transform_text = transform_text
        self.query_count = 0
        #: The view's whole output as a frozen arena, when hot.
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

    def rebase_materialization(self, version: int) -> bool:
        """Re-stamp the cached arena onto a new committed *version*.

        Delta-scoped invalidation calls this when a commit is provably
        invisible through this view's stack (every patch swallowed by
        an inner delete/replace) — the arena is exact for the new
        version, so it survives the commit.  Returns whether there was
        a materialization to keep.
        """
        if self.materialized_root is None:
            return False
        self.materialized_version = version
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hot = " materialized" if self.materialized_root is not None else ""
        return f"View({self.name!r} over {self.base!r}{hot})"


class ViewRegistry:
    """The name → :class:`View` table and its stacking structure."""

    # guarded-by[_views]: self._lock

    def __init__(self, policy: Optional[MaterializationPolicy] = None) -> None:
        self.policy = policy if policy is not None else MaterializationPolicy()
        self._views: dict[str, View] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Definition
    # ------------------------------------------------------------------

    def define(
        self, name: str, base: str, transform: TransformQuery, transform_text: str
    ) -> View:
        """Register a view.  The caller (the store facade) has already
        checked that *base* names an existing document or view and that
        *name* is free in the shared namespace."""
        validate_name(name)
        view = View(name, base, transform, transform_text)
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

    def dependents_of_document(self, doc_name: str) -> list[View]:
        """Every view whose stack bottoms out in *doc_name*."""
        with self._lock:
            names = list(self._views)
        return [v for v in map(self.get, names) if self.document_of(v.name) == doc_name]

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
                "queries": view.query_count,
                "materialized": view.materialized_root is not None,
                "transform": view.transform_text,
            }
        return out
