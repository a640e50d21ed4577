"""Compatibility re-exports: the compiled-artifact cache machinery now
lives at the package root (:mod:`repro.compiled`, :mod:`repro.lru`) so
the engine can use it without importing from the store package (the
store imports nothing from the engine either — both sit on the shared
root modules).  This module keeps the historical import path
``repro.store.cache`` working.
"""

from repro.compiled import CompiledCache, CompiledPath
from repro.lru import LRUCache

__all__ = ["CompiledCache", "CompiledPath", "LRUCache"]
