"""Fixtures shared by the store, service and engine suites."""

import sys

import pytest
from hypothesis import settings

from repro.xmltree import arena as arena_module

# CI runs the cache suites (test_positional_rekey.py, test_result_cache.py)
# and the arena properties (test_arena_properties.py: splice == freeze)
# a second time with ``--hypothesis-profile=ci --hypothesis-seed=0``: a
# larger budget for every test that does not pin its own ``max_examples``.
settings.register_profile("ci", max_examples=400, deadline=None)


def _wrap_thaw(monkeypatch, wrapper):
    """Route every ``thaw`` call in the package through *wrapper*
    (``wrapper(real_thaw, arena, i)``): the function is rebound in
    each module that imported it by name."""
    real = arena_module.thaw

    def thaw(arena, i=0):
        return wrapper(real, arena, i)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("repro") and getattr(module, "thaw", None) is real:
            monkeypatch.setattr(module, "thaw", thaw)


@pytest.fixture
def thaw_calls(monkeypatch):
    """The pre-order index of every ``thaw`` made while active, in call
    order (``0`` is a whole document)."""
    calls = []

    def counting(real, arena, i):
        calls.append(i)
        return real(arena, i)

    _wrap_thaw(monkeypatch, counting)
    return calls


@pytest.fixture
def no_document_thaw(monkeypatch):
    """Fail any ``thaw`` of a whole document (index 0); subtree thaws
    — materializing a result — pass through."""

    def guarded(real, arena, i):
        assert i != 0, "a read thawed a whole document"
        return real(arena, i)

    _wrap_thaw(monkeypatch, guarded)
