"""Seeded, deterministic fault injection.

A *fault point* is a named call site (``fault_point("wal.append.pre_fsync")``)
threaded through the code paths whose failure behaviour we need to
prove: state-dir I/O and the wire protocol.
With no plan installed the call is a single global read and a ``None``
check — cheap enough to leave in the commit and serve hot paths
(``# hot-path`` lint clean).

A :class:`FaultPlan` arms specific points.  Each armed point fires in
one of two modes:

* ``fail`` — raise :class:`InjectedFault` (a ``ValueError`` with wire
  code ``"fault"``), exercising error paths in-process;
* ``crash`` — ``os._exit(86)``, simulating a hard kill (no atexit, no
  flush, no ``finally``) for subprocess crash-recovery tests.

Firing is deterministic: ``nth=N`` fires on exactly the Nth hit (once),
``probability=p`` draws from the plan's seeded RNG, and a bare spec
fires on every hit.  The plan also keeps an ordered log of *every*
fault-point name hit while it was installed, so tests can assert I/O
discipline ("the file fsync happened before the rename") without
monkeypatching.

Plans install process-globally via :func:`install` / :func:`uninstall`,
or — for spawned subprocesses — via the ``REPRO_FAULTS`` environment
variable, parsed at import time::

    REPRO_FAULTS="seed=7;wal.append.post_fsync:crash:nth=2;wire.response.pre_send:fail:p=0.5"

Clauses are ``;``-separated; each is ``point[:mode[:opt=val...]]`` with
mode ``fail`` (default) or ``crash`` and options ``nth=int``,
``p=float``, ``exit=int``.  A ``seed=N`` clause seeds the plan's RNG.
"""

from __future__ import annotations

import os
import random
import threading
from typing import Dict, List, Optional

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "current_plan",
    "fault_point",
    "install",
    "install_from_env",
    "parse_plan",
    "uninstall",
]

#: Process exit code used by crash-mode faults; chaos tests assert on it
#: to distinguish an injected kill from an ordinary failure.
CRASH_EXIT_CODE = 86


class InjectedFault(ValueError):
    """A fail-mode fault point fired.

    Subclasses ``ValueError`` so the CLI error boundary reports it and
    exits 2; the wire protocol maps it to error code ``"fault"``.
    """

    code = "fault"

    def __init__(self, point: str) -> None:
        super().__init__(f"injected fault at {point!r}")
        self.point = point


class FaultSpec:
    """How one armed fault point fires.

    ``nth`` is 1-based and exact: the spec fires on hit number ``nth``
    and never again.  ``probability`` draws from the plan's seeded RNG
    per hit.  With neither, the spec fires on every hit.
    """

    __slots__ = ("mode", "nth", "probability", "exit_code")

    def __init__(
        self,
        mode: str = "fail",
        nth: Optional[int] = None,
        probability: Optional[float] = None,
        exit_code: int = CRASH_EXIT_CODE,
    ) -> None:
        if mode not in ("fail", "crash"):
            raise ValueError(f"unknown fault mode {mode!r}")
        if nth is not None and nth < 1:
            raise ValueError(f"nth must be >= 1, got {nth}")
        self.mode = mode
        self.nth = nth
        self.probability = probability
        self.exit_code = exit_code


class FaultPlan:
    """A set of armed fault points plus the seeded RNG they share.

    Install with :func:`install`; every :func:`fault_point` call then
    funnels through :meth:`check`.  The ordered ``log`` of hit names
    (armed or not) lets tests assert call-site ordering.
    """

    def __init__(self, seed: int = 0) -> None:
        self._lock = threading.Lock()
        # guarded-by[_hits, log]: self._lock
        self._specs: Dict[str, FaultSpec] = {}
        self._hits: Dict[str, int] = {}
        self._rng = random.Random(seed)
        self.log: List[str] = []

    def add(
        self,
        point: str,
        mode: str = "fail",
        nth: Optional[int] = None,
        probability: Optional[float] = None,
        exit_code: int = CRASH_EXIT_CODE,
    ) -> "FaultPlan":
        """Arm ``point``; returns ``self`` so plans chain."""
        self._specs[point] = FaultSpec(mode, nth, probability, exit_code)
        return self

    def hits(self, point: str) -> int:
        """How many times ``point`` was hit while this plan was live."""
        with self._lock:
            return self._hits.get(point, 0)

    def check(self, point: str) -> None:
        """Record a hit at ``point`` and fire its spec if armed.

        Called from :func:`fault_point` only.  The crash exit happens
        outside the lock (the process is dying; holding it would only
        matter to other threads that are about to die too, but the
        write to stderr should not be serialized away).
        """
        with self._lock:
            self.log.append(point)
            spec = self._specs.get(point)
            if spec is None:
                return
            count = self._hits.get(point, 0) + 1
            self._hits[point] = count
            if spec.nth is not None:
                fire = count == spec.nth
            elif spec.probability is not None:
                fire = self._rng.random() < spec.probability
            else:
                fire = True
        if not fire:
            return
        if spec.mode == "crash":
            os.write(2, b"repro.faults: crashing at " + point.encode() + b"\n")
            os._exit(spec.exit_code)
        raise InjectedFault(point)


#: The installed plan; ``None`` means every fault point is a no-op.
#: unguarded[_plan]: swapped whole by install/uninstall; fault_point
#: reads it once into a local, so a racing swap is at worst one stale
#: no-op check — tests install the plan before exercising the code.
_plan: Optional[FaultPlan] = None


def fault_point(name: str) -> None:  # hot-path
    """Fire the installed plan at ``name``; no-op when none is armed."""
    plan = _plan
    if plan is None:
        return
    plan.check(name)


def install(plan: FaultPlan) -> None:
    """Make ``plan`` the process-global fault plan."""
    global _plan
    _plan = plan


def uninstall() -> Optional[FaultPlan]:
    """Remove the installed plan (if any) and return it."""
    global _plan
    plan = _plan
    _plan = None
    return plan


def current_plan() -> Optional[FaultPlan]:
    return _plan


def parse_plan(text: str) -> FaultPlan:
    """Parse the ``REPRO_FAULTS`` grammar into a plan.

    ``seed=N;point[:mode[:opt=val...]];...`` — see the module docstring.
    """
    seed = 0
    clauses = []
    for raw in text.split(";"):
        clause = raw.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            seed = int(clause[len("seed="):])
            continue
        clauses.append(clause)
    plan = FaultPlan(seed=seed)
    for clause in clauses:
        fields = clause.split(":")
        point = fields[0]
        mode = fields[1] if len(fields) > 1 and fields[1] else "fail"
        nth: Optional[int] = None
        probability: Optional[float] = None
        exit_code = CRASH_EXIT_CODE
        for opt in fields[2:]:
            if not opt:
                continue
            key, _, value = opt.partition("=")
            if key == "nth":
                nth = int(value)
            elif key == "p":
                probability = float(value)
            elif key == "exit":
                exit_code = int(value)
            else:
                raise ValueError(f"unknown fault option {opt!r} in {clause!r}")
        plan.add(point, mode, nth, probability, exit_code)
    return plan


def install_from_env(env_var: str = "REPRO_FAULTS") -> Optional[FaultPlan]:
    """Install a plan from ``env_var`` if set; returns it (or ``None``).

    Runs once at import so spawned subprocesses (``repro serve`` under
    the chaos harness) arm themselves before any fault point is
    reachable.
    """
    text = os.environ.get(env_var)
    if not text:
        return None
    plan = parse_plan(text)
    install(plan)
    return plan


install_from_env()
