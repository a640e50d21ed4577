"""``repro.service`` — a concurrent query service over the view store.

The store (:mod:`repro.store`) answers one caller at a time under
per-document locks; this subsystem puts a serving layer in front of it
for many concurrent clients:

* **MVCC snapshot reads** — every request pins the target document's
  current frozen arena version and evaluates against that immutable
  snapshot, lock-free; writers stage and commit without ever blocking
  or corrupting readers (single-writer, many-reader).
* **Single-flight reads** — a request runs on the thread that brought
  it: answered from the per-version result memo, from an identical
  (document, version, query) evaluation already in flight, or by
  evaluating it there and then, under a bound on concurrent
  evaluations.  The memo's value is sent as it is: a cached answer
  carries its wire form, a length-prefixed body the client slices
  without JSON-parsing it, so a repeat over the wire is a header line
  and bytes the entry already holds, not re-encoded.
* **A line-protocol TCP server and client** — ``repro serve`` /
  :class:`Client`, JSON frames (a ``query`` answer's items follow its
  header line as one body), graceful shutdown, per-request
  deadlines, and admission control that sheds load with typed errors.

In-process::

    from repro import QueryService

    service = QueryService()
    service.put("db", "<db><a><v>1</v></a></db>")
    rows = service.query("db", "for $x in a/v return $x")
    service.close()

Over the wire::

    # terminal 1
    $ repro serve --state .repro-store --port 7007

    # terminal 2 (python)
    from repro.service import Client
    with Client(port=7007) as db:
        rows = db.query("db", "for $x in a/v return $x")
"""

from repro.service.client import Client, RetryPolicy
from repro.service.errors import (
    BadRequestError,
    DeadlineError,
    OverloadedError,
    ResponseLostError,
    RetryExhaustedError,
    ServiceClosedError,
    ServiceError,
    TransportError,
)
from repro.service.server import ServiceServer
from repro.service.service import QueryService, ServiceConfig

__all__ = [
    "BadRequestError",
    "Client",
    "DeadlineError",
    "OverloadedError",
    "QueryService",
    "ResponseLostError",
    "RetryExhaustedError",
    "RetryPolicy",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
    "TransportError",
]
