"""A live client session against the concurrent query service.

By default this example boots its own ``repro serve`` equivalent
in-process on an ephemeral port, then drives it exactly the way a
remote client would — load a document over the wire, stack a view,
fire concurrent queries (watch them coalesce), stage-and-preview an
update, commit it, and read the serving metrics back.

Point it at an already-running server instead with::

    python examples/service_client.py --connect 127.0.0.1:7007

(which is what the CI smoke job does after booting ``repro serve``).
"""

import sys
import threading

from repro.service import Client, QueryService, ServiceConfig, ServiceServer
from repro.store import StoreError

CATALOG = """
<db>
  <part>
    <pname>keyboard</pname>
    <supplier><sname>HP</sname><price>12</price><country>US</country></supplier>
    <supplier><sname>Dell</sname><price>20</price><country>A</country></supplier>
  </part>
  <part>
    <pname>mouse</pname>
    <supplier><sname>HP</sname><price>8</price><country>A</country></supplier>
  </part>
</db>
"""

HIDE_A_PRICES = (
    'transform copy $a := doc("catalog") modify do '
    "delete $a//supplier[country = 'A']/price return $a"
)


def drive(host: str, port: int) -> None:
    with Client(host, port, timeout=30.0) as db:
        print(f"connected to {host}:{port} -> ping: {db.ping()}")

        # 1. Load a document over the wire and define a view on it.
        info = db.load("catalog", xml=CATALOG)
        print(f"loaded {info['name']!r} v{info['version']} ({info['nodes']} nodes)")
        view = db.defview("public", "catalog", HIDE_A_PRICES)
        print(f"defined view {view['name']!r} over {view['base']!r}")

        # 2. Concurrent identical queries: each runs on its own
        #    connection, on that connection's server thread.  The
        #    first arrival evaluates; any that arrive while it does
        #    join its flight and share the one answer (coalesced);
        #    any that arrive after it is published are memo hits.
        text = "for $x in part/supplier[price < 15] return $x"
        results, workers = [], []
        for _ in range(8):
            def one_shot():
                with Client(host, port, timeout=30.0) as c:
                    results.append(c.query("catalog", text))
            workers.append(threading.Thread(target=one_shot))
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert all(r == results[0] for r in results)
        print(f"8 concurrent clients, identical query -> {len(results[0])} rows each")

        # 3. The view hides restricted prices; the document does not.
        public = db.query("public", "for $x in part/supplier return $x")
        assert not any("<price>8</price>" in row for row in public)
        print(f"view 'public' hides country-A prices ({len(public)} suppliers)")

        # 4. Hypothetical update: stage, preview, then commit.
        db.stage("catalog", 'transform copy $a := doc("catalog") modify do '
                            "delete $a/part[pname = 'mouse'] return $a")
        preview = db.query("catalog", "for $x in part return $x/pname", staged=True)
        committed_view = db.query("catalog", "for $x in part return $x/pname")
        print(f"staged preview sees {len(preview)} part(s); "
              f"committed state still has {len(committed_view)}")
        version = db.commit("catalog")
        print(f"committed: catalog now v{version['version']}")
        assert db.query("catalog", "for $x in part return $x/pname") == preview

        # 5. Typed errors cross the wire as their exception classes.
        try:
            db.query("no-such-doc", "for $x in a return $x")
        except StoreError as exc:
            print(f"typed error over the wire: {exc}")

        # 6. Serving metrics, under their registry names: snapshot
        # reads, coalescing, memo hits.  (stats() is state: documents,
        # views, configuration.)
        m = db.metrics()
        print(
            "metrics: "
            f"{m['service.requests.total']} requests, "
            f"{m['service.reads.snapshot']} snapshot reads, "
            f"{m['service.dispatch.evaluations']} evaluations, "
            f"{m['service.dispatch.coalesced']} coalesced, "
            f"{m['service.dispatch.memo_hits']} memo hits"
        )
    print("session complete; the server keeps serving other clients")


def main() -> None:
    for arg in sys.argv[1:]:
        if arg.startswith("--connect"):
            address = arg.split("=", 1)[1] if "=" in arg else sys.argv[-1]
            host, _, port = address.partition(":")
            drive(host or "127.0.0.1", int(port))
            return
    # Self-hosted: boot an in-process server on an ephemeral port.
    service = QueryService(config=ServiceConfig(workers=4))
    with ServiceServer(service) as server:
        host, port = server.address
        print(f"booted in-process server on {host}:{port}")
        drive(host, port)
    print("server shut down gracefully")


if __name__ == "__main__":
    main()
