"""A security-view *server*: one resident catalog, a stack of
views, many queries — the store keeps documents parsed, queries compiled,
and results cached across requests.

This is the service-shaped version of ``security_views.py``: instead of
re-parsing the catalog and re-composing the policy for every request,
a :class:`repro.ViewStore` holds the catalog once, the policies are
*stacked* views (``public`` hides restricted prices; ``partners`` is a
further view over ``public`` that renames supplier names away), and a
simulated request loop shows the compiled-query and result caches doing
their job.  A commit then updates the catalog destructively and every
dependent view answer refreshes automatically.

Run with::

    python examples/view_server.py
"""

from repro import MetricsRegistry, ViewStore, serialize
from repro.xmltree.serializer import serialize_arena

CATALOG = """
<db>
  <part>
    <pname>keyboard</pname>
    <supplier><sname>HP</sname><price>12</price><country>US</country></supplier>
    <supplier><sname>Dell</sname><price>20</price><country>A</country></supplier>
    <supplier><sname>Acme</sname><price>15</price><country>B</country></supplier>
  </part>
  <part>
    <pname>mouse</pname>
    <supplier><sname>HP</sname><price>8</price><country>A</country></supplier>
  </part>
</db>
"""

#: The simulated request mix: every group keeps asking these.
REQUESTS = [
    "for $x in part[pname = 'keyboard']/supplier return $x",
    "for $x in part/supplier[country = 'US'] return $x",
    "for $x in part where $x/supplier/price < 10 return $x/pname",
]

ROUNDS = 5


def main() -> None:
    store = ViewStore()
    store.put("catalog", CATALOG)

    # Layer 1: the public view deletes prices of restricted countries.
    store.define_view(
        "public",
        "catalog",
        'transform copy $a := doc("catalog") modify do '
        "delete $a//supplier[country = 'A' or country = 'B']/price return $a",
    )
    # Layer 2: partners additionally see suppliers anonymized.
    store.define_view(
        "partners",
        "public",
        'transform copy $a := doc("public") modify do '
        "rename $a//sname as vendor return $a",
    )

    print("serving", len(REQUESTS), "distinct queries x", ROUNDS, "rounds "
          "against the 'partners' view (stack depth 2):")
    for round_number in range(1, ROUNDS + 1):
        for request in REQUESTS:
            answer = store.query_serialized("partners", request)
            if round_number == 1:
                # Every answer agrees with materialize-then-query.
                reference = store.query_naive("partners", request)
                assert answer == [serialize(x) for x in reference]
                for item in answer:
                    print("   ", item)
                print()

    # Every count lives in a metrics registry bound to the store; its
    # stats() is state (documents, views, the last commit).
    registry = MetricsRegistry()
    store.bind_metrics(registry)
    m = registry.snapshot()
    hits = m["store.cache.results.hits"]
    total = hits + m["store.cache.results.misses"]
    print(f"result cache: {hits}/{total} hits ({hits / total:.0%} warm)")
    print(f"user queries parsed: {m['engine.compiled.user_queries.misses']} "
          f"(one per distinct query, reused every round)")
    print(f"evaluations over a frozen arena: {m['store.arena.reads']} "
          f"(both layers spliced on the first read, then reused — no document thawed)")

    assert "price" in serialize_arena(store.pin("catalog").arena)

    # Now HP discounts the keyboard: hypothetically first, then for real.
    discount = (
        'transform copy $a := doc("catalog") modify do '
        "replace $a//part[pname = 'keyboard']//price[. = 12] with <price>9</price> "
        "return $a"
    )
    store.stage("catalog", discount)
    preview = store.query("catalog", "for $x in part/supplier/price return $x",
                          include_staged=True)
    print("\nstaged preview of catalog prices:",
          [serialize(x) for x in preview])

    version = store.commit("catalog")
    print(f"committed catalog v{version}; dependent views refreshed:")
    for item in store.query("partners", REQUESTS[0]):
        print("   ", serialize(item))
    assert "<price>9</price>" in serialize_arena(store.pin("catalog").arena)


if __name__ == "__main__":
    main()
