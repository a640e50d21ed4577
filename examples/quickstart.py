"""Quickstart: transform queries in five minutes.

Run with::

    python examples/quickstart.py

Walks through the paper's running example (Fig. 1) the way the engine
API frames it: prepare a transform query once, let the engine's rule
pick the evaluation strategy per input, execute it many times — then
peek underneath at the five equivalent algorithms (two the rule chooses
between, three the paper measures them against), and confirm the source
document is never modified.
"""

from repro import (
    Engine,
    deep_equal,
    parse,
    serialize,
    transform_sax,
    transform_topdown,
    transform_twopass,
)

DOCUMENT = """
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


def show(title: str, tree) -> None:
    print(f"--- {title} ---")
    print(serialize(tree, indent="  "))


def main() -> None:
    doc = parse(DOCUMENT)
    show("original document", doc)

    # The engine prepares a query once (parse + automata) and picks the
    # evaluation strategy per input; .run() executes it.
    engine = Engine()

    # 1. Delete: a view of the catalog without any price information.
    #    (Example 1.1 of the paper — inexpressible in plain XPath,
    #    one line as a transform query.)
    no_prices = engine.prepare_transform(
        'transform copy $a := doc("db") modify do delete $a//price return $a'
    )
    show("delete $a//price", no_prices.run(doc))

    # The choice is inspectable: the strategy, the shape/depth/size
    # facts the rule consulted, and why.
    print("--- the plan ---")
    print(no_prices.explain(doc))
    print()

    # 2. Insert: add a review stub to every part.
    add_reviews = engine.prepare_transform(
        'transform copy $a := doc("db") modify do '
        "insert <reviews pending=\"true\"/> into $a/part return $a"
    )
    show("insert <reviews/> into $a/part", add_reviews.run(doc))

    # 3. Replace: hide prices of suppliers from country 'A' instead of
    #    removing them (a redaction-style security view).
    redact = engine.prepare_transform(
        'transform copy $a := doc("db") modify do '
        "replace $a//supplier[country = 'A']/price with <price>hidden</price> return $a"
    )
    show("replace qualifying prices", redact.run(doc))

    # 4. Rename: align vocabulary with a partner schema — chained onto
    #    the redaction with .then(): stage 2 sees stage 1's result.
    partner_view = redact.then(engine.prepare_transform(
        'transform copy $a := doc("db") modify do rename $a//sname as vendor return $a'
    ))
    show("redact, then rename (a prepared stack)", partner_view.run(doc))

    # Underneath, five evaluation algorithms — all semantically
    # identical; the rule picks topdown or twopass (naive, copy and
    # sax are the paper's baselines: never chosen), and forcing any
    # of them gives the same tree.
    reference = no_prices.run(doc)
    for method in ("topdown", "twopass", "naive", "copy", "sax"):
        assert deep_equal(no_prices.run(doc, method=method), reference)
    # The flat functions remain available for direct calls.
    for algorithm in (transform_topdown, transform_twopass, transform_sax):
        assert deep_equal(algorithm(doc, no_prices.query), reference)
    assert "price" in serialize(doc)
    print("all algorithms agree; the stored document was never modified")


if __name__ == "__main__":
    main()
