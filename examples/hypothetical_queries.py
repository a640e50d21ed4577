"""Hypothetical ("what-if") queries over an auction site.

A transform query is XQuery syntax for the classical hypothetical query
"Q when {U}": evaluate Q as if update U had been applied, without
applying it.  This example asks decision-support questions against an
XMark-shaped auction document:

* What would the bidder counts look like if all low bids (increase
  below a threshold) were purged?
* How many descriptions survive if verbose parlist descriptions are
  replaced with a placeholder?

Every scenario runs through the engine, which picks the strategy per
input: these qualifiers test children only and XMark is shallow, so the
rule takes the single ``topdown`` pass each time (``twopass`` is for
descendant qualifiers on nestable candidates in deep documents).

Run with::

    python examples/hypothetical_queries.py
"""

from repro import Engine, evaluate, generate_xmark, parse_xpath


def count(tree, path: str) -> int:
    return len(evaluate(tree, parse_xpath(path)))


def main() -> None:
    engine = Engine()
    site = generate_xmark(0.005, seed=11)
    open_auctions = count(site, "open_auctions/open_auction")
    bidders = count(site, "open_auctions/open_auction/bidder")
    print(f"auction site: {open_auctions} open auctions, {bidders} bidders")

    # What if every bid with increase < 10 were purged?
    for threshold in (5, 10, 20):
        purge = engine.prepare_transform(
            'transform copy $a := doc("site") modify do '
            f"delete $a/open_auctions/open_auction/bidder[increase < {threshold}] "
            "return $a"
        )
        hypothetical = purge.run(site)
        remaining = count(hypothetical, "open_auctions/open_auction/bidder")
        print(
            f"  when bids under {threshold:2d} are purged: "
            f"{remaining:3d} of {bidders} bidders remain"
        )

    # The stored site is untouched between scenarios — each question is
    # answered against the same base document.
    assert count(site, "open_auctions/open_auction/bidder") == bidders

    # What if verbose descriptions were collapsed to a placeholder?
    collapse = engine.prepare_transform(
        'transform copy $a := doc("site") modify do '
        "replace $a//description[parlist] with <description>omitted</description> "
        "return $a"
    )
    hypothetical = collapse.run(site)
    before = count(site, "//description[parlist]")
    after = count(hypothetical, "//description[parlist]")
    print(f"collapsing parlist descriptions: {before} verbose before, {after} after")

    # And a rename scenario: vocabulary migration without touching data.
    migrate = engine.prepare_transform(
        'transform copy $a := doc("site") modify do '
        "rename $a/people/person as member return $a"
    )
    hypothetical = migrate.run(site)
    print(
        f"schema migration preview: {count(hypothetical, 'people/member')} member "
        f"elements would replace {count(site, 'people/person')} person elements"
    )
    print(f"strategy chosen for the site: {migrate.plan_for(site).strategy}")


if __name__ == "__main__":
    main()
