"""Deterministic XMark-shaped document generator.

Scaling follows XMark's conventions: factor 1.0 ≈ 21750 items, 25500
persons, 12000 open and 9750 closed auctions (proportions from the
original benchmark); our per-entity text is leaner than xmlgen's
Shakespeare-sampled prose, so absolute file sizes are smaller at equal
factors — the experiments report actual byte sizes.

Structural guarantees the Fig. 11 workload relies on:

* ``person`` ids are ``person0…personN`` (U2 targets ``person10``);
* profile ages span 18-65 (U3's ``age > 20`` selects most, not all);
* ~40 % of item locations are "United States" (U9), as in xmlgen;
* closed-auction descriptions nest ``parlist/listitem`` two levels deep
  with ``text/emph/keyword`` inside (U6's 12-step path);
* open auctions have bidders with numeric ``increase`` (U7, U10),
  ``initial``/``reserve`` (U8) and annotations with ``happiness`` (U7).
"""

from __future__ import annotations

import random
from typing import IO, Optional

from repro.xmltree.node import Element, Text, element
from repro.xmltree.serializer import write_stream

#: Entity counts at factor 1.0 (XMark proportions).
ITEMS_AT_1 = 21750
PERSONS_AT_1 = 25500
OPEN_AUCTIONS_AT_1 = 12000
CLOSED_AUCTIONS_AT_1 = 9750

REGIONS = ["africa", "asia", "australia", "europe", "namerica", "samerica"]

COUNTRIES = [
    "United States", "Germany", "France", "Japan", "China",
    "Brazil", "Kenya", "Australia", "India", "Canada",
]

WORDS = (
    "auction item quality vintage rare antique collectible mint boxed "
    "original limited edition signed certified authentic pristine "
    "refurbished working tested complete bundle estate clearance"
).split()

NAMES = (
    "Alice Bob Carol Dave Erin Frank Grace Heidi Ivan Judy "
    "Mallory Niaj Olivia Peggy Rupert Sybil Trent Victor Walter Yolanda"
).split()

CITIES = "Edinburgh Beijing London Tokyo Berlin Paris Boston Sydney".split()


class XMarkGenerator:
    """Generates one document; all randomness flows from the seed."""

    def __init__(self, factor: float, seed: int = 42):
        if factor <= 0:
            raise ValueError("the scaling factor must be positive")
        self.factor = factor
        self.rng = random.Random(seed)
        self.item_count = max(4, int(ITEMS_AT_1 * factor))
        self.person_count = max(12, int(PERSONS_AT_1 * factor))
        self.open_count = max(4, int(OPEN_AUCTIONS_AT_1 * factor))
        self.closed_count = max(4, int(CLOSED_AUCTIONS_AT_1 * factor))

    # -- small value helpers -------------------------------------------

    def _words(self, low: int, high: int) -> str:
        count = self.rng.randint(low, high)
        return " ".join(self.rng.choice(WORDS) for _ in range(count))

    def _money(self, low: float, high: float) -> str:
        return f"{self.rng.uniform(low, high):.2f}"

    def _date(self) -> str:
        return (
            f"{self.rng.randint(1, 12):02d}/"
            f"{self.rng.randint(1, 28):02d}/"
            f"{self.rng.randint(1998, 2001)}"
        )

    # -- entity builders -----------------------------------------------

    def description(self, depth: int = 2) -> Element:
        """A description: plain text, or a parlist nested to *depth*.

        At depth ≥ 2 the structure contains the full
        ``parlist/listitem/parlist/listitem/text/emph/keyword`` spine
        that U6 navigates.
        """
        if depth <= 0 or self.rng.random() < 0.35:
            return element("description", self.text_block())
        return element("description", self.parlist(depth))

    def parlist(self, depth: int) -> Element:
        items = []
        for _ in range(self.rng.randint(1, 3)):
            if depth > 1:
                inner = self.parlist(depth - 1)
            else:
                inner = self.text_block()
            items.append(element("listitem", inner))
        return element("parlist", *items)

    def text_block(self) -> Element:
        lead = self._words(3, 8)
        with_emph = self.rng.random() < 0.7
        with_tail = self.rng.random() < 0.3
        tail = " " + self._words(2, 5) if with_tail else ""
        if not with_emph:
            # Keep text runs as single nodes so the tree round-trips
            # through serialization (adjacent text would merge).
            return Element("text", {}, [Text(lead + tail)])
        parts: list = [
            Text(lead + " "),
            element("emph", element("keyword", self.rng.choice(WORDS))),
        ]
        if with_tail:
            parts.append(Text(tail))
        return Element("text", {}, parts)

    def item(self, index: int, region: str) -> Element:
        location = (
            "United States" if self.rng.random() < 0.4 else self.rng.choice(COUNTRIES[1:])
        )
        mails = []
        for _mail_index in range(self.rng.randint(0, 2)):
            mails.append(
                element(
                    "mail",
                    element("from", self.rng.choice(NAMES)),
                    element("to", self.rng.choice(NAMES)),
                    element("date", self._date()),
                    self.text_block(),
                )
            )
        return element(
            "item",
            element("location", location),
            element("quantity", str(self.rng.randint(1, 10))),
            element("name", self._words(1, 3)),
            element("payment", "Creditcard"),
            self.description(depth=1),
            element("shipping", "Will ship internationally"),
            element("incategory", category=f"category{self.rng.randint(0, 20)}"),
            element("mailbox", *mails),
            attrs={"id": f"item{index}"},
        )

    def person(self, index: int) -> Element:
        name = self.rng.choice(NAMES)
        children = [
            element("name", f"{name} {self.rng.choice(NAMES)}"),
            element("emailaddress", f"mailto:{name.lower()}{index}@example.com"),
            element("phone", f"+{self.rng.randint(1, 99)} ({self.rng.randint(10, 999)}) {self.rng.randint(1000000, 9999999)}"),
        ]
        if self.rng.random() < 0.6:
            children.append(
                element(
                    "address",
                    element("street", f"{self.rng.randint(1, 99)} {self.rng.choice(WORDS).title()} St"),
                    element("city", self.rng.choice(CITIES)),
                    element("country", self.rng.choice(COUNTRIES)),
                    element("zipcode", str(self.rng.randint(10000, 99999))),
                )
            )
        if self.rng.random() < 0.4:
            children.append(element("homepage", f"http://example.com/~{name.lower()}{index}"))
        if self.rng.random() < 0.5:
            children.append(element("creditcard", " ".join(str(self.rng.randint(1000, 9999)) for _ in range(4))))
        profile = [
            element("interest", category=f"category{self.rng.randint(0, 20)}")
            for _ in range(self.rng.randint(0, 2))
        ]
        profile.extend(
            [
                element("education", self.rng.choice(["High School", "College", "Graduate School"])),
                element("gender", self.rng.choice(["male", "female"])),
                element("business", self.rng.choice(["Yes", "No"])),
                element("age", str(self.rng.randint(18, 65))),
            ]
        )
        children.append(
            element("profile", *profile, income=self._money(9876, 92345))
        )
        return element("person", *children, attrs={"id": f"person{index}"})

    def bidder(self) -> Element:
        return element(
            "bidder",
            element("date", self._date()),
            element("time", f"{self.rng.randint(0, 23):02d}:{self.rng.randint(0, 59):02d}:00"),
            element("personref", person=f"person{self.rng.randrange(self.person_count)}"),
            element("increase", self._money(1.5, 30.0)),
        )

    def annotation(self) -> Element:
        return element(
            "annotation",
            element("author", person=f"person{self.rng.randrange(self.person_count)}"),
            self.description(depth=2),
            element("happiness", str(self.rng.randint(1, 40))),
        )

    def open_auction(self, index: int) -> Element:
        bidders = [self.bidder() for _ in range(self.rng.randint(0, 4))]
        return element(
            "open_auction",
            element("initial", self._money(5, 300)),
            element("reserve", self._money(10, 800)),
            *bidders,
            element("current", self._money(10, 900)),
            element("privacy", self.rng.choice(["Yes", "No"])),
            element("itemref", item=f"item{self.rng.randrange(self.item_count)}"),
            element("seller", person=f"person{self.rng.randrange(self.person_count)}"),
            self.annotation(),
            element("quantity", str(self.rng.randint(1, 5))),
            element("type", self.rng.choice(["Regular", "Featured", "Dutch"])),
            element(
                "interval",
                element("start", self._date()),
                element("end", self._date()),
            ),
            attrs={"id": f"open_auction{index}"},
        )

    def closed_auction(self, index: int) -> Element:
        return element(
            "closed_auction",
            element("seller", person=f"person{self.rng.randrange(self.person_count)}"),
            element("buyer", person=f"person{self.rng.randrange(self.person_count)}"),
            element("itemref", item=f"item{self.rng.randrange(self.item_count)}"),
            element("price", self._money(5, 900)),
            element("date", self._date()),
            element("quantity", str(self.rng.randint(1, 5))),
            element("type", self.rng.choice(["Regular", "Featured"])),
            self.annotation(),
        )

    # -- whole documents -----------------------------------------------

    def generate(self) -> Element:
        """Build the whole document as an in-memory tree."""
        regions = element(
            "regions",
            *[
                element(
                    region,
                    *[
                        self.item(index, region)
                        for index in range(self.item_count)
                        if index % len(REGIONS) == region_index
                    ],
                )
                for region_index, region in enumerate(REGIONS)
            ],
        )
        people = element("people", *[self.person(i) for i in range(self.person_count)])
        open_auctions = element(
            "open_auctions", *[self.open_auction(i) for i in range(self.open_count)]
        )
        closed_auctions = element(
            "closed_auctions",
            *[self.closed_auction(i) for i in range(self.closed_count)],
        )
        return element("site", regions, people, open_auctions, closed_auctions)

    def write(self, handle: IO[str]) -> None:
        """Stream the document to *handle* without holding it in memory
        (used to produce the large files of the Fig. 14 experiment)."""
        handle.write('<?xml version="1.0" encoding="utf-8"?>\n<site><regions>')
        for region_index, region in enumerate(REGIONS):
            handle.write(f"<{region}>")
            for index in range(self.item_count):
                if index % len(REGIONS) == region_index:
                    write_stream(self.item(index, region), handle)
            handle.write(f"</{region}>")
        handle.write("</regions><people>")
        for index in range(self.person_count):
            write_stream(self.person(index), handle)
        handle.write("</people><open_auctions>")
        for index in range(self.open_count):
            write_stream(self.open_auction(index), handle)
        handle.write("</open_auctions><closed_auctions>")
        for index in range(self.closed_count):
            write_stream(self.closed_auction(index), handle)
        handle.write("</closed_auctions></site>\n")


def generate(factor: float, seed: int = 42) -> Element:
    """Generate an XMark-shaped document tree at the given factor."""
    return XMarkGenerator(factor, seed).generate()


def deep_chain(depth: int, fanout: int = 0) -> Element:
    """``<r><a>…<a><b>x</b></a>…</a></r>``: *depth* nested ``a`` elements
    around one ``b``, each ``a`` also holding *fanout* empty ``c``
    leaves (mean node depth ≈ depth / 2).  The un-XMark-like shape on
    which the topdown/twopass choice matters."""
    node = Element("b", {}, [Text("x")])
    for _ in range(depth):
        leaves = [Element("c", {}, []) for _ in range(fanout)]
        node = Element("a", {}, [node] + leaves)
    return Element("r", {}, [node])


def write_xmark_file(path: str, factor: float, seed: int = 42) -> int:
    """Stream-generate a document into a file; returns its byte size."""
    import os

    with open(path, "w", encoding="utf-8") as handle:
        XMarkGenerator(factor, seed).write(handle)
    return os.path.getsize(path)


def document_stats(root: Element) -> dict:
    """Quick structural statistics used by tests and experiment logs."""
    counts: dict[str, int] = {}
    for node in root.descendants_or_self():
        counts[node.label] = counts.get(node.label, 0) + 1
    return {
        "elements": sum(counts.values()),
        "items": counts.get("item", 0),
        "persons": counts.get("person", 0),
        "open_auctions": counts.get("open_auction", 0),
        "closed_auctions": counts.get("closed_auction", 0),
        "by_label": counts,
    }
