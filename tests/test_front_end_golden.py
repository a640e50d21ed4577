"""The query front end reads every corpus text as it always has.

``front_end_golden.json`` holds one row per text: the token stream
``tokenize`` gives (or the error it raises), and for each of the four
parsers — ``parse_xpath``, ``parse_update``, ``parse_transform_query``,
``parse_user_query`` — ``str()`` of the AST it builds, or ``null`` when
it refuses the text.  The texts are every string constant of the
lexer, X-path parser, update, transform, user-query, rendering and
round-trip test modules, the texts of :mod:`repro.xmark.queries` and a sample of the
ledger's ``serve_scan`` and ``serve_write`` texts.

The table was written by this module run as a script
(``PYTHONPATH=src python tests/test_front_end_golden.py``) in a checkout
of the tree before the front end read a text in one pass, and is
replayed here unchanged.  A refusal records no message or offset: the
offsets now count from the start of the caller's text, by design.
Every row reads as it did; a text the front end is meant to read
differently would be a row changed here and in the README's "Changed
in" table.  Rerunning the script gathers the corpus anew, from the test
modules as they stand and from the ledger's workload module.
"""

from __future__ import annotations

import json
import pathlib

from repro.transform.query import parse_transform_query
from repro.updates.ops import parse_update
from repro.xpath.lexer import XPathSyntaxError, tokenize
from repro.xpath.parser import parse_xpath
from repro.xquery.parser import parse_user_query

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "front_end_golden.json"

PARSERS = {
    "xpath": lambda text: str(parse_xpath(text)),
    "update": lambda text: str(parse_update(text)),
    "transform": lambda text: str(parse_transform_query(text)),
    "user": lambda text: str(parse_user_query(text).core()),
}


def row(text: str) -> dict:
    """What the front end makes of *text*."""
    try:
        tokens = [[t.type, t.value, t.pos] for t in tokenize(text)]
    except XPathSyntaxError as exc:
        tokens = {"error": str(exc), "pos": exc.pos}
    result: dict = {"tokens": tokens}
    for name, parse in PARSERS.items():
        try:
            result[name] = parse(text)
        except ValueError:  # XPathSyntaxError is one
            result[name] = None
    return result


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_corpus_text_reads_as_it_did():
    differ = {}
    for text, expected in _golden().items():
        got = row(text)
        if got != expected:
            differ[text] = (expected, got)
    assert not differ


# The regeneration script: gathers the corpus and writes the table.

#: The test modules whose string constants are the corpus.
CORPUS_MODULES = (
    "test_lexer.py",
    "test_xpath_parser.py",
    "test_updates.py",
    "test_transform_algorithms.py",
    "test_xquery.py",
    "test_ast_rendering.py",
    "test_properties_roundtrip.py",
)


def corpus() -> list:
    """Every text the table covers, in a fixed order."""
    import ast
    import random
    import sys

    texts = set()
    for module in CORPUS_MODULES:
        tree = ast.parse((HERE / module).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                texts.add(node.value)
    from repro.xmark import queries

    texts.update(queries.EMBEDDED_PATHS.values())
    for uid in queries.QUERY_IDS:
        for build in (
            queries.insert_transform,
            queries.delete_transform,
            queries.replace_transform,
            queries.rename_transform,
        ):
            query = build(uid)
            texts.update((str(query), str(query.update)))
        texts.add(str(queries.user_query_for(uid)))
    sys.path.insert(0, str(HERE.parent / "benchmarks" / "ledger"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    reads = workloads.distinct_reads(random.Random(1), 1000)
    texts.update(next(reads) for _ in range(100))
    script = workloads.CommitScript(1000)
    for acked in range(8):
        script.acked = acked
        texts.add(script.text())
    return sorted(texts)


if __name__ == "__main__":
    table = {text: row(text) for text in corpus()}
    lines = (
        f"{json.dumps(text, ensure_ascii=False)}: {json.dumps(entry, ensure_ascii=False)}"
        for text, entry in table.items()
    )
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{len(table)} rows written to {GOLDEN}")
