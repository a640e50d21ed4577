"""The transform-query object and its parser.

Syntax (from the W3C XQuery Update draft, as used throughout the
paper)::

    transform copy $a := doc("T0") modify do <update> return $a

``do`` may be left out.  The update's path is written against the
copy variable (``delete $a//price``) or from the root; the same
variable must be returned.  The parser reads the text once, as one
token stream, the update included.
"""

from __future__ import annotations

from typing import Optional

from repro.updates.ops import Update, read_update
from repro.xpath import lexer as lx
from repro.xpath.lexer import TokenStream, XPathSyntaxError


class TransformQuery:
    """A parsed transform query: a document reference plus an update."""

    def __init__(self, update: Update, doc: Optional[str] = None, var: str = "a"):
        self.update = update
        self.doc = doc  # document name inside doc("…"), informational
        self.var = var

    @property
    def path(self):
        """The X expression embedded in the update."""
        return self.update.path

    def __str__(self) -> str:
        doc = self.doc if self.doc is not None else "T0"
        return (
            f'transform copy ${self.var} := doc("{doc}") '
            f"modify do {self.update.render(self.var)} return ${self.var}"
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"TransformQuery({self.update!s})"


def parse_transform_query(source: str) -> TransformQuery:
    """Parse ``transform copy $v := doc(s) modify [do] u return $v``."""
    stream = TokenStream(source)
    stream.expect_name("transform")
    stream.expect_name("copy")
    stream.expect(lx.DOLLAR)
    var = stream.expect(lx.NAME).value
    stream.expect(lx.ASSIGN)
    stream.expect_name("doc")
    stream.expect(lx.LPAREN)
    doc = stream.expect(lx.STRING).value
    stream.expect(lx.RPAREN)
    stream.expect_name("modify")
    if stream.at_name("do"):
        stream.advance()
    update = read_update(stream, var)
    stream.expect_name("return")
    returned = stream.expect(lx.DOLLAR)
    name = stream.expect(lx.NAME).value
    if name != var:
        raise XPathSyntaxError(f"transform must return ${var}, not ${name}", returned.pos)
    stream.expect_end()
    return TransformQuery(update, doc=doc, var=var)
