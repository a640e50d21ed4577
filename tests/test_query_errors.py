"""A malformed query text is refused at the fault, counted from the start
of the caller's text.

Each row names a parser, a text, the message, and the fault: the text
from the offset the error reports on (empty at the end of the text).
The front end reads a text once, left to right, so the first error in
reading order is the one reported, whichever piece of a transform query
it sits in.
"""

from __future__ import annotations

import pytest

from repro.transform.query import parse_transform_query
from repro.updates.ops import parse_update
from repro.xpath.lexer import XPathSyntaxError
from repro.xpath.parser import parse_xpath
from repro.xquery.parser import parse_user_query

PARSERS = {
    "path": parse_xpath,
    "update": parse_update,
    "transform": parse_transform_query,
    "user": parse_user_query,
}

T = 'transform copy $a := doc("T") modify do '

#: (parser, text, message, the text from the fault on)
ROWS = [
    # X paths
    ("path", "a/@id/b", "attribute step @id must be the final step", "@id/b"),
    ("path", "a/@id//.", "attribute step @id must be the final step", "@id//."),
    ("path", "a[b = 1.2.3]", "bad number '1.2.3'", "1.2.3]"),
    ("path", "a[b = ²]", "expected a literal, found '²'", "²]"),
    ("path", "a]] #", "unexpected trailing input ']'", "]] #"),
    ("path", "a/@id/b;", "attribute step @id must be the final step", "@id/b;"),
    # updates
    ("update", "delete $a/x/@id", "attribute step @id not allowed in a selecting path", "@id"),
    ("update", "  delete $a/x]", "unexpected trailing input ']'", "]"),
    ("update", "frobnicate $a/x",
     "expected an update (insert/delete/replace/rename), found 'frobnicate'", "frobnicate $a/x"),
    ("update", "deletex", "expected an update (insert/delete/replace/rename), found 'deletex'",
     "deletex"),
    ("update", "insert <a><b>t</c></a> into $a/x",
     "bad XML element literal: mismatched end tag </c> for <b>", "c></a> into $a/x"),
    ("update", "insert <x/>into", "expected a step, found ''", ""),
    ("update", "replace $a/x with <y/> junk", "unexpected trailing input 'junk'", "junk"),
    ("update", "replace $a/x with", "bad XML element literal: no element found", ""),
    ("update", "rename $a/x as", "expected 'NAME', found ''", ""),
    # transform queries
    ("transform", T + "delete $a//p[ = 1] return $a", "expected a step, found '='",
     "= 1] return $a"),
    ("transform", T + "delete $a//p[ return $a", "expected 'RBRACKET', found '$'", "$a"),
    ("transform", T + "delete $a/x return $b", "transform must return $a, not $b", "$b"),
    ("transform", T + "delete $a/x return $b;", "transform must return $a, not $b", "$b;"),
    ("transform", T + "delete $a/x return $a $a", "unexpected trailing input '$'", "$a"),
    ("transform", T + "delete $a/x", "expected keyword 'return', found ''", ""),
    ("transform", T + "delete $a/x; return $a", "unexpected character ';'", "; return $a"),
    ("transform", T + "return $a",
     "expected an update (insert/delete/replace/rename), found 'return'", "return $a"),
    ("transform", T + "\n  rename $a/x as\nreturn $a", "expected keyword 'return', found '$'",
     "$a"),
    ("transform", T + "insert <a><b>t</c></a> into $a/x return $a",
     "bad XML element literal: mismatched end tag </c> for <b>", "c></a> into $a/x return $a"),
    ("transform", 'transform copy $a := doc("T") delete $a/x return $a',
     "expected keyword 'modify', found 'delete'", "delete $a/x return $a"),
    ("transform", "transform copy $a modify do delete $a/x return $a",
     "expected 'ASSIGN', found 'modify'", "modify do delete $a/x return $a"),
    ("transform", "  transform copy $a := doc(T) modify do delete $a/x return $a",
     "expected 'STRING', found 'T'", "T) modify do delete $a/x return $a"),
    # user queries
    ("user", "for $x in a return <r>{$x}</s>", "mismatched template tag </s>", "s>"),
    ("user", "for $x in a[. = ²] return $x", "expected a literal, found '²'", "²] return $x"),
    ("user", "for $y in a return $x ;", "unknown variable $x", "$x ;"),
    ("user", "for $x in a/@id/b return $x", "attribute step @id must be the final step",
     "@id/b return $x"),
]


def _fault(text: str, rest: str) -> int:
    assert text.endswith(rest)
    return len(text) - len(rest)


@pytest.mark.parametrize("parser, text, message, rest", ROWS)
def test_a_malformed_text_is_refused_at_its_fault(parser, text, message, rest):
    with pytest.raises(XPathSyntaxError) as caught:
        PARSERS[parser](text)
    pos = _fault(text, rest)
    assert (str(caught.value), caught.value.pos) == (f"{message} (at offset {pos})", pos)


@pytest.mark.parametrize("parser, text, message, rest", ROWS)
def test_text_in_front_moves_the_offset_by_its_length(parser, text, message, rest):
    with pytest.raises(XPathSyntaxError) as caught:
        PARSERS[parser](" \t\r\n" + text)
    assert caught.value.pos == 4 + _fault(text, rest)
