"""Tokens of the query texts: X paths, update and transform queries and
user queries share one alphabet; their keywords are NAME tokens the
parsers match on.

One compiled master pattern (the ``re`` scanner idiom of the standard
library's ``tokenize`` and ``json.scanner``) reads a token at a time.
A parser reads a text through one :class:`TokenStream`, which scans
as the parser asks and hands an XML element literal (``insert <e/>
into …``) to the XML reader, so each text is read once, left to right,
and every :class:`XPathSyntaxError` carries the offset of the fault in
the text the caller passed.

The paper writes boolean connectives as ``∧ ∨ ¬``; queries in Fig. 11
use ``and``/``not(…)``.  Both spellings are accepted.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from repro.xmltree.node import Element
from repro.xmltree.parser import XMLSyntaxError, parse_fragment


class XPathSyntaxError(ValueError):
    """Raised on malformed XPath / update / transform-query text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


# Token types.
NAME = "NAME"
STRING = "STRING"
NUMBER = "NUMBER"
SLASH = "SLASH"          # /
DSLASH = "DSLASH"        # //
LBRACKET = "LBRACKET"    # [
RBRACKET = "RBRACKET"    # ]
LPAREN = "LPAREN"
RPAREN = "RPAREN"
AT = "AT"                # @
DOT = "DOT"              # .
STAR = "STAR"            # *
OP = "OP"                # = != < <= > >=
AND = "AND"
OR = "OR"
NOT = "NOT"
COMMA = "COMMA"
DOLLAR = "DOLLAR"        # $ (used by the transform/user-query parsers)
ASSIGN = "ASSIGN"        # :=
LBRACE = "LBRACE"        # { (element templates in user queries)
RBRACE = "RBRACE"        # }
EOF = "EOF"
ERROR = "ERROR"          # a character no token starts with; value: why


class Token:
    __slots__ = ("type", "value", "pos")

    def __init__(self, type_: str, value: str, pos: int):
        self.type = type_
        self.value = value
        self.pos = pos

    def __repr__(self) -> str:  # pragma: no cover
        return f"Token({self.type}, {self.value!r})"


#: Punctuation, by its text.
_PUNCT = {
    "/": SLASH, "//": DSLASH, "[": LBRACKET, "]": RBRACKET, "(": LPAREN,
    ")": RPAREN, "@": AT, ".": DOT, "*": STAR, ",": COMMA, "$": DOLLAR,
    ":=": ASSIGN, "{": LBRACE, "}": RBRACE, "∧": AND, "∨": OR, "¬": NOT,
    "=": OP, "!=": OP, "<": OP, "<=": OP, ">": OP, ">=": OP,
}
_WORDS = {"and": AND, "or": OR, "not": NOT}

#: One token after white space; the group that matched names its kind.
#: A name is a ``\w`` character that is no decimal digit, then ``\w``
#: characters and ``-``, with single ``:`` inside (``fn:doc``; ``a:=``
#: is ``a`` then ``:=``); a number is a decimal digit, then decimal
#: digits and dots.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<NAME>[^\W\d][\w-]*(?::[\w-]+)*)"
    r"|(?P<PUNCT>//|:=|[<>!]=|[/\[\]()@.*,${}∧∨¬=<>])"
    r"|'(?P<SQ>[^']*)'|\"(?P<DQ>[^\"]*)\""
    r"|(?P<NUMBER>\d[\d.]*)"
    r"|(?P<EOF>\Z)"
    r"|(?P<BAD>.)"
    r")",
    re.DOTALL,
)


def _scan(source: str, pos: int = 0) -> Iterator[Token]:
    """The tokens of *source* from *pos* on, each scanned when it is
    asked for (white space skipped).  The last is ``EOF``, or an
    ``ERROR`` at a character no token starts with, holding the reason."""
    match = _TOKEN.match
    while True:
        m = match(source, pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        text = m[kind]
        if kind == "NAME":
            yield Token(_WORDS.get(text, NAME), text, start)
        elif kind == "PUNCT":
            yield Token(_PUNCT[text], text, start)
        elif kind == "SQ" or kind == "DQ":
            yield Token(STRING, text, start - 1)
            pos += 1
        elif kind == "NUMBER":
            yield Token(NUMBER, text, start)
        elif kind == "EOF":
            yield Token(EOF, "", start)
            return
        else:
            if text in "\"'":
                reason = "unterminated string literal"
            elif text == "!":
                reason = "expected '!='"
            else:
                reason = f"unexpected character {text!r}"
            yield Token(ERROR, reason, start)
            return


def number_value(token: Token) -> float:
    """The value of a NUMBER token (``1.2.3`` has none)."""
    try:
        return float(token.value)
    except ValueError:
        raise XPathSyntaxError(f"bad number {token.value!r}", token.pos) from None


def tokenize(source: str) -> list[Token]:
    """Every token of *source*, the last one ``EOF``."""
    tokens = list(_scan(source))
    last = tokens[-1]
    if last.type == ERROR:
        raise XPathSyntaxError(last.value, last.pos)
    return tokens


class TokenStream:
    """The tokens of *source*, scanned left to right as the parser asks.

    ``current`` is the token at the cursor; nothing past it is read
    until :meth:`advance` or :meth:`peek` gets there, and the stream
    stops at ``EOF`` or at an ``ERROR``.  Every error is raised at a
    token's offset in *source*, and the first in reading order wins:
    the scanner's reason for an ``ERROR`` is raised only when the
    parser needs that token (:meth:`error`), after whatever the parser
    found wrong before it.
    """

    __slots__ = ("source", "current", "_next", "_tokens")

    def __init__(self, source: str):
        self.source = source
        self._tokens = _scan(source)
        self._next: Optional[Token] = None   # scanned by peek()
        self.current = next(self._tokens)

    def peek(self) -> Token:
        """The token after the current one (the current one at the end)."""
        if self._next is None:
            if self.current.type == EOF or self.current.type == ERROR:
                return self.current
            self._next = next(self._tokens)
        return self._next

    def advance(self) -> Token:
        token = self.current
        if self._next is not None:
            self.current, self._next = self._next, None
        elif token.type != EOF and token.type != ERROR:
            self.current = next(self._tokens)
        return token

    def error(self, message: str) -> XPathSyntaxError:
        """*message* as the error at the current token — or, when the
        scanner could not read that token, the scanner's reason."""
        token = self.current
        if token.type == ERROR:
            return XPathSyntaxError(token.value, token.pos)
        return XPathSyntaxError(message, token.pos)

    def accept(self, type_: str, value: Optional[str] = None) -> Optional[Token]:
        token = self.current
        if token.type == type_ and (value is None or token.value == value):
            return self.advance()
        return None

    def expect(self, type_: str, value: Optional[str] = None) -> Token:
        token = self.accept(type_, value)
        if token is None:
            raise self.error(f"expected {value or type_!r}, found {self.current.value!r}")
        return token

    def expect_name(self, value: str) -> Token:
        token = self.current
        if token.type == NAME and token.value == value:
            return self.advance()
        raise self.error(f"expected keyword {value!r}, found {token.value!r}")

    def at_name(self, value: str) -> bool:
        return self.current.type == NAME and self.current.value == value

    def expect_end(self) -> None:
        if self.current.type != EOF:
            raise self.error(f"unexpected trailing input {self.current.value!r}")

    def element(self) -> Element:
        """The XML element literal that starts at the current token,
        read by :func:`~repro.xmltree.parser.parse_fragment`; scanning
        resumes just past it.  A fault inside the literal is raised at
        its offset in *source*, with the XML reader's message."""
        try:
            content, end = parse_fragment(self.source, self.current.pos)
        except XMLSyntaxError as exc:
            raise XPathSyntaxError(f"bad XML element literal: {exc.message}", exc.pos) from None
        self._tokens = _scan(self.source, end)
        self._next = None
        self.current = next(self._tokens)
        return content
