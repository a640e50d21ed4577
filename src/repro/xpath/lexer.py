"""Tokenizer for the XPath fragment ``X`` (and update/transform syntax).

Also used by the update-expression and transform-query parsers, which
share the same token alphabet plus a few keywords.

The paper writes boolean connectives as ``∧ ∨ ¬``; queries in Fig. 11
use ``and``/``not(…)``.  Both spellings are accepted.
"""

from __future__ import annotations

from typing import Optional


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


class Token:
    __slots__ = ("type", "value", "pos")

    def __init__(self, type_: str, value: str, pos: int):
        self.type = type_
        self.value = value
        self.pos = pos

    def __repr__(self) -> str:  # pragma: no cover
        return f"Token({self.type}, {self.value!r})"


_SYMBOL_ALIASES = {"∧": AND, "∨": OR, "¬": NOT}
_WORD_TOKENS = {"and": AND, "or": OR, "not": NOT}


def _is_name_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_name_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_-"


def _scan_name(source: str, start: int) -> int:
    """End offset of a name starting at *start*.

    Names may contain ``:`` (namespace-style prefixes: ``local:apply``,
    ``fn:doc``) — but a ``:`` followed by ``=`` belongs to the ``:=``
    token, and a trailing ``:`` is never part of the name.
    """
    n = len(source)
    i = start + 1
    while i < n:
        ch = source[i]
        if _is_name_char(ch):
            i += 1
            continue
        if (
            ch == ":"
            and i + 1 < n
            and source[i + 1] != "="
            and _is_name_char(source[i + 1])
        ):
            i += 2  # the ':' and the first char after it
            continue
        break
    return i


def tokenize(source: str, keywords: Optional[set] = None) -> list[Token]:
    """Tokenize *source*; ``keywords`` names stay NAME tokens but the
    caller may match on their value (used by the query parsers).
    """
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _SYMBOL_ALIASES:
            tokens.append(Token(_SYMBOL_ALIASES[ch], ch, i))
            i += 1
            continue
        if ch == "/":
            if source.startswith("//", i):
                tokens.append(Token(DSLASH, "//", i))
                i += 2
            else:
                tokens.append(Token(SLASH, "/", i))
                i += 1
            continue
        if ch == "[":
            tokens.append(Token(LBRACKET, ch, i))
            i += 1
            continue
        if ch == "]":
            tokens.append(Token(RBRACKET, ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(Token(LPAREN, ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token(RPAREN, ch, i))
            i += 1
            continue
        if ch == "@":
            tokens.append(Token(AT, ch, i))
            i += 1
            continue
        if ch == ",":
            tokens.append(Token(COMMA, ch, i))
            i += 1
            continue
        if ch == "$":
            tokens.append(Token(DOLLAR, ch, i))
            i += 1
            continue
        if ch == "{":
            tokens.append(Token(LBRACE, ch, i))
            i += 1
            continue
        if ch == "}":
            tokens.append(Token(RBRACE, ch, i))
            i += 1
            continue
        if ch == "*":
            tokens.append(Token(STAR, ch, i))
            i += 1
            continue
        if ch == ".":
            tokens.append(Token(DOT, ch, i))
            i += 1
            continue
        if source.startswith(":=", i):
            tokens.append(Token(ASSIGN, ":=", i))
            i += 2
            continue
        if ch in "=<>!":
            if source.startswith(("<=", ">=", "!="), i):
                tokens.append(Token(OP, source[i : i + 2], i))
                i += 2
            elif ch == "!":
                raise XPathSyntaxError("expected '!='", i)
            else:
                tokens.append(Token(OP, ch, i))
                i += 1
            continue
        if ch in "\"'":
            end = source.find(ch, i + 1)
            if end == -1:
                raise XPathSyntaxError("unterminated string literal", i)
            tokens.append(Token(STRING, source[i + 1 : end], i))
            i = end + 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            tokens.append(Token(NUMBER, source[i:j], i))
            i = j
            continue
        if _is_name_start(ch):
            j = _scan_name(source, i)
            word = source[i:j]
            word_type = _WORD_TOKENS.get(word)
            if word_type is not None and not (keywords and word in keywords):
                tokens.append(Token(word_type, word, i))
            else:
                tokens.append(Token(NAME, word, i))
            i = j
            continue
        raise XPathSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(Token(EOF, "", n))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual helpers."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def peek(self, offset: int = 1) -> Token:
        idx = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.type != EOF:
            self.index += 1
        return token

    def accept(self, type_: str, value: Optional[str] = None) -> Optional[Token]:
        token = self.current
        if token.type == type_ and (value is None or token.value == value):
            return self.advance()
        return None

    def expect(self, type_: str, value: Optional[str] = None) -> Token:
        token = self.accept(type_, value)
        if token is None:
            want = value or type_
            raise XPathSyntaxError(
                f"expected {want!r}, found {self.current.value!r}", self.current.pos
            )
        return token

    def expect_name(self, value: str) -> Token:
        token = self.current
        if token.type == NAME and token.value == value:
            return self.advance()
        raise XPathSyntaxError(
            f"expected keyword {value!r}, found {token.value!r}", token.pos
        )

    def at_name(self, value: str) -> bool:
        return self.current.type == NAME and self.current.value == value

    def done(self) -> bool:
        return self.current.type == EOF
