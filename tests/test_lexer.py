"""Unit tests for the shared tokenizer (repro.xpath.lexer)."""

import pytest

from repro.xpath import lexer as lx
from repro.xpath.lexer import Token, TokenStream, XPathSyntaxError, tokenize


def types(source):
    return [t.type for t in tokenize(source)][:-1]  # drop EOF


class TestTokens:
    def test_path_symbols(self):
        assert types("a/b//c") == [lx.NAME, lx.SLASH, lx.NAME, lx.DSLASH, lx.NAME]

    def test_brackets_and_parens(self):
        assert types("[()]") == [lx.LBRACKET, lx.LPAREN, lx.RPAREN, lx.RBRACKET]

    def test_braces(self):
        assert types("{}") == [lx.LBRACE, lx.RBRACE]

    def test_at_dot_star_dollar_comma(self):
        assert types("@ . * $ ,") == [lx.AT, lx.DOT, lx.STAR, lx.DOLLAR, lx.COMMA]

    def test_assign(self):
        assert types(":=") == [lx.ASSIGN]

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_comparison_operators(self, op):
        tokens = tokenize(f"a {op} 1")
        assert tokens[1].type == lx.OP and tokens[1].value == op

    def test_bang_without_equals_rejected(self):
        with pytest.raises(XPathSyntaxError):
            tokenize("a ! b")

    def test_string_single_and_double(self):
        tokens = tokenize("'one' \"two\"")
        assert [t.value for t in tokens[:-1]] == ["one", "two"]
        assert all(t.type == lx.STRING for t in tokens[:-1])

    def test_unterminated_string(self):
        with pytest.raises(XPathSyntaxError):
            tokenize("'oops")

    def test_numbers(self):
        tokens = tokenize("15 3.14")
        assert [t.value for t in tokens[:-1]] == ["15", "3.14"]
        assert all(t.type == lx.NUMBER for t in tokens[:-1])

    def test_names_with_underscore_and_dash(self):
        tokens = tokenize("open_auction key-word _x")
        assert [t.value for t in tokens[:-1]] == ["open_auction", "key-word", "_x"]

    def test_boolean_words(self):
        assert types("and or not") == [lx.AND, lx.OR, lx.NOT]

    def test_unicode_connectives(self):
        assert types("∧ ∨ ¬") == [lx.AND, lx.OR, lx.NOT]

    def test_positions_recorded(self):
        tokens = tokenize("ab cd")
        assert tokens[0].pos == 0 and tokens[1].pos == 3

    def test_unexpected_character(self):
        for source in ("a # b", "a ; b"):
            with pytest.raises(XPathSyntaxError, match="unexpected character"):
                tokenize(source)

    def test_eof_token_always_present(self):
        assert tokenize("")[-1].type == lx.EOF
        assert tokenize("a")[-1].type == lx.EOF


#: Texts whose characters ``re``'s ``\w``/``\d`` and ``str.isalpha`` /
#: ``str.isdigit`` class differently: the master pattern's classes
#: decide.  A digit that is not decimal (``²``) and a numeric character
#: that is no letter (``Ⅻ``, ``½``) are ``\w`` and not ``\d``, so they
#: start or continue a name and end a number; a decimal digit of any
#: script (``٣``) is a number.  ``(type, value, pos)`` per token, EOF
#: dropped; an error as ``(message, pos)``.
ODD_CHARACTERS = [
    ("²", [(lx.NAME, "²", 0)]),                # a digit, not a decimal one
    ("1²3", [(lx.NUMBER, "1", 0), (lx.NAME, "²3", 1)]),
    ("1.²", [(lx.NUMBER, "1.", 0), (lx.NAME, "²", 2)]),
    ("²a", [(lx.NAME, "²a", 0)]),
    ("٣", [(lx.NUMBER, "٣", 0)]),              # a decimal digit
    ("٣.5", [(lx.NUMBER, "٣.5", 0)]),
    ("a²٣Ⅻ", [(lx.NAME, "a²٣Ⅻ", 0)]),         # all alphanumeric
    ("a:Ⅻ", [(lx.NAME, "a:Ⅻ", 0)]),
    ("Ⅻ", [(lx.NAME, "Ⅻ", 0)]),                # numeric, no letter
    ("1Ⅻ", [(lx.NUMBER, "1", 0), (lx.NAME, "Ⅻ", 1)]),
    ("½", [(lx.NAME, "½", 0)]),
    ("a\u00a0b", ("unexpected character '\\xa0'", 1)),  # not XML white space
    ("a\fb", ("unexpected character '\\x0c'", 1)),
    ("∧∨¬", [(lx.AND, "∧", 0), (lx.OR, "∨", 1), (lx.NOT, "¬", 2)]),
    ("fn:doc", [(lx.NAME, "fn:doc", 0)]),
    ("a:=b", [(lx.NAME, "a", 0), (lx.ASSIGN, ":=", 1), (lx.NAME, "b", 3)]),
    ("a::b", ("unexpected character ':'", 1)),
    ("a:", ("unexpected character ':'", 1)),
    ("_-a", [(lx.NAME, "_-a", 0)]),
    ("-a", ("unexpected character '-'", 0)),
    ("'a\nb'", [(lx.STRING, "a\nb", 0)]),
    ("a 'b", ("unterminated string literal", 2)),
    ("a !b", ("expected '!='", 2)),
]


@pytest.mark.parametrize("source, expected", ODD_CHARACTERS)
def test_a_character_reads_as_the_master_pattern_classes_it(source, expected):
    if isinstance(expected, tuple):
        with pytest.raises(XPathSyntaxError) as caught:
            tokenize(source)
        assert (str(caught.value), caught.value.pos) == (
            f"{expected[0]} (at offset {expected[1]})", expected[1]
        )
    else:
        assert [(t.type, t.value, t.pos) for t in tokenize(source)[:-1]] == expected


class TestTokenStream:
    def stream(self, source):
        return TokenStream(source)

    def test_advance_stops_at_eof(self):
        s = self.stream("a")
        assert s.advance().value == "a"
        assert s.advance().type == lx.EOF
        assert s.advance().type == lx.EOF  # idempotent

    def test_peek_does_not_consume(self):
        s = self.stream("a/b")
        assert s.peek().type == lx.SLASH
        assert s.current.value == "a"

    def test_peek_clamps_at_end(self):
        s = self.stream("a")
        assert s.peek().type == lx.EOF
        s.advance()
        assert s.peek().type == lx.EOF

    def test_accept_match_and_miss(self):
        s = self.stream("a/b")
        assert s.accept(lx.NAME) is not None
        assert s.accept(lx.NAME) is None  # current is SLASH
        assert s.accept(lx.SLASH, "/") is not None

    def test_expect_raises_with_context(self):
        s = self.stream("a")
        with pytest.raises(XPathSyntaxError) as info:
            s.expect(lx.SLASH)
        assert "expected" in str(info.value)

    def test_expect_name_keyword(self):
        s = self.stream("into b")
        assert s.expect_name("into").value == "into"
        with pytest.raises(XPathSyntaxError):
            s.expect_name("with")

    def test_at_name_and_done(self):
        s = self.stream("into")
        assert s.at_name("into")
        s.advance()
        assert s.current.type == lx.EOF

    def test_a_character_no_token_starts_with_is_read_only_when_reached(self):
        s = self.stream("a # b")
        assert s.advance().value == "a"
        assert (s.current.type, s.current.pos) == (lx.ERROR, 2)
        assert s.advance().type == lx.ERROR  # the stream stops there
        assert s.peek().type == lx.ERROR
        with pytest.raises(XPathSyntaxError, match=r"^unexpected character '#' \(at offset 2\)$"):
            s.expect(lx.NAME)
        # What the parser finds wrong before it comes first.
        assert str(s.error("anything")) == "unexpected character '#' (at offset 2)"
        assert str(self.stream("a").error("no good")) == "no good (at offset 0)"

    def test_element_reads_the_literal_and_resumes_after_it(self):
        s = self.stream("<x a='1'>t <y/></x>into p")
        assert s.current.type == lx.OP
        element = s.element()
        assert (element.label, element.attrs, len(element.children)) == ("x", {"a": "1"}, 2)
        assert (s.current.value, s.current.pos) == ("into", 19)

    def test_element_raises_at_the_fault_inside_the_literal(self):
        s = self.stream("  <x><y></x>")
        with pytest.raises(XPathSyntaxError) as caught:
            s.element()
        assert str(caught.value) == (
            "bad XML element literal: mismatched end tag </x> for <y> (at offset 10)"
        )
