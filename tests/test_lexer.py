"""Unit tests for the shared tokenizer (repro.xpath.lexer)."""

import pytest

from repro.xpath import lexer as lx
from repro.xpath.lexer import Token, TokenStream, XPathSyntaxError, tokenize


def types(source, keywords=None):
    return [t.type for t in tokenize(source, keywords=keywords)][:-1]  # drop EOF


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

    def test_keywords_stay_names_when_requested(self):
        tokens = tokenize("and", keywords={"and"})
        assert tokens[0].type == lx.NAME

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


class TestTokenStream:
    def stream(self, source, **kw):
        return TokenStream(tokenize(source, **kw))

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
        assert s.peek(10).type == lx.EOF

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
        s = self.stream("into b", keywords={"into"})
        assert s.expect_name("into").value == "into"
        with pytest.raises(XPathSyntaxError):
            s.expect_name("with")

    def test_at_name_and_done(self):
        s = self.stream("into", keywords={"into"})
        assert s.at_name("into")
        s.advance()
        assert s.done()
