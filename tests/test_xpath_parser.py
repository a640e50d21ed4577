"""Unit tests for the XPath lexer and parser."""

import pytest

from repro.xpath import (
    AndQual,
    CmpQual,
    LabelQual,
    NotQual,
    OrQual,
    Path,
    PathQual,
    Step,
    XPathSyntaxError,
    parse_xpath,
)
from repro.xpath.parser import validate_path


def kinds(path):
    return [s.kind for s in path.steps]


def names(path):
    return [s.name for s in path.steps]


class TestPaths:
    def test_single_label(self):
        p = parse_xpath("part")
        assert kinds(p) == ["label"] and names(p) == ["part"]

    def test_child_chain(self):
        p = parse_xpath("site/people/person")
        assert names(p) == ["site", "people", "person"]

    def test_leading_slash_ignored(self):
        assert parse_xpath("/site/people") == parse_xpath("site/people")

    def test_leading_double_slash(self):
        p = parse_xpath("//part")
        assert kinds(p) == ["dos", "label"]

    def test_inner_double_slash(self):
        p = parse_xpath("site//item")
        assert kinds(p) == ["label", "dos", "label"]

    def test_wildcard(self):
        p = parse_xpath("part/*")
        assert kinds(p) == ["label", "wildcard"]

    def test_self_steps_dropped(self):
        assert parse_xpath("a/./b") == parse_xpath("a/b")

    def test_dot_alone_is_empty_path(self):
        assert parse_xpath(".").steps == ()

    def test_trailing_descendant_self(self):
        p = parse_xpath("a//.")
        assert kinds(p) == ["label", "dos"]

    def test_labels_with_underscores(self):
        p = parse_xpath("open_auctions/open_auction")
        assert names(p) == ["open_auctions", "open_auction"]

    def test_deep_xmark_path(self):
        p = parse_xpath(
            "site/closed_auctions/closed_auction/annotation/description"
            "/parlist/listitem/parlist/listitem/text/emph/keyword"
        )
        assert len(p.steps) == 12


class TestQualifiers:
    def test_existence_qualifier(self):
        p = parse_xpath("part[supplier]")
        (qual,) = p.steps[0].quals
        assert isinstance(qual, PathQual)
        assert names(qual.path) == ["supplier"]

    def test_string_comparison(self):
        p = parse_xpath("person[name = 'Bob']")
        (qual,) = p.steps[0].quals
        assert isinstance(qual, CmpQual)
        assert qual.op == "=" and qual.value == "Bob"

    def test_double_quoted_string(self):
        p = parse_xpath('person[@id = "person10"]')
        (qual,) = p.steps[0].quals
        assert qual.value == "person10"
        assert qual.path.steps[0].kind == "attr"

    def test_numeric_comparison(self):
        p = parse_xpath("open_auction[initial > 10]")
        (qual,) = p.steps[0].quals
        assert qual.op == ">" and qual.value == 10.0

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_all_operators(self, op):
        p = parse_xpath(f"a[b {op} 5]")
        (qual,) = p.steps[0].quals
        assert qual.op == op

    def test_reversed_comparison_normalized(self):
        forward = parse_xpath("a[b > 5]")
        reversed_ = parse_xpath("a[5 < b]")
        assert forward == reversed_

    def test_and(self):
        p = parse_xpath("open_auction[initial > 10 and reserve > 50]")
        (qual,) = p.steps[0].quals
        assert isinstance(qual, AndQual)

    def test_or(self):
        p = parse_xpath("s[country = 'c1' or country = 'c2']")
        (qual,) = p.steps[0].quals
        assert isinstance(qual, OrQual)

    def test_not(self):
        p = parse_xpath("open_auction[not(@id = 'open_auction2')]")
        (qual,) = p.steps[0].quals
        assert isinstance(qual, NotQual)

    def test_unicode_connectives(self):
        ascii_form = parse_xpath("part[not(a) and b or c]")
        unicode_form = parse_xpath("part[¬(a) ∧ b ∨ c]")
        assert ascii_form == unicode_form

    def test_precedence_and_binds_tighter(self):
        p = parse_xpath("x[a or b and c]")
        (qual,) = p.steps[0].quals
        assert isinstance(qual, OrQual)
        assert isinstance(qual.right, AndQual)

    def test_parentheses(self):
        p = parse_xpath("x[(a or b) and c]")
        (qual,) = p.steps[0].quals
        assert isinstance(qual, AndQual)
        assert isinstance(qual.left, OrQual)

    def test_label_function(self):
        p = parse_xpath("x[label() = part]")
        (qual,) = p.steps[0].quals
        assert qual == LabelQual("part")

    def test_label_function_quoted(self):
        p = parse_xpath("x[label() = 'part']")
        (qual,) = p.steps[0].quals
        assert qual == LabelQual("part")

    def test_nested_qualifiers(self):
        p = parse_xpath("part[supplier[country = 'US']/price < 15]")
        (qual,) = p.steps[0].quals
        assert isinstance(qual, CmpQual)
        inner = qual.path.steps[0].quals[0]
        assert isinstance(inner, CmpQual)

    def test_multiple_qualifiers_on_one_step(self):
        p = parse_xpath("part[a][b]")
        assert len(p.steps[0].quals) == 2

    def test_qualifier_with_descendant_path(self):
        p = parse_xpath("site[.//error]")
        (qual,) = p.steps[0].quals
        assert kinds(qual.path) == ["dos", "label"]

    def test_fig11_u7(self):
        p = parse_xpath(
            "site/open_auctions/open_auction[bidder/increase > 5]"
            "/annotation[happiness < 20]/description//text"
        )
        assert names(p)[:3] == ["site", "open_auctions", "open_auction"]
        assert len(p.steps[2].quals) == 1
        assert len(p.steps[3].quals) == 1


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "a/",
            "a[",
            "a[]",
            "a[b",
            "a[b =]",
            "a[= 'x']",
            "a[label() < 'x']",
            "a[not b]",
            "a b",
            "a[!b]",
            "a['x' y]",
            "a;b",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(XPathSyntaxError):
            parse_xpath(bad)

    def test_unterminated_string(self):
        with pytest.raises(XPathSyntaxError):
            parse_xpath("a[b = 'oops]")

    def test_validate_rejects_attr_in_selecting_path(self):
        with pytest.raises(XPathSyntaxError):
            validate_path(parse_xpath("a/@id"))

    def test_validate_rejects_mid_path_attr_in_qualifier(self):
        # The parser refuses the text, so only a hand-built path gets here.
        with pytest.raises(XPathSyntaxError, match="@id must be the final step"):
            parse_xpath("a[@id/b]")
        path = Path((Step("attr", "id"), Step("label", "b")))
        with pytest.raises(XPathSyntaxError, match="@id must be the final step"):
            validate_path(path, in_qualifier=True)

    def test_validate_accepts_final_attr_in_qualifier(self):
        validate_path(parse_xpath("a"), in_qualifier=False)
        qual_path = parse_xpath("a[b/@id = 'x']").steps[0].quals[0].path
        validate_path(qual_path, in_qualifier=True)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "source",
        [
            "part",
            "site/people/person",
            "//part",
            "site//item",
            "a/*/b",
            "a//.",
            "part[supplier]",
            "person[profile/age > 20]",
        ],
    )
    def test_str_reparses_to_same_ast(self, source):
        path = parse_xpath(source)
        assert parse_xpath(str(path)) == path
