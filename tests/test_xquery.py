"""Unit tests for the XQuery subset: parser and evaluator."""

import pytest

from repro.xmltree import deep_equal, element, parse, serialize
from repro.xpath import parse_xpath
from repro.xpath.lexer import XPathSyntaxError
from repro.xquery import (
    Compare,
    ElementTemplate,
    Literal,
    PathFrom,
    UserQuery,
    VarRef,
    evaluate_query,
    parse_user_query,
)
from repro.xquery.ast import (
    BoolAnd,
    BoolConst,
    BoolNot,
    BoolOr,
    Conditional,
    ConstTree,
    EmptySeq,
    Exists,
    For,
    Let,
    QualCheck,
    Sequence,
)
from repro.xquery.evaluator import Environment, eval_bool, eval_expr


@pytest.fixture
def doc():
    return parse(
        """
        <site>
          <part><pname>keyboard</pname><supplier><sname>HP</sname><price>12</price></supplier></part>
          <part><pname>mouse</pname><supplier><sname>Dell</sname><price>8</price></supplier></part>
        </site>
        """
    )


class TestParser:
    def test_simple_for_return(self):
        q = parse_user_query("for $x in part/supplier return $x")
        assert q.var == "x"
        assert str(q.path) == "part/supplier"
        assert q.conditions == []
        assert q.template == VarRef("x")

    def test_return_path(self):
        q = parse_user_query("for $x in part return $x/pname")
        assert q.template == PathFrom("x", parse_xpath("pname"))

    def test_where_clause(self):
        q = parse_user_query(
            "for $x in part where $x/pname = 'keyboard' return $x"
        )
        (cond,) = q.conditions
        assert isinstance(cond, Compare)
        assert cond.op == "="
        assert cond.right == Literal("keyboard")

    def test_where_multiple_conditions(self):
        q = parse_user_query(
            "for $x in part where $x/a = '1' and $x/b = '2' return $x"
        )
        assert len(q.conditions) == 2

    def test_where_numeric(self):
        q = parse_user_query("for $x in part where $x/price < 15 return $x")
        (cond,) = q.conditions
        assert cond.right == Literal(15.0)

    def test_template(self):
        q = parse_user_query(
            "for $x in part return <result>{ $x/pname, $x/supplier }</result>"
        )
        assert isinstance(q.template, ElementTemplate)
        assert q.template.label == "result"
        assert len(q.template.parts) == 2

    def test_variable_rooted_source(self):
        q = parse_user_query("for $x in $n/part[pname = 'keyboard']/supplier return $x")
        assert str(q.path) == "part[pname = 'keyboard']/supplier"

    def test_qualified_source_path(self):
        q = parse_user_query("for $x in //part[pname = 'kb'] return $x")
        assert len(q.path.steps) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "for x in a return $x",
            "for $x a return $x",
            "for $x in a",
            "for $x in a return",
            "for $x in a where return $x",
            "for $x in a return <r>{ $x }</s>",
            "for $x in a return $y",
            "for $x in a return $x extra",
            "for $x in a return $x;",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(XPathSyntaxError):
            parse_user_query(bad)


class TestEvaluator:
    def test_for_return_nodes(self, doc):
        q = parse_user_query("for $x in part/supplier return $x")
        result = evaluate_query(doc, q)
        assert len(result) == 2
        assert all(n.label == "supplier" for n in result)

    def test_where_filters(self, doc):
        q = parse_user_query("for $x in part where $x/pname = 'keyboard' return $x")
        result = evaluate_query(doc, q)
        assert len(result) == 1

    def test_where_numeric(self, doc):
        q = parse_user_query("for $x in part/supplier where $x/price < 10 return $x")
        result = evaluate_query(doc, q)
        assert len(result) == 1
        assert result[0].first("sname").own_text() == "Dell"

    def test_template_constructs_elements(self, doc):
        q = parse_user_query("for $x in part return <row>{ $x/pname }</row>")
        result = evaluate_query(doc, q)
        assert len(result) == 2
        assert serialize(result[0]) == "<row><pname>keyboard</pname></row>"

    def test_template_literal_becomes_text(self, doc):
        q = parse_user_query("for $x in part return <row>{ 'hi' }</row>")
        result = evaluate_query(doc, q)
        assert serialize(result[0]) == "<row>hi</row>"

    def test_attribute_path(self):
        root = parse('<r><p id="1"/><p id="2"/></r>')
        q = parse_user_query("for $x in p return $x/@id")
        assert evaluate_query(root, q) == ["1", "2"]

    def test_qualified_source(self, doc):
        q = parse_user_query("for $x in part[pname = 'mouse']/supplier return $x")
        assert len(evaluate_query(doc, q)) == 1

    def test_let_binding(self, doc):
        expr = Let("v", PathFrom(None, parse_xpath("part")), VarRef("v"))
        assert len(eval_expr(expr, Environment(), doc)) == 2

    def test_conditional(self, doc):
        expr = Conditional(
            BoolConst(True), Literal("yes"), Literal("no")
        )
        assert eval_expr(expr, Environment(), doc) == ["yes"]

    def test_sequence_concatenates(self, doc):
        expr = Sequence([Literal("a"), Literal("b")])
        assert eval_expr(expr, Environment(), doc) == ["a", "b"]

    def test_const_tree(self, doc):
        const = element("x", "1")
        assert eval_expr(ConstTree(const), Environment(), doc) == [const]

    def test_empty_seq(self, doc):
        assert eval_expr(EmptySeq(), Environment(), doc) == []

    def test_unbound_variable_raises(self, doc):
        with pytest.raises(NameError):
            eval_expr(VarRef("nope"), Environment(), doc)


class TestBooleans:
    def test_exists(self, doc):
        assert eval_bool(Exists(PathFrom(None, parse_xpath("part"))), Environment(), doc)
        assert not eval_bool(Exists(PathFrom(None, parse_xpath("zzz"))), Environment(), doc)

    def test_compare_existential(self, doc):
        cond = Compare(
            PathFrom(None, parse_xpath("part/pname")), "=", Literal("mouse")
        )
        assert eval_bool(cond, Environment(), doc)

    def test_compare_numeric_coercion(self, doc):
        cond = Compare(
            PathFrom(None, parse_xpath("part/supplier/price")), "<", Literal(10.0)
        )
        assert eval_bool(cond, Environment(), doc)

    def test_compare_numeric_unparseable_false(self, doc):
        cond = Compare(
            PathFrom(None, parse_xpath("part/pname")), "<", Literal(10.0)
        )
        assert not eval_bool(cond, Environment(), doc)

    def test_connectives(self, doc):
        t, f = BoolConst(True), BoolConst(False)
        env = Environment()
        assert eval_bool(BoolAnd(t, t), env, doc)
        assert not eval_bool(BoolAnd(t, f), env, doc)
        assert eval_bool(BoolOr(f, t), env, doc)
        assert not eval_bool(BoolOr(f, f), env, doc)
        assert eval_bool(BoolNot(f), env, doc)

    def test_qual_check(self, doc):
        part = doc.children[0]
        qual = parse_xpath("x[pname = 'keyboard']").steps[0].quals[0]
        env = Environment({"v": [part]})
        assert eval_bool(QualCheck("v", qual), env, doc)

    def test_core_desugaring(self, doc):
        q = parse_user_query("for $x in part where $x/pname = 'mouse' return $x")
        core = q.core()
        assert isinstance(core, For)
        assert isinstance(core.body, Conditional)
