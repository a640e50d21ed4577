"""Parser for the Section-4 user-query surface form.

::

    for $x in ρ
    [where operand op operand [and …]]
    return retexpr

    operand  := literal | $x/ρ' | $x
    retexpr  := $x | $x/ρ' | literal
              | <label> { retexpr, … } </label>     (element template)

The ``where`` operands and the template parameters are exactly the
``ρ'``/``ϱ`` expressions of the paper (constants or paths from the
bound variable); comparison operators beyond ``=`` are allowed since
the workload queries use them.
"""

from __future__ import annotations

from repro.xpath import lexer as lx
from repro.xpath.lexer import TokenStream, XPathSyntaxError, number_value
from repro.xpath.parser import parse_path, parse_rooted_path
from repro.xquery.ast import (
    Compare,
    ElementTemplate,
    Expr,
    Literal,
    PathFrom,
    UserQuery,
    VarRef,
)


def parse_user_query(source: str) -> UserQuery:
    """Parse a user query from text."""
    stream = TokenStream(source)
    stream.expect_name("for")
    stream.expect(lx.DOLLAR)
    var = stream.expect(lx.NAME).value
    stream.expect_name("in")
    # The paper writes view queries against a bound document variable.
    path = parse_rooted_path(stream)
    conditions = []
    if stream.at_name("where"):
        stream.advance()
        conditions.append(_parse_condition(stream, var))
        while stream.accept(lx.AND):
            conditions.append(_parse_condition(stream, var))
    stream.expect_name("return")
    template = _parse_return_expr(stream, var)
    stream.expect_end()
    return UserQuery(var, path, conditions, template, source_text=source.strip())


def _parse_operand(stream: TokenStream, var: str) -> Expr:
    token = stream.current
    if token.type == lx.STRING:
        stream.advance()
        return Literal(token.value)
    if token.type == lx.NUMBER:
        stream.advance()
        return Literal(number_value(token))
    if token.type == lx.DOLLAR:
        stream.advance()
        name = stream.expect(lx.NAME).value
        if name != var:
            raise XPathSyntaxError(f"unknown variable ${name}", token.pos)
        if stream.current.type in (lx.SLASH, lx.DSLASH):
            return PathFrom(var, parse_path(stream))
        return VarRef(var)
    # A bare path is evaluated from the bound variable, XPath-style.
    return PathFrom(var, parse_path(stream))


def _parse_condition(stream: TokenStream, var: str):
    """``not(cond)``, ``(cond)``, a comparison, or a path existence."""
    from repro.xquery.ast import BoolNot, Exists

    if stream.accept(lx.NOT):
        stream.expect(lx.LPAREN)
        inner = _parse_condition(stream, var)
        stream.expect(lx.RPAREN)
        return BoolNot(inner)
    if stream.accept(lx.LPAREN):
        inner = _parse_condition(stream, var)
        stream.expect(lx.RPAREN)
        return inner
    left = _parse_operand(stream, var)
    if stream.current.type == lx.OP:
        op = stream.advance().value
        right = _parse_operand(stream, var)
        return Compare(left, op, right)
    return Exists(left)


def _parse_return_expr(stream: TokenStream, var: str) -> Expr:
    token = stream.current
    if token.type == lx.OP and token.value == "<":
        return _parse_template(stream, var)
    return _parse_operand(stream, var)


def _parse_template(stream: TokenStream, var: str) -> ElementTemplate:
    """``<label> { expr, … } </label>`` — tokens, not raw XML, since the
    braces contain query expressions."""
    stream.expect(lx.OP, "<")
    label = stream.expect(lx.NAME).value
    stream.expect(lx.OP, ">")
    parts: list = []
    if stream.accept(lx.LBRACE):
        parts.append(_parse_return_expr(stream, var))
        while stream.accept(lx.COMMA):
            parts.append(_parse_return_expr(stream, var))
        stream.expect(lx.RBRACE)
    stream.expect(lx.OP, "<")
    stream.expect(lx.SLASH)
    closing = stream.expect(lx.NAME)
    if closing.value != label:
        raise XPathSyntaxError(f"mismatched template tag </{closing.value}>", closing.pos)
    stream.expect(lx.OP, ">")
    return ElementTemplate(label, {}, parts)
