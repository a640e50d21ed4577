"""Recursive-descent parser for the XPath fragment ``X``.

Grammar (see the package docstring)::

    xpath    := ['/' | '//'] relpath | '.'
    relpath  := step (('/' | '//') step)*
    step     := ('.' | '*' | NAME | '@' NAME) qualifier*
    qualifier:= '[' or_expr ']'
    or_expr  := and_expr (('or'|'∨') and_expr)*
    and_expr := unary (('and'|'∧') unary)*
    unary    := ('not'|'¬') '(' or_expr ')' | '(' or_expr ')' | atom
    atom     := 'label' '(' ')' '=' NAME-or-STRING
              | xpath [op literal]
              | literal op xpath        (reversed comparison)
    op       := '=' | '!=' | '<' | '<=' | '>' | '>='
    literal  := STRING | NUMBER

A leading ``/`` is allowed and ignored (paths are evaluated at the
document root in the paper's transform queries); a leading ``//``
contributes a descendant-or-self step.
"""

from __future__ import annotations

from typing import Union

from repro.xpath import lexer as lx
from repro.xpath.ast import (
    AndQual,
    CmpQual,
    LabelQual,
    NotQual,
    OrQual,
    Path,
    PathQual,
    Qual,
    Step,
)
from repro.xpath.lexer import TokenStream, XPathSyntaxError, number_value


def parse_xpath(source: str) -> Path:
    """Parse an ``X`` expression from text."""
    stream = TokenStream(source)
    path = parse_path(stream)
    stream.expect_end()
    return path


def parse_path(stream: TokenStream, selecting: bool = False) -> Path:
    """Parse a path starting at the current token (shared with the
    update/query parsers, which embed paths in larger syntax).

    No step may follow an attribute step, and a *selecting* path (an
    update's) holds none; either is refused at the ``@``.
    """
    steps: list[Step] = []
    attr_at = -1  # the offset of the attribute step, once there is one

    def keep(pos: int, step: Step) -> None:
        nonlocal attr_at
        if step.kind == "self" and not step.quals:
            return  # a/./b == a/b
        if attr_at >= 0:
            raise attribute_not_final(steps[-1], attr_at)
        if step.kind == "attr":
            if selecting:
                raise XPathSyntaxError(
                    f"attribute step @{step.name} not allowed in a selecting path", pos
                )
            attr_at = pos
        steps.append(step)

    def separators() -> bool:
        """Eat a run of '/' and '//' (runs collapse: '////' ≡ '//', one
        descendant-or-self step); True when there was one."""
        seen = dos = False
        while True:
            token = stream.current
            if token.type == lx.DSLASH:
                dos = True
            elif token.type != lx.SLASH:
                break
            seen = True
            stream.advance()
        if dos:
            keep(token.pos, Step("dos"))
        return seen

    separators()  # tolerated absolute prefix
    keep(stream.current.pos, _parse_step(stream))
    while separators():
        keep(stream.current.pos, _parse_step(stream))
    return Path(tuple(steps))


def parse_rooted_path(stream: TokenStream, selecting: bool = False) -> Path:
    """A path, optionally written from a variable (``$a/p``): an update
    target, or a user query's for-source.  Any leading variable stands
    for the document root."""
    if stream.accept(lx.DOLLAR):
        stream.expect(lx.NAME)
        if stream.current.type not in (lx.SLASH, lx.DSLASH):
            raise stream.error("expected a path after the variable")
    return parse_path(stream, selecting)


def attribute_not_final(step: Step, pos: int = 0) -> XPathSyntaxError:
    """The error for an ``@`` step another step follows: raised when a
    path is parsed, and by the qualifier compilers for a hand-built
    AST that carries one."""
    return XPathSyntaxError(f"attribute step @{step.name} must be the final step", pos)


def _parse_step(stream: TokenStream) -> Step:
    token = stream.current
    if token.type == lx.DOT:
        stream.advance()
        base = Step("self")
    elif token.type == lx.STAR:
        stream.advance()
        base = Step("wildcard")
    elif token.type == lx.AT:
        stream.advance()
        name = stream.expect(lx.NAME).value
        base = Step("attr", name)
    elif token.type == lx.NAME:
        stream.advance()
        base = Step("label", token.value)
    else:
        raise stream.error(f"expected a step, found {token.value!r}")
    quals: list[Qual] = []
    while stream.current.type == lx.LBRACKET:
        stream.advance()
        quals.append(parse_qualifier(stream))
        stream.expect(lx.RBRACKET)
    if quals:
        base = base.with_quals(tuple(quals))
    return base


def parse_qualifier(stream: TokenStream) -> Qual:
    """Parse a qualifier body (the part between ``[`` and ``]``)."""
    return _parse_or(stream)


def _parse_or(stream: TokenStream) -> Qual:
    left = _parse_and(stream)
    while stream.accept(lx.OR):
        right = _parse_and(stream)
        left = OrQual(left, right)
    return left


def _parse_and(stream: TokenStream) -> Qual:
    left = _parse_unary(stream)
    while stream.accept(lx.AND):
        right = _parse_unary(stream)
        left = AndQual(left, right)
    return left


def _parse_unary(stream: TokenStream) -> Qual:
    if stream.accept(lx.NOT):
        stream.expect(lx.LPAREN)
        inner = _parse_or(stream)
        stream.expect(lx.RPAREN)
        return NotQual(inner)
    if stream.current.type == lx.LPAREN:
        stream.advance()
        inner = _parse_or(stream)
        stream.expect(lx.RPAREN)
        return inner
    return _parse_atom(stream)


def _parse_literal(stream: TokenStream) -> Union[str, float]:
    token = stream.current
    if token.type == lx.STRING:
        stream.advance()
        return token.value
    if token.type == lx.NUMBER:
        stream.advance()
        return number_value(token)
    raise stream.error(f"expected a literal, found {token.value!r}")


_REVERSED_OPS = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _parse_atom(stream: TokenStream) -> Qual:
    token = stream.current
    # label() = l
    if token.type == lx.NAME and token.value == "label" and stream.peek().type == lx.LPAREN:
        stream.advance()
        stream.expect(lx.LPAREN)
        stream.expect(lx.RPAREN)
        op = stream.expect(lx.OP)
        if op.value != "=":
            raise XPathSyntaxError("label() supports only '='", op.pos)
        name_token = stream.current
        if name_token.type in (lx.NAME, lx.STRING):
            stream.advance()
        else:
            raise stream.error("expected a label after label() =")
        return LabelQual(name_token.value)
    # Reversed comparison: literal op path.
    if token.type in (lx.STRING, lx.NUMBER):
        value = _parse_literal(stream)
        op = stream.expect(lx.OP).value
        path = parse_path(stream)
        return CmpQual(path, _REVERSED_OPS[op], value)
    # Path, optionally compared against a literal.
    path = parse_path(stream)
    if stream.current.type == lx.OP:
        op = stream.advance().value
        value = _parse_literal(stream)
        return CmpQual(path, op, value)
    return PathQual(path)


def validate_path(path: Path, in_qualifier: bool = False) -> None:
    """Enforce the fragment's shape constraints.

    * ``attr`` steps only in qualifier paths, only as the final step;
    * selecting paths (``in_qualifier=False``) contain no attr steps.

    Raises :class:`XPathSyntaxError` on violation.
    """
    for index, step in enumerate(path.steps):
        if step.kind == "attr":
            if not in_qualifier:
                raise XPathSyntaxError(
                    f"attribute step @{step.name} not allowed in a selecting path", 0
                )
            if index != len(path.steps) - 1:
                raise attribute_not_final(step)
        for qual in step.quals:
            _validate_qual(qual)


def _validate_qual(qual: Qual) -> None:
    if isinstance(qual, (PathQual, CmpQual)):
        validate_path(qual.path, in_qualifier=True)
    elif isinstance(qual, (AndQual, OrQual)):
        _validate_qual(qual.left)
        _validate_qual(qual.right)
    elif isinstance(qual, NotQual):
        _validate_qual(qual.operand)
