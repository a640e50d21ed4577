"""The Fig. 2 rewriting, end to end: transform query → XQuery program.

Section 3.1 argues transform queries "can be readily supported by
available XQuery engines" by rewriting them into standard XQuery with a
recursive rebuild function.  This module performs that rewriting onto
our own XQuery program layer (:mod:`repro.xquery.program`), producing a
program whose text (`str(program)`) is the Fig. 2 shape::

    declare function local:apply($n, $xp)
    { if (fn:is-element($n))
      then element {fn:local-name($n)} {
             fn:attributes($n),
             for $c in fn:children($n) return local:apply($c, $xp),
             if (some $x in $xp satisfies $n is $x) then e else () }
      else $n };

    let $xp := for $x in doc()/p return if ($x is fn:doc()) then () else $x
    return local:apply(fn:doc(), $xp)

and whose evaluation *is* the Naive Method — including the linear
``some … satisfies … is …`` membership scan that makes it quadratic.
``transform_naive_xquery`` is therefore a sixth evaluation strategy,
equivalent to the other five (the test suite enforces it) but executed
entirely through the rewritten query, demonstrating the paper's
"no change to existing XQuery processors" pathway on our engine.
"""

from __future__ import annotations

from repro.transform.query import TransformQuery
from repro.updates.ops import Delete, Insert, Rename, Replace, Update
from repro.xmltree.node import Element
from repro.xpath.ast import Path
from repro.xquery.ast import (
    Conditional,
    ConstTree,
    EmptySeq,
    For,
    Let,
    Literal,
    PathFrom,
    Sequence,
    VarRef,
)
from repro.xquery.program import (
    BuiltinCall,
    ComputedElement,
    FunctionCall,
    FunctionDecl,
    IsSame,
    Program,
    SomeSatisfies,
    evaluate_program,
)


def _member_test(node_var: str) -> SomeSatisfies:
    """``some $x in $xp satisfies ($n is $x)`` — the Fig. 2 test."""
    return SomeSatisfies("x", VarRef("xp"), IsSame(VarRef(node_var), VarRef("x")))


def _recurse(child_var: str) -> FunctionCall:
    return FunctionCall("apply", [VarRef(child_var), VarRef("xp")])


def _fresh_content(update: Update) -> tuple:
    """(name-expr, content-expr) for the rebuilt element, per kind."""
    name_expr = BuiltinCall("local-name", [VarRef("n")])
    attrs = BuiltinCall("attributes", [VarRef("n")])
    if isinstance(update, Insert):
        content = Sequence([
            attrs,
            For("c", BuiltinCall("children", [VarRef("n")]), _recurse("c")),
            Conditional(
                _member_test("n"),
                BuiltinCall("copy", [ConstTree(update.content)]),
                EmptySeq(),
            ),
        ])
        return name_expr, content
    if isinstance(update, Delete):
        content = Sequence([
            attrs,
            For(
                "c",
                BuiltinCall("children", [VarRef("n")]),
                Conditional(_member_test("c"), EmptySeq(), _recurse("c")),
            ),
        ])
        return name_expr, content
    if isinstance(update, Replace):
        content = Sequence([
            attrs,
            For(
                "c",
                BuiltinCall("children", [VarRef("n")]),
                Conditional(
                    _member_test("c"),
                    BuiltinCall("copy", [ConstTree(update.content)]),
                    _recurse("c"),
                ),
            ),
        ])
        return name_expr, content
    if isinstance(update, Rename):
        name_expr = Conditional(
            _member_test("n"),
            Literal(update.new_label),
            BuiltinCall("local-name", [VarRef("n")]),
        )
        content = Sequence([
            attrs,
            For("c", BuiltinCall("children", [VarRef("n")]), _recurse("c")),
        ])
        return name_expr, content
    raise TypeError(f"unknown update {update!r}")


def rewrite_to_xquery(query: TransformQuery) -> Program:
    """Rewrite a transform query into an XQuery program (Fig. 2)."""
    update = query.update
    name_expr, content = _fresh_content(update)
    apply_decl = FunctionDecl(
        "apply",
        ["n", "xp"],
        Conditional(
            _effective(BuiltinCall("is-element", [VarRef("n")])),
            ComputedElement(name_expr, content),
            VarRef("n"),
        ),
    )
    # XPath puts the root into ``doc()//.``; updates apply below it.
    below_root = Conditional(
        IsSame(VarRef("x"), BuiltinCall("doc", [])), EmptySeq(), VarRef("x")
    )
    body = Let(
        "xp",
        For("x", PathFrom(None, update.path), below_root),
        FunctionCall("apply", [BuiltinCall("doc", []), VarRef("xp")]),
    )
    return Program(declarations=[apply_decl], body=body)


def _effective(expr) -> "EffectiveBool":
    from repro.xquery.program import EffectiveBool

    return EffectiveBool(expr)


def transform_naive_xquery(root: Element, query: TransformQuery) -> Element:
    """Evaluate a transform query by running its Fig. 2 rewriting on
    the XQuery program layer — the paper's pathway for engines without
    update support."""
    program = rewrite_to_xquery(query)
    items = evaluate_program(program, root)
    assert len(items) == 1 and isinstance(items[0], Element)
    return items[0]
