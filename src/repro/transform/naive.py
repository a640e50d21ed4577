"""The Naive Method (Section 3.1, Fig. 2): rewriting into "standard
XQuery" with a node-set membership test.

Section 3.1 argues transform queries "can be readily supported by
available XQuery engines" by rewriting them into standard XQuery with
a recursive rebuild function.  For ``insert e into $a/p`` the
rewriting is the Fig. 2 program::

    declare function local:apply($n, $xp)
    { if (fn:is-element($n))
      then element {fn:local-name($n)} {
             fn:attributes($n),
             for $c in fn:children($n) return local:apply($c, $xp),
             if (some $x in $xp satisfies $n is $x) then e else () }
      else $n };

    let $xp := for $x in doc()/p return if ($x is fn:doc()) then () else $x
    return local:apply(fn:doc(), $xp)

The other kinds change only the constructor: ``delete`` drops each
child ``$c`` that is in ``$xp`` and ``replace`` emits ``e`` in its
place, both without recursing into it; ``rename`` takes the element's
name from ``if (some … $n is $x) then new-label else
fn:local-name($n)``.  :func:`transform_naive` executes that program
directly: ``$xp`` is evaluated once (the root left out, as the ``let``
does), and :func:`rebuild_with_membership` is ``local:apply``.

Its membership test is ``some $x in $xp satisfies ($n is $x)`` — a
*linear scan* of ``$xp`` per node unless the engine optimizes
membership.  We reproduce that cost model faithfully: the selected
node list is scanned linearly at each rebuilt element, giving the
O(|T|²) worst-case data complexity the paper reports when ``p`` is
unselective (NAIVE's blow-up on U1/U4 in Figures 12-13).

Unlike the automaton algorithms, the rebuild traverses the *entire*
tree: there is no pruning.
"""

from __future__ import annotations

from repro.transform.query import TransformQuery
from repro.updates.ops import Update
from repro.xmltree.node import Element, Node
from repro.xpath.evaluator import evaluate


def transform_naive(root: Element, query: TransformQuery) -> Element:
    """Evaluate a transform query by the Fig. 2 rewriting semantics."""
    update = query.update
    # The $xp node list.  XPath puts the context root into ``$a//.``;
    # transform updates apply below the root, so it is left out.
    xp = [node for node in evaluate(root, update.path) if node is not root]

    def member(node: Element) -> bool:
        """``some $x in $xp satisfies ($n is $x)`` — deliberately linear."""
        for candidate in xp:
            if candidate is node:
                return True
        return False

    rebuilt = rebuild_with_membership(root, member, update)
    assert len(rebuilt) == 1 and rebuilt[0].is_element, "the root is never a match"
    return rebuilt[0]


def transform_naive_indexed(root: Element, query: TransformQuery) -> Element:
    """The Naive rewriting with the membership test answered by a hash
    set instead of the linear scan: what an XQuery engine that optimizes
    node-identity membership would run (Section 3.1 conjectures the
    quadratic cost disappears then).  A differential oracle for the
    automaton algorithms and the arena kernel."""
    update = query.update
    xp_ids = {id(node) for node in evaluate(root, update.path)} - {id(root)}
    rebuilt = rebuild_with_membership(root, lambda n: id(n) in xp_ids, update)
    assert len(rebuilt) == 1 and rebuilt[0].is_element, "the root is never a match"
    return rebuilt[0]


def rebuild_with_membership(node: Node, member, update: Update) -> list[Node]:
    """The local:insert()-style full rebuild of Fig. 2, generalized to
    all four update kinds and parameterized by the membership test
    (linear scan for NAIVE, hash set for :func:`transform_naive_indexed`).

    Iterative, so document depth is not limited by the interpreter's
    recursion limit.  Deliberately rebuilds *every* node — the absence
    of pruning is part of the cost model being reproduced.
    """
    result: list[Node] = []
    # Frame: [node, rebuilt, matched, child-cursor, out].
    frames: list[list] = [[node, None, False, 0, result]]
    while frames:
        frame = frames[-1]
        current = frame[0]
        if frame[1] is None:
            if not current.is_element:
                frame[4].append(current)
                frames.pop()
                continue
            matched = member(current)
            if matched and not update.recurses_into_match:
                # delete/replace: the subtree is not reconstructed.
                frame[4].extend(
                    update.result_for_match(
                        Element(current.label, dict(current.attrs), [])
                    )
                )
                frames.pop()
                continue
            frame[1] = Element(current.label, dict(current.attrs), [])
            frame[2] = matched
        children = current.children
        cursor = frame[3]
        rebuilt = frame[1]
        while cursor < len(children) and not children[cursor].is_element:
            rebuilt.children.append(children[cursor])
            cursor += 1
        frame[3] = cursor + 1
        if cursor < len(children):
            frames.append([children[cursor], None, False, 0, rebuilt.children])
            continue
        if frame[2]:
            frame[4].extend(update.result_for_match(rebuilt))
        else:
            frame[4].append(rebuilt)
        frames.pop()
    return result
