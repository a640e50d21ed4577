"""The XML tree model used throughout the reproduction.

Design notes (each states its reason inline):

* Nodes carry **no parent pointers**.  The paper's XPath fragment ``X``
  is downward-only, so no evaluator needs to walk upward, and the
  transform algorithms can *share* unchanged subtrees between the input
  and the output tree — exactly the paper's "simply copied to the
  result" without a deep copy.  The destructive update substrate
  (:mod:`repro.updates.apply`) walks from the root carrying the parent
  explicitly instead.
* Transform results are therefore DAG-shaped with respect to the input:
  treat trees handed to the evaluators as immutable.  The sharing rule
  of ``topDown``/``twoPass`` and the Compose plans is copy-on-write: a
  result shares every subtree with no match below it — an element is
  allocated only if it matched or has a match below it, and a query
  matching nothing answers with the input root itself (see
  :mod:`repro.transform.topdown`).  Code that needs a private
  mutable tree should call :func:`deep_copy` first (this is what the
  copy-and-update baseline does, faithfully reproducing its cost).
* An element's *own text* — the concatenation of its immediate
  :class:`Text` children — is the value used by qualifier comparisons
  (``p = 's'``, ``p < 15`` …).  This matches the streaming algorithm of
  Section 6, whose stack entries store "the PCDATA of text children" of
  the current element, and is applied consistently by every evaluator so
  cross-algorithm equivalence holds.
* Labels are plain ``str`` attributes, but the parsers canonicalize
  them through the process-wide symbol table
  (:mod:`repro.xmltree.symbols`): identical labels share one interned
  string object and a dense int id.  The compiled automaton runtime
  (:mod:`repro.automata.dfa`) keys its memoized transition tables by
  those ids — viable precisely because the paper's NFAs are O(|p|)
  semi-linear, so the per-label transition space stays tiny.
* This object model has a frozen columnar sibling: the read-mostly
  paths run over :class:`repro.xmltree.arena.FrozenDocument`, where a
  subtree is a contiguous pre-order index range instead of a pointer
  graph.  The DAG-shaped sharing above and the arena's range column
  are the same paper idea — a subtree the automaton proves untouched
  is "simply copied to the result" — realized once as a shared
  pointer and once as a raw ``[i, i + size[i])`` slice; ``freeze``/``thaw``
  convert between the two.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union


class Node:
    """Abstract base for tree nodes.  Concrete kinds: Element, Text."""

    __slots__ = ()

    #: Overridden by subclasses.
    is_element = False
    is_text = False


class Text(Node):
    """A text (PCDATA) node."""

    __slots__ = ("value",)

    is_text = True

    def __init__(self, value: str):
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = self.value if len(self.value) <= 40 else self.value[:37] + "..."
        return f"Text({shown!r})"


class Element(Node):
    """An element node: a label, attributes and an ordered child list."""

    __slots__ = ("label", "attrs", "children")

    is_element = True

    def __init__(
        self,
        label: str,
        attrs: Optional[dict] = None,
        children: Optional[list] = None,
    ):
        self.label = label
        self.attrs: dict[str, str] = attrs if attrs is not None else {}
        self.children: list[Node] = children if children is not None else []

    # ------------------------------------------------------------------
    # Navigation helpers (downward only, matching the fragment X)
    # ------------------------------------------------------------------

    def child_elements(self) -> Iterator["Element"]:
        """Iterate over the element children, in document order."""
        for child in self.children:
            if child.is_element:
                yield child

    def children_labeled(self, label: str) -> Iterator["Element"]:
        """Iterate over element children with the given label."""
        for child in self.children:
            if child.is_element and child.label == label:
                yield child

    def descendants_or_self(self) -> Iterator["Element"]:
        """Iterate over this element and all element descendants, preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed([c for c in node.children if c.is_element]))

    def descendants(self) -> Iterator["Element"]:
        """Iterate over all proper element descendants, preorder."""
        first = True
        for node in self.descendants_or_self():
            if first:
                first = False
                continue
            yield node

    def own_text(self) -> str:
        """Concatenation of the values of immediate text children.

        This is the comparison value used by qualifier tests such as
        ``price < 15`` — see the module docstring for why.
        """
        return "".join(c.value for c in self.children if c.is_text)

    def first(self, label: str) -> Optional["Element"]:
        """The first element child with the given label, or None."""
        for child in self.children_labeled(label):
            return child
        return None

    # ------------------------------------------------------------------
    # Measures
    # ------------------------------------------------------------------

    def size(self) -> int:
        """Total number of nodes (elements and texts) in this subtree."""
        total = 1
        for child in self.children:
            total += child.size() if child.is_element else 1
        return total

    def depth(self) -> int:
        """Height of this subtree (a leaf element has depth 1)."""
        best = 0
        for child in self.children:
            if child.is_element:
                best = max(best, child.depth())
        return best + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Element({self.label!r}, {len(self.attrs)} attrs, {len(self.children)} children)"


# ----------------------------------------------------------------------
# Construction helpers
# ----------------------------------------------------------------------


def element(
    label: str,
    *children: Union[Node, str],
    attrs: Optional[dict] = None,
    **attr_kwargs: str,
) -> Element:
    """Build an :class:`Element` concisely.

    String children become :class:`Text` nodes; keyword arguments become
    attributes (in addition to an optional explicit ``attrs`` dict)::

        element("supplier",
                element("sname", "HP"),
                element("price", "12"),
                country="US")
    """
    merged_attrs = dict(attrs) if attrs else {}
    merged_attrs.update(attr_kwargs)
    kids: list[Node] = []
    for child in children:
        if isinstance(child, str):
            kids.append(Text(child))
        else:
            kids.append(child)
    return Element(label, merged_attrs, kids)


def text(value: str) -> Text:
    """Build a :class:`Text` node."""
    return Text(value)


# ----------------------------------------------------------------------
# Structural operations
# ----------------------------------------------------------------------


def deep_copy(node: Node) -> Node:
    """Return a fully independent copy of the subtree rooted at *node*.

    Implemented iteratively so that very deep documents (the streaming
    experiments generate them) do not hit the recursion limit.
    """
    if node.is_text:
        return Text(node.value)
    root_copy = Element(node.label, dict(node.attrs), [])
    stack: list[tuple[Element, Element]] = [(node, root_copy)]
    while stack:
        source, target = stack.pop()
        for child in source.children:
            if child.is_text:
                target.children.append(Text(child.value))
            else:
                child_copy = Element(child.label, dict(child.attrs), [])
                target.children.append(child_copy)
                stack.append((child, child_copy))
    return root_copy


def deep_equal(a: Node, b: Node) -> bool:
    """Structural equality: same labels, attributes, texts and shape.

    Attribute *order* is irrelevant (attributes are a mapping); child
    order matters (XML is ordered).
    """
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x.is_text != y.is_text:
            return False
        if x.is_text:
            if x.value != y.value:
                return False
            continue
        if x.label != y.label or x.attrs != y.attrs:
            return False
        if len(x.children) != len(y.children):
            return False
        stack.extend(zip(x.children, y.children))
    return True


def collect_nodes(root: Element) -> list[Element]:
    """All element nodes of the tree in document (preorder) order."""
    return list(root.descendants_or_self())


def node_count(root: Element, label: Optional[str] = None) -> int:
    """Number of element nodes in the tree, optionally of one label."""
    if label is None:
        return sum(1 for _ in root.descendants_or_self())
    return sum(1 for n in root.descendants_or_self() if n.label == label)
