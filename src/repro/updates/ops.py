"""Update operations and their parser (Section 2).

The four update forms supported by the paper's transform queries::

    insert e into $a/p    — add e as the last child of every node in r[[p]]
    delete $a/p           — remove every node in r[[p]] with its subtree
    replace $a/p with e   — replace every node in r[[p]] with e
    rename $a/p as l      — relabel every node in r[[p]] to l

Nested-match convention (applied consistently by *every* evaluation
algorithm in this repo, and by the destructive reference): ``r[[p]]``
is computed against the original tree; for ``delete`` and ``replace``
the topmost match wins (matches strictly inside a deleted/replaced
subtree have no observable effect), while ``insert`` and ``rename``
apply at every match, including nested ones.
"""

from __future__ import annotations

from repro.xmltree.node import Element, Node, deep_copy
from repro.xpath import lexer as lx
from repro.xpath.ast import Path
from repro.xpath.lexer import TokenStream
from repro.xpath.parser import parse_rooted_path, validate_path


def path_with_var(path: Path, var: str = "a") -> str:
    """Render ``$a/p`` (no doubled slash when ``p`` starts with //)."""
    text = str(path)
    if text.startswith("//"):
        return f"${var}{text}"
    return f"${var}/{text}"


class Update:
    """Abstract base of the four update operations."""

    #: Set by subclasses: "insert" | "delete" | "replace" | "rename".
    kind = ""

    def __init__(self, path: Path):
        validate_path(path)
        self.path = path

    #: Does the transform keep processing below a matched node?
    #: delete/replace swallow the whole subtree; insert/rename recurse.
    recurses_into_match = True

    def result_for_match(self, rebuilt: Element) -> list[Node]:
        """Output nodes for a matched element.

        *rebuilt* is the element with its (already transformed, for
        recursing updates) children.  Returns the node list that takes
        its place in the parent's child list.
        """
        raise NotImplementedError

    def render(self, var: str = "a") -> str:
        """The update's text, its path written against ``$var``."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render()


class Insert(Update):
    """``insert e into $a/p``."""

    kind = "insert"
    recurses_into_match = True

    def __init__(self, path: Path, content: Element):
        super().__init__(path)
        self.content = content

    def result_for_match(self, rebuilt: Element) -> list[Node]:
        # A fresh copy per match: the result must be a proper tree, not
        # a DAG — node identity matters to downstream queries (document
        # order, duplicate elimination).
        rebuilt.children.append(deep_copy(self.content))
        return [rebuilt]

    def render(self, var: str = "a") -> str:
        from repro.xmltree.serializer import serialize

        return f"insert {serialize(self.content)} into {path_with_var(self.path, var)}"


class Delete(Update):
    """``delete $a/p``."""

    kind = "delete"
    recurses_into_match = False

    def result_for_match(self, rebuilt: Element) -> list[Node]:
        return []

    def render(self, var: str = "a") -> str:
        return f"delete {path_with_var(self.path, var)}"


class Replace(Update):
    """``replace $a/p with e``."""

    kind = "replace"
    recurses_into_match = False

    def __init__(self, path: Path, content: Element):
        super().__init__(path)
        self.content = content

    def result_for_match(self, rebuilt: Element) -> list[Node]:
        return [deep_copy(self.content)]  # fresh per match (tree, not DAG)

    def render(self, var: str = "a") -> str:
        from repro.xmltree.serializer import serialize

        return f"replace {path_with_var(self.path, var)} with {serialize(self.content)}"


class Rename(Update):
    """``rename $a/p as l``."""

    kind = "rename"
    recurses_into_match = True

    def __init__(self, path: Path, new_label: str):
        super().__init__(path)
        self.new_label = new_label

    def result_for_match(self, rebuilt: Element) -> list[Node]:
        rebuilt.label = self.new_label
        return [rebuilt]

    def render(self, var: str = "a") -> str:
        return f"rename {path_with_var(self.path, var)} as {self.new_label}"


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------


def parse_update(source: str) -> Update:
    """Parse an update expression from its textual form."""
    stream = TokenStream(source)
    update = read_update(stream)
    stream.expect_end()
    return update


def read_update(stream: TokenStream, var: str = "") -> Update:
    """Parse the update at the current token (alone, or a transform
    query's body, copying *var*); the element literal is read as XML."""
    token = stream.current
    kind = token.value if token.type == lx.NAME else ""
    if kind == "insert":
        stream.advance()
        content = stream.element()
        stream.expect_name("into")
        return Insert(parse_rooted_path(stream, True, var), content)
    if kind == "delete":
        stream.advance()
        return Delete(parse_rooted_path(stream, True, var))
    if kind == "replace":
        stream.advance()
        path = parse_rooted_path(stream, True, var)
        stream.expect_name("with")
        return Replace(path, stream.element())
    if kind == "rename":
        stream.advance()
        path = parse_rooted_path(stream, True, var)
        stream.expect_name("as")
        return Rename(path, stream.expect(lx.NAME).value)
    raise stream.error(
        f"expected an update (insert/delete/replace/rename), found {token.value!r}"
    )
