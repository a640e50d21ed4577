"""An oracle for view reads that shares no code with ``repro``: the
standard library's ElementTree.

A transform ``transform copy $a := doc(d) modify do u return $a`` is
``copy.deepcopy`` of the document plus ElementTree mutation of the
nodes ``findall`` selects, all chosen before any is changed (the
snapshot semantics of the paper); a user query ``for $x in p return
$x`` or ``… return $x/q`` is ``findall`` again, in document order.

Paths are read only inside the subset where ``findall`` agrees with
XPath: child and ``//`` steps over a name or ``*``, each with any of
the qualifiers ``[@a]``, ``[@a = 'v']``, ``[tag]``, ``[tag = 'v']`` and
``[. = 'v']``.  Anything else — comparisons other than string ``=``,
``and``/``or``/``not``, multi-step or numeric qualifiers — is outside
it, and :func:`et_path` returns ``None``: ``findall`` refuses some of
those and silently answers others differently (``[c > 1]`` selects
nothing).
"""

import copy
import re
import xml.etree.ElementTree as ET
from typing import Dict, List, Optional

_NAME = r"[A-Za-z_][\w.-]*"
_LITERAL = r"(?:'[^']*'|\"[^\"]*\")"
_QUALIFIER = rf"\[\s*(?:@{_NAME}|{_NAME}|\.)(?:\s*=\s*{_LITERAL})?\s*\]"
_STEPS = re.compile(rf"(?://?(?:{_NAME}|\*)(?:{_QUALIFIER})*)+")
_BARE_SELF = re.compile(r"\[\s*\.\s*\]")
_TRANSFORM = re.compile(
    r"\s*transform\s+copy\s+\$(\w+)\s*:=\s*doc\([^)]*\)\s+modify\s+do\s+(.*?)"
    r"\s+return\s+\$\1\s*$",
    re.S,
)
_UPDATES = [
    ("insert", re.compile(r"insert\s+(<.*>)\s+into\s+\$\w+(/.*)", re.S)),
    ("delete", re.compile(r"delete\s+\$\w+(/.*)", re.S)),
    ("replace", re.compile(r"replace\s+\$\w+(/.*?)\s+with\s+(<.*>)", re.S)),
    ("rename", re.compile(r"rename\s+\$\w+(/.*?)\s+as\s+(" + _NAME + ")", re.S)),
]
_QUERY = re.compile(r"\s*for\s+\$(\w+)\s+in\s+(.+?)\s+return\s+\$\1(/.+)?\s*$", re.S)


def et_path(path: str) -> Optional[str]:
    """The ``findall`` form of an absolute-from-context XPath (``/a``,
    ``//a[b = 'v']/c``, …), or ``None`` outside the shared subset."""
    path = path.strip()
    if not path.startswith("/"):
        path = "/" + path
    if not _STEPS.fullmatch(path) or _BARE_SELF.search(path):
        return None
    return "." + path


def parse_transform(text: str) -> tuple:
    """``(kind, path, operand)`` of a transform query's one update: the
    constant for insert and replace, the new label for rename."""
    body = _TRANSFORM.fullmatch(text).group(2).strip()
    for kind, pattern in _UPDATES:
        found = pattern.fullmatch(body)
        if found is not None:
            groups = found.groups()
            if kind == "insert":
                return kind, groups[1], groups[0]
            return kind, groups[0], groups[1] if len(groups) > 1 else None
    raise ValueError(f"not an update the oracle reads: {body!r}")


def transform_in_subset(text: str) -> bool:
    return et_path(parse_transform(text)[1]) is not None


def query_in_subset(text: str) -> bool:
    _, path, tail = _QUERY.fullmatch(text).groups()
    return et_path(path) is not None and (tail is None or et_path(tail) is not None)


def _select(root: ET.Element, context: ET.Element, path: str) -> List[ET.Element]:
    """``findall`` deduplicated and in document order (``//`` after
    ``//`` can yield a node twice, out of order)."""
    order = {id(node): index for index, node in enumerate(root.iter())}
    found = {id(node): node for node in context.findall(et_path(path))}
    return [found[key] for key in sorted(found, key=order.__getitem__)]


def _detach(parents: Dict[int, ET.Element], node: ET.Element,
            replacement: Optional[ET.Element] = None) -> None:
    """Remove *node* (or put *replacement* in its place), keeping the
    text that follows it: ElementTree stores that as the node's tail."""
    parent = parents[id(node)]
    siblings = list(parent)
    index = next(i for i, sibling in enumerate(siblings) if sibling is node)
    if replacement is not None:
        replacement.tail = node.tail
        parent[index] = replacement
        return
    if node.tail:
        if index:
            siblings[index - 1].tail = (siblings[index - 1].tail or "") + node.tail
        else:
            parent.text = (parent.text or "") + node.tail
    parent.remove(node)


def apply_transform(root: ET.Element, text: str) -> ET.Element:
    """The transform's result on a deep copy of *root*."""
    kind, path, operand = parse_transform(text)
    out = copy.deepcopy(root)
    parents = {id(child): parent for parent in out.iter() for child in parent}
    for node in _select(out, out, path):
        if kind == "rename":
            node.tag = operand
        elif kind == "insert":
            node.append(ET.fromstring(operand))
        elif kind == "delete":
            _detach(parents, node)
        else:
            _detach(parents, node, ET.fromstring(operand))
    return out


def run_query(root: ET.Element, text: str) -> List[str]:
    """A ``for`` query's element answers, each in C14N 2.0 form."""
    _, path, tail = _QUERY.fullmatch(text).groups()
    items = []
    for bound in _select(root, root, path):
        items.extend([bound] if tail is None else _select(root, bound, tail))
    return [canonical_element(item) for item in items]


def canonical_element(node: ET.Element) -> str:
    tail, node.tail = node.tail, None
    try:
        return canonical(ET.tostring(node, encoding="unicode"))
    finally:
        node.tail = tail


def canonical(xml_text: str) -> str:
    return ET.canonicalize(xml_data=xml_text)
