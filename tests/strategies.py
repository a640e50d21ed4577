"""Shared hypothesis strategies: random XML trees and random X queries.

Used by the property-based tests of the automata, the transform
algorithms and the composition: the reference evaluator is the oracle,
and every other component must agree with it on arbitrary inputs.

The label alphabet is kept small ("a".."e") so random queries actually
hit random trees; text values are small numerals so numeric and string
comparisons both exercise interesting cases.
"""

from hypothesis import strategies as st

from repro.xmltree.node import Element, Text

LABELS = ["a", "b", "c", "d", "e"]
VALUES = ["1", "5", "12", "x", "y"]
ATTR_NAMES = ["id", "k"]


@st.composite
def elements(draw, max_depth=4):
    """A random element with bounded depth and fanout."""
    label = draw(st.sampled_from(LABELS))
    attrs = draw(
        st.dictionaries(
            st.sampled_from(ATTR_NAMES), st.sampled_from(VALUES), max_size=2
        )
    )
    children: list = []
    if max_depth > 0:
        kid_count = draw(st.integers(min_value=0, max_value=3))
        for _ in range(kid_count):
            if draw(st.booleans()):
                children.append(draw(elements(max_depth=max_depth - 1)))
            else:
                children.append(Text(draw(st.sampled_from(VALUES))))
    return Element(label, attrs, children)


def trees():
    """A random document: a root with random content."""
    return elements(max_depth=4)


@st.composite
def _qualifiers(draw, depth):
    kind = draw(
        st.sampled_from(
            ["exists", "cmp_str", "cmp_num", "attr", "label", "and", "or", "not"]
        )
    )
    if kind == "exists":
        return draw(_qual_paths(depth))
    if kind == "cmp_str":
        path = draw(_qual_paths(depth))
        value = draw(st.sampled_from(VALUES))
        return f"{path} = '{value}'"
    if kind == "cmp_num":
        path = draw(_qual_paths(depth))
        op = draw(st.sampled_from(["<", ">", "=", "<=", ">=", "!="]))
        value = draw(st.sampled_from(["1", "5", "12"]))
        return f"{path} {op} {value}"
    if kind == "attr":
        name = draw(st.sampled_from(ATTR_NAMES))
        if draw(st.booleans()):
            value = draw(st.sampled_from(VALUES))
            return f"@{name} = '{value}'"
        return f"@{name}"
    if kind == "label":
        return f"label() = {draw(st.sampled_from(LABELS))}"
    if depth <= 0:
        return draw(_qual_paths(depth))
    if kind == "and":
        return f"({draw(_qualifiers(depth - 1))} and {draw(_qualifiers(depth - 1))})"
    if kind == "or":
        return f"({draw(_qualifiers(depth - 1))} or {draw(_qualifiers(depth - 1))})"
    return f"not({draw(_qualifiers(depth - 1))})"


@st.composite
def _qual_paths(draw, depth):
    """A short relative path usable inside a qualifier."""
    length = draw(st.integers(min_value=1, max_value=2))
    steps = []
    for _ in range(length):
        step = draw(st.sampled_from(LABELS + ["*"]))
        if depth > 0 and draw(st.integers(0, 4)) == 0:
            step += f"[{draw(_qualifiers(depth - 1))}]"
        steps.append(step)
    sep = draw(st.sampled_from(["/", "//"]))
    path = sep.join(steps)
    # Descendant steps from the context itself, and a final attribute
    # step: with the (possibly qualified) label steps above these cover
    # every shape of ``//label`` the arena compiler answers from
    # postings.
    if draw(st.integers(0, 3)) == 0:
        path = ".//" + path
    if draw(st.integers(0, 5)) == 0:
        path += "/@" + draw(st.sampled_from(ATTR_NAMES))
    return path


@st.composite
def xpath_queries(draw):
    """A random X selecting path as source text."""
    length = draw(st.integers(min_value=1, max_value=3))
    parts = []
    for index in range(length):
        step = draw(st.sampled_from(LABELS + ["*"]))
        if draw(st.integers(0, 2)) == 0:
            step += f"[{draw(_qualifiers(1))}]"
        if index == 0:
            prefix = draw(st.sampled_from(["", "//"]))
        else:
            prefix = draw(st.sampled_from(["/", "//"]))
        parts.append(prefix + step)
    return "".join(parts)


@st.composite
def transform_texts(draw, doc="db"):
    """A random transform query text — any of the four update kinds —
    against the shared a..e label alphabet, so updates actually hit
    (and miss) random trees."""
    kind = draw(st.sampled_from(["insert", "delete", "replace", "rename"]))
    path = "$a" + draw(st.sampled_from(["/", "//"])) + draw(st.sampled_from(LABELS))
    if draw(st.booleans()):
        path += draw(st.sampled_from(["/", "//"])) + draw(st.sampled_from(LABELS))
    content_label = draw(st.sampled_from(LABELS))
    if kind == "insert":
        body = f"insert <{content_label}><t>9</t></{content_label}> into {path}"
    elif kind == "delete":
        body = f"delete {path}"
    elif kind == "replace":
        body = f"replace {path} with <{content_label}>9</{content_label}>"
    else:
        body = f"rename {path} as {draw(st.sampled_from(LABELS))}"
    return f'transform copy $a := doc("{doc}") modify do {body} return $a'


@st.composite
def user_queries(draw):
    """A random one- or two-step user query over the a..e alphabet."""
    path = draw(st.sampled_from(["", "//"])) + draw(st.sampled_from(LABELS))
    if draw(st.booleans()):
        path += draw(st.sampled_from(["/", "//"])) + draw(st.sampled_from(LABELS))
    return f"for $x in {path} return $x"
