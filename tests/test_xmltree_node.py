"""Unit tests for the tree model (repro.xmltree.node)."""

import pytest

from repro.xmltree import Element, Text, deep_copy, deep_equal, element, text
from repro.xmltree.node import collect_nodes, node_count


@pytest.fixture
def sample():
    return element(
        "db",
        element(
            "part",
            element("pname", "keyboard"),
            element(
                "supplier",
                element("sname", "HP"),
                element("price", "12"),
                element("country", "US"),
            ),
        ),
        element("part", element("pname", "mouse")),
    )


class TestConstruction:
    def test_element_helper_strings_become_text(self):
        node = element("pname", "keyboard")
        assert len(node.children) == 1
        assert node.children[0].is_text
        assert node.children[0].value == "keyboard"

    def test_element_helper_attrs_kwargs(self):
        node = element("person", id="person0")
        assert node.attrs == {"id": "person0"}

    def test_element_helper_attrs_dict_and_kwargs_merge(self):
        node = element("person", attrs={"a": "1"}, id="person0")
        assert node.attrs == {"a": "1", "id": "person0"}

    def test_text_helper(self):
        node = text("hello")
        assert node.is_text and not node.is_element
        assert node.value == "hello"

    def test_element_flags(self):
        node = Element("x")
        assert node.is_element and not node.is_text

    def test_default_containers_not_shared(self):
        a, b = Element("x"), Element("y")
        a.children.append(Text("t"))
        a.attrs["k"] = "v"
        assert b.children == [] and b.attrs == {}


class TestNavigation:
    def test_child_elements_skips_text(self, sample):
        part = sample.children[0]
        labels = [c.label for c in part.child_elements()]
        assert labels == ["pname", "supplier"]

    def test_children_labeled(self, sample):
        assert len(list(sample.children_labeled("part"))) == 2
        assert list(sample.children_labeled("nope")) == []

    def test_descendants_or_self_preorder(self, sample):
        labels = [n.label for n in sample.descendants_or_self()]
        assert labels == [
            "db",
            "part",
            "pname",
            "supplier",
            "sname",
            "price",
            "country",
            "part",
            "pname",
        ]

    def test_descendants_excludes_self(self, sample):
        labels = [n.label for n in sample.descendants()]
        assert labels[0] == "part"
        assert "db" not in labels

    def test_own_text_concatenates_immediate_text(self):
        node = Element("x", {}, [Text("a"), Element("y"), Text("b")])
        assert node.own_text() == "ab"

    def test_own_text_ignores_descendant_text(self, sample):
        part = sample.children[0]
        assert part.own_text() == ""

    def test_first(self, sample):
        part = sample.children[0]
        assert part.first("pname").own_text() == "keyboard"
        assert part.first("zzz") is None


class TestMeasures:
    def test_size_counts_elements_and_text(self, sample):
        # 9 elements + 5 text leaves
        assert sample.size() == 14

    def test_depth(self, sample):
        assert sample.depth() == 4
        assert Element("leaf").depth() == 1


class TestDeepCopy:
    def test_copy_is_equal_but_disjoint(self, sample):
        dup = deep_copy(sample)
        assert deep_equal(sample, dup)
        assert dup is not sample
        assert dup.children[0] is not sample.children[0]

    def test_mutating_copy_leaves_original(self, sample):
        dup = deep_copy(sample)
        dup.children[0].label = "changed"
        assert sample.children[0].label == "part"

    def test_copy_text_node(self):
        t = Text("v")
        dup = deep_copy(t)
        assert dup is not t and dup.value == "v"

    def test_copy_very_deep_tree_no_recursion_error(self):
        node = Element("leaf")
        for _ in range(5000):
            node = Element("n", {}, [node])
        dup = deep_copy(node)
        assert deep_equal(node, dup)


class TestDeepEqual:
    def test_equal_trees(self, sample):
        assert deep_equal(sample, deep_copy(sample))

    def test_label_difference(self):
        assert not deep_equal(element("a"), element("b"))

    def test_attr_difference(self):
        assert not deep_equal(element("a", x="1"), element("a", x="2"))

    def test_attr_order_irrelevant(self):
        a = Element("a", {"x": "1", "y": "2"})
        b = Element("a", {"y": "2", "x": "1"})
        assert deep_equal(a, b)

    def test_child_order_matters(self):
        a = element("r", element("x"), element("y"))
        b = element("r", element("y"), element("x"))
        assert not deep_equal(a, b)

    def test_text_vs_element(self):
        assert not deep_equal(text("x"), element("x"))

    def test_text_values(self):
        assert deep_equal(text("x"), text("x"))
        assert not deep_equal(text("x"), text("y"))

    def test_child_count_difference(self):
        assert not deep_equal(element("r", element("x")), element("r"))


class TestAggregates:
    def test_collect_nodes_order(self, sample):
        nodes = collect_nodes(sample)
        assert nodes[0] is sample
        assert len(nodes) == 9

    def test_node_count_total_and_by_label(self, sample):
        assert node_count(sample) == 9
        assert node_count(sample, "part") == 2
        assert node_count(sample, "absent") == 0
