"""Focused tests for the SAX-integrated two-pass algorithm (Section 6):
the Ld cursor list, pass-2 suppression/renaming/insertion mechanics,
the file-to-file entry point, and cursor alignment between passes."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import build_filtering_nfa, build_selecting_nfa
from repro.transform import (
    TransformQuery,
    transform_copy_update,
    transform_sax,
    transform_sax_events,
    transform_sax_file,
)
from repro.transform.sax_twopass import pass1_collect_ld, pass2_transform
from repro.updates import parse_update
from repro.xmark.generator import write_xmark_file
from repro.xmark.queries import insert_transform
from repro.xmltree import (
    deep_equal,
    iter_sax_string,
    parse,
    parse_file,
    serialize,
    tree_to_events,
    write_file,
)
from repro.xpath import eval_qualifier, evaluate, parse_xpath

from tests.strategies import trees, xpath_queries
from repro.xpath.normalize import UnsupportedPathError


DOC = (
    "<db>"
    "<part><pname>kb</pname>"
    "<supplier><sname>HP</sname><price>12</price></supplier>"
    "<supplier><sname>Dell</sname><price>20</price></supplier></part>"
    "<part><pname>mouse</pname>"
    "<supplier><sname>HP</sname><price>8</price></supplier></part>"
    "</db>"
)


class TestPass1:
    def test_ld_one_entry_per_qualifier_occurrence(self):
        doc = parse(DOC)
        nfa = build_filtering_nfa(parse_xpath("part[pname = 'kb']"))
        ld = pass1_collect_ld(tree_to_events(doc), nfa)
        # The part state (with its qualifier) is entered at both parts.
        assert len(ld) == 2
        assert ld == [True, False]

    def test_ld_values_match_reference(self):
        doc = parse(DOC)
        path = parse_xpath("part/supplier[price < 15]")
        nfa = build_filtering_nfa(path)
        ld = pass1_collect_ld(tree_to_events(doc), nfa)
        qual = parse_xpath("x[price < 15]").steps[0].quals[0]
        expected = [
            eval_qualifier(node, qual)
            for node in evaluate(doc, parse_xpath("part/supplier"))
        ]
        assert ld == expected

    def test_ld_empty_for_qualifier_free_query(self):
        doc = parse(DOC)
        nfa = build_filtering_nfa(parse_xpath("part/supplier"))
        assert pass1_collect_ld(tree_to_events(doc), nfa) == []

    def test_pruning_skips_ld_entries(self):
        # Qualifier states under a non-matching branch assign no ids.
        doc = parse("<r><a><x t='1'/></a><b><x/></b></r>")
        nfa = build_filtering_nfa(parse_xpath("a/x[@t = '1']"))
        ld = pass1_collect_ld(tree_to_events(doc), nfa)
        assert len(ld) == 1  # only the x under a, not the x under b

    def test_no_none_left_in_ld(self):
        doc = parse(DOC)
        nfa = build_filtering_nfa(
            parse_xpath("//supplier[sname = 'HP' and price < 15]")
        )
        ld = pass1_collect_ld(tree_to_events(doc), nfa)
        assert ld and all(value is not None for value in ld)


class TestPass2Mechanics:
    def run(self, doc_text, update_text):
        doc = parse(doc_text)
        query = TransformQuery(parse_update(update_text))
        return serialize(transform_sax(doc, query))

    def test_delete_suppresses_whole_subtree(self):
        out = self.run("<r><a><deep><er/></deep></a><b/></r>", "delete $a/a")
        assert out == "<r><b/></r>"

    def test_replace_emits_replacement_once(self):
        out = self.run("<r><a><x/></a></r>", "replace $a/a with <n>1</n>")
        assert out == "<r><n>1</n></r>"

    def test_rename_changes_both_tags(self):
        out = self.run("<r><a><x/></a></r>", "rename $a/a as b")
        assert out == "<r><b><x/></b></r>"

    def test_insert_goes_before_closing_tag(self):
        out = self.run("<r><a><x/></a></r>", "insert <n/> into $a/a")
        assert out == "<r><a><x/><n/></a></r>"

    def test_insert_on_selfclosing_element(self):
        out = self.run("<r><a/></r>", "insert <n/> into $a/a")
        assert out == "<r><a><n/></a></r>"

    def test_nested_delete_inside_suppressed_region(self):
        out = self.run("<r><a><a><b/></a></a></r>", "delete $a//a")
        assert out == "<r/>"

    def test_text_suppressed_with_subtree(self):
        out = self.run("<r><a>secret</a><b>kept</b></r>", "delete $a/a")
        assert out == "<r><b>kept</b></r>"

    def test_attributes_preserved_through_rename(self):
        out = self.run('<r><a k="v"/></r>', "rename $a/a as b")
        assert out == '<r><b k="v"/></r>'

    def test_qualifier_known_at_start_element(self):
        # The qualifier depends on the subtree (descendant test), yet
        # delete decides at the opening tag — only possible because Ld
        # was computed in pass 1.
        out = self.run(
            "<r><a><x><deep/></x></a><a><x/></a></r>",
            "delete $a/a[x/deep]",
        )
        assert out == "<r><a><x/></a></r>"

    @pytest.mark.parametrize(
        "update, want",
        [
            ("delete $a/.[zzz]//a", "<r><a><b/></a><a/></r>"),
            ("delete $a/.[a]//b", "<r><a/><a/></r>"),
            ("rename $a/.[zzz]/a as c", "<r><a><b/></a><a/></r>"),
        ],
    )
    def test_a_context_qualifier_is_decided_at_the_root(self, update, want):
        # A context qualifier that fails at the root selects nothing:
        # the states ε reaches from the start state die with it.
        assert self.run("<r><a><b/></a><a/></r>", update) == want


class TestFileInterface:
    def test_file_to_file(self, tmp_path):
        doc = parse(DOC)
        in_path = str(tmp_path / "in.xml")
        out_path = str(tmp_path / "out.xml")
        write_file(doc, in_path)
        query = TransformQuery(parse_update("delete $a//price"))
        transform_sax_file(in_path, query, out_path)
        result = parse_file(out_path)
        assert deep_equal(result, transform_copy_update(doc, query))

    def test_file_to_string(self, tmp_path):
        doc = parse(DOC)
        in_path = str(tmp_path / "in.xml")
        write_file(doc, in_path)
        query = TransformQuery(parse_update("rename $a//pname as name"))
        text = transform_sax_file(in_path, query)
        assert deep_equal(parse(text), transform_copy_update(doc, query))

    def test_event_stream_output(self):
        doc = parse(DOC)
        query = TransformQuery(parse_update("delete $a//price"))
        events = transform_sax_events(lambda: tree_to_events(doc), query)
        from repro.xmltree import events_to_tree

        assert deep_equal(events_to_tree(events), transform_copy_update(doc, query))

    def test_peak_heap_does_not_grow_with_the_file(self, tmp_path):
        """Fig. 14's claim: file to file, the traced heap is small and
        flat in the file size (a 4x larger file, the same peak)."""
        query = insert_transform("U2")
        peaks = []
        for factor in (0.005, 0.02):  # 0.21 MB and 0.83 MB files
            in_path = str(tmp_path / f"xmark-{factor}.xml")
            write_xmark_file(in_path, factor, seed=42)
            tracemalloc.start()
            try:
                transform_sax_file(in_path, query, str(tmp_path / "out.xml"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        small, large = peaks
        assert large < 1 << 20 and small < 1 << 20, peaks
        assert large <= 1.25 * small, peaks


class TestCursorAlignment:
    """The alignment invariant: pass 2 consumes exactly the ids pass 1
    assigned, in the same order — even under heavy branching."""

    @settings(max_examples=100, deadline=None)
    @given(
        tree=trees(),
        query=xpath_queries(),
        kind=st.sampled_from(["insert", "delete", "replace", "rename"]),
    )
    def test_ld_fully_consumed(self, tree, query, kind):
        target = ("$a" + query) if query.startswith("//") else f"$a/{query}"
        text = {
            "insert": f"insert <n/> into {target}",
            "delete": f"delete {target}",
            "replace": f"replace {target} with <n/>",
            "rename": f"rename {target} as renamed",
        }[kind]
        try:
            transform_query = TransformQuery(parse_update(text))
            selecting = build_selecting_nfa(transform_query.path)
            filtering = build_filtering_nfa(transform_query.path)
        except UnsupportedPathError:
            return
        ld = pass1_collect_ld(tree_to_events(tree), filtering)
        events = list(
            pass2_transform(tree_to_events(tree), selecting, transform_query, ld)
        )
        assert events, "pass 2 must always produce a document"
        # Equivalence with the reference doubles as the alignment check:
        # a cursor slip would misread qualifier values and diverge.
        from repro.xmltree import events_to_tree

        result = events_to_tree(events)
        expected = transform_copy_update(tree, transform_query)
        assert deep_equal(result, expected)
