"""Tests for chained transforms, the CLI, and automaton introspection."""

import pytest

from repro import Engine, freeze, thaw
from repro.engine import PreparedStack, PreparedTransform
from repro.transform import TransformQuery, transform_copy_update
from repro.xmltree import deep_equal, parse, parse_file, serialize, write_file
from repro.xmltree.arena import FrozenDocument
from repro.xpath import parse_xpath
from repro.automata import build_selecting_nfa
from repro import cli


@pytest.fixture
def doc():
    return parse(
        "<db><part><pname>kb</pname><supplier><sname>HP</sname>"
        "<price>12</price></supplier></part></db>"
    )


@pytest.fixture
def engine():
    return Engine()


def _t(update: str) -> str:
    return f'transform copy $a := doc("T") modify do {update} return $a'


def _stack(engine, first: str, second: str, *more: str) -> PreparedStack:
    stack = engine.prepare_transform(_t(first)).then(_t(second))
    for update in more:
        stack = stack.then(_t(update))
    return stack


class TestPreparedStack:
    """Sequenced transforms (nested transform queries: update i+1 sees
    update i's result) are a PreparedStack built with ``then``."""

    def test_sequential_semantics(self, engine, doc):
        stack = _stack(engine, "delete $a//price", "rename $a//sname as vendor")
        text = serialize(stack.run(doc))
        assert "price" not in text and "<vendor>" in text
        assert "price" in serialize(doc)  # source untouched

    def test_stage_order_matters(self, engine, doc):
        # Renaming first makes the delete miss its target.
        forward = _stack(engine, "rename $a//price as cost", "delete $a//price")
        assert "<cost>" in serialize(forward.run(doc))
        backward = _stack(engine, "delete $a//price", "rename $a//price as cost")
        assert "<cost>" not in serialize(backward.run(doc))

    def test_second_stage_sees_first_stage_inserts(self, engine, doc):
        stack = _stack(
            engine, "insert <flag/> into $a/part", "rename $a/part/flag as marker"
        )
        assert "<marker/>" in serialize(stack.run(doc))

    @pytest.mark.parametrize("method", ["topdown", "twopass", "naive", "sax"])
    def test_method_agnostic(self, engine, doc, method):
        stack = _stack(engine, "delete $a//price", "insert <new/> into $a/part")
        expected = stack.run(doc, method="copy")
        assert deep_equal(stack.run(doc, method=method), expected)
        assert deep_equal(
            expected,
            transform_copy_update(
                transform_copy_update(doc, stack.stages[0].query),
                stack.stages[1].query,
            ),
        )

    def test_a_frozen_document_matches_the_tree(self, engine, doc):
        stack = _stack(engine, "delete $a//price", "insert <new/> into $a/part")
        got = stack.run(freeze(doc))
        assert isinstance(got, FrozenDocument)
        assert deep_equal(thaw(got), stack.run(doc))

    def test_a_stack_with_no_stages_is_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            PreparedStack([])

    def test_stages_are_single_update_queries(self, engine):
        stack = engine.prepare_transform(
            'transform copy $a := doc("f") modify do delete $a/x return $a'
        ).then(_t("rename $a/y as z"))
        assert all(isinstance(stage, PreparedTransform) for stage in stack.stages)
        assert all(isinstance(stage.query, TransformQuery) for stage in stack.stages)
        assert stack.stages[0].query.doc == "f"
        assert [stage.query.update.kind for stage in stack.stages] == ["delete", "rename"]

    def test_then_leaves_its_receiver_alone(self, engine):
        first = _stack(engine, "delete $a//price", "rename $a//sname as vendor")
        longer = first.then(_t("delete $a//pname"))
        assert (len(first), len(longer)) == (2, 3)
        assert longer.stages[:2] == first.stages


class TestDescribe:
    def test_selecting_nfa_description(self):
        nfa = build_selecting_nfa(parse_xpath("//part[pname = 'kb']//part"))
        text = nfa.describe()
        assert "s0: start" in text
        assert "FINAL" in text
        assert "self-loop" in text
        assert "--ε-->" in text


class TestCLI:
    def test_transform_to_stdout(self, doc, tmp_path, capsys):
        in_path = str(tmp_path / "in.xml")
        write_file(doc, in_path)
        code = cli.main([
            "transform",
            "-q", 'transform copy $a := doc("f") modify do delete $a//price return $a',
            "-i", in_path,
        ])
        assert code == 0
        assert "price" not in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["topdown", "twopass", "naive", "copy", "sax"])
    def test_transform_methods_to_file(self, doc, tmp_path, method):
        in_path = str(tmp_path / "in.xml")
        out_path = str(tmp_path / f"out-{method}.xml")
        write_file(doc, in_path)
        code = cli.main([
            "transform",
            "-q", 'transform copy $a := doc("f") modify do delete $a//price return $a',
            "-i", in_path, "-o", out_path, "--method", method,
        ])
        assert code == 0
        assert "price" not in serialize(parse_file(out_path))

    def test_compose_plan_only(self, capsys):
        code = cli.main([
            "compose",
            "-t", 'transform copy $a := doc("f") modify do delete $a/a/b return $a',
            "-u", "for $x in a/b/c return $x",
            "--show-plan",
        ])
        assert code == 0
        assert "composed query" in capsys.readouterr().out

    def test_compose_with_input(self, tmp_path, capsys):
        in_path = str(tmp_path / "in.xml")
        write_file(parse("<db><a><b><c>1</c></b></a></db>"), in_path)
        code = cli.main([
            "compose",
            "-t", 'transform copy $a := doc("f") modify do delete $a/zzz return $a',
            "-u", "for $x in a/b/c return $x",
            "-i", in_path,
        ])
        assert code == 0
        assert "<c>1</c>" in capsys.readouterr().out

    def test_generate(self, tmp_path, capsys):
        out_path = str(tmp_path / "xmark.xml")
        code = cli.main(["generate", "--factor", "0.001", "-o", out_path])
        assert code == 0
        assert parse_file(out_path).label == "site"

    def test_explain(self, capsys):
        code = cli.main(["explain", "-p", "//part[pname = 'kb']"])
        assert code == 0
        out = capsys.readouterr().out
        assert "selecting NFA" in out and "filtering NFA" in out

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out


class TestCLIErrorBoundary:
    """User mistakes exit 2 with one line on stderr — never a traceback."""

    def _assert_clean_failure(self, capsys, code):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert "Traceback" not in err

    def test_explain_attribute_final_path(self, capsys):
        self._assert_clean_failure(capsys, cli.main(["explain", "-p", "//supplier/@id"]))

    def test_compose_attribute_final_user_path(self, tmp_path, capsys):
        in_path = str(tmp_path / "in.xml")
        write_file(parse("<db><a k='1'/></db>"), in_path)
        code = cli.main([
            "compose",
            "-t", 'transform copy $a := doc("f") modify do delete $a/zzz return $a',
            "-u", "for $x in a/@k return $x",
            "-i", in_path,
        ])
        self._assert_clean_failure(capsys, code)

    def test_transform_missing_input_file(self, tmp_path, capsys):
        code = cli.main([
            "transform",
            "-q", 'transform copy $a := doc("f") modify do delete $a//p return $a',
            "-i", str(tmp_path / "missing.xml"),
        ])
        self._assert_clean_failure(capsys, code)

    def test_compose_missing_input_file(self, tmp_path, capsys):
        code = cli.main([
            "compose",
            "-t", 'transform copy $a := doc("f") modify do delete $a/x return $a',
            "-u", "for $x in a return $x",
            "-i", str(tmp_path / "missing.xml"),
        ])
        self._assert_clean_failure(capsys, code)

    def test_transform_bad_query_syntax(self, tmp_path, capsys):
        in_path = str(tmp_path / "in.xml")
        write_file(parse("<db/>"), in_path)
        code = cli.main(["transform", "-q", "not a transform", "-i", in_path])
        self._assert_clean_failure(capsys, code)
