"""The ``repro store`` CLI: state-directory round trips and the
exit-code contract (2 + one-line message for user mistakes).

Each ``cli.main`` call simulates one process: state must survive purely
through the state directory, like real invocations.
"""

import json

import pytest

from repro import cli
from repro.store.state import MANIFEST_NAME

CATALOG = (
    "<db><part><pname>kb</pname>"
    "<supplier><sname>HP</sname><price>12</price><country>A</country></supplier>"
    "<supplier><sname>Dell</sname><price>20</price><country>B</country></supplier>"
    "</part></db>"
)

HIDE_A = (
    'transform copy $a := doc("db") modify do '
    "delete $a//supplier[country = 'A']/price return $a"
)
ANONYMIZE = (
    'transform copy $a := doc("public") modify do '
    "rename $a//sname as vendor return $a"
)


@pytest.fixture
def state(tmp_path):
    source = tmp_path / "catalog.xml"
    source.write_text(CATALOG, encoding="utf-8")
    state_dir = str(tmp_path / "store-state")
    assert cli.main(
        ["store", "load", "-n", "db", "-i", str(source), "--state", state_dir]
    ) == 0
    return state_dir


def _store(args, state_dir):
    return cli.main(["store"] + args + ["--state", state_dir])


class TestRoundTrip:
    def test_load_defview_query(self, state, capsys):
        assert _store(["defview", "-n", "public", "-b", "db", "-t", HIDE_A], state) == 0
        assert _store(
            ["defview", "-n", "partners", "-b", "public", "-t", ANONYMIZE], state
        ) == 0
        capsys.readouterr()
        assert _store(
            ["query", "-n", "partners", "-u", "for $x in part/supplier return $x"],
            state,
        ) == 0
        out = capsys.readouterr().out
        assert "<vendor>HP</vendor>" in out
        assert "<price>12</price>" not in out   # hidden by the public layer
        assert "<price>20</price>" in out       # country B stays visible

    def test_commit_bumps_version_and_changes_answers(self, state, capsys):
        assert _store(["defview", "-n", "public", "-b", "db", "-t", HIDE_A], state) == 0
        assert _store(
            [
                "commit", "-n", "db", "-t",
                'transform copy $a := doc("db") modify do '
                "delete $a//supplier[country = 'B'] return $a",
            ],
            state,
        ) == 0
        assert "now v2" in capsys.readouterr().out
        assert _store(
            ["query", "-n", "public", "-u", "for $x in part/supplier return $x"],
            state,
        ) == 0
        out = capsys.readouterr().out
        assert "Dell" not in out and "HP" in out

    def test_stage_query_staged_rollback(self, state, capsys):
        stage_transform = (
            'transform copy $a := doc("db") modify do '
            "delete $a//price return $a"
        )
        assert _store(["stage", "-n", "db", "-t", stage_transform], state) == 0
        capsys.readouterr()
        assert _store(
            ["query", "-n", "db", "-u", "for $x in part/supplier return $x",
             "--staged"],
            state,
        ) == 0
        assert "price" not in capsys.readouterr().out
        assert _store(
            ["query", "-n", "db", "-u", "for $x in part/supplier return $x"], state
        ) == 0
        assert "price" in capsys.readouterr().out  # nothing committed
        assert _store(["rollback", "-n", "db"], state) == 0
        capsys.readouterr()
        # Staging area now empty: a bare commit is a true no-op that
        # leaves the version where it was.
        assert _store(["commit", "-n", "db"], state) == 0
        assert "now v1" in capsys.readouterr().out

    def test_stat(self, state, capsys):
        assert _store(["defview", "-n", "public", "-b", "db", "-t", HIDE_A], state) == 0
        capsys.readouterr()
        assert _store(["stat"], state) == 0
        out = capsys.readouterr().out
        assert "document 'db': v1" in out
        assert "view 'public': over 'db'" in out

    def test_stat_after_a_commit_reports_one_version(self, state, capsys):
        # A document is one resident arena: stat reports the current
        # version and its arena, and no version chain in either form.
        assert _store(
            ["commit", "-n", "db", "-t",
             'transform copy $a := doc("db") modify do '
             "rename $a//sname as vendor return $a"],
            state,
        ) == 0
        capsys.readouterr()
        assert _store(["stat"], state) == 0
        out = capsys.readouterr().out
        assert "document 'db': v2" in out and "arena snapshot:" in out
        assert "chain" not in out.lower()
        assert _store(["stat", "--json"], state) == 0
        doc = json.loads(capsys.readouterr().out)["store"]["documents"]["db"]
        assert doc["version"] == 2 and doc["arena"]["nodes"] > 0
        assert "chain" not in doc and "chain_length" not in doc

    def test_manifest_is_json(self, state, tmp_path):
        manifest = json.loads(
            (tmp_path / "store-state" / MANIFEST_NAME).read_text(encoding="utf-8")
        )
        assert manifest["documents"]["db"]["version"] == 1

    def test_stat_on_empty_store(self, tmp_path, capsys):
        assert _store(["stat"], str(tmp_path / "missing")) == 0
        assert "empty" in capsys.readouterr().out


class TestExitCodes:
    def test_unknown_target(self, state, capsys):
        assert _store(
            ["query", "-n", "ghost", "-u", "for $x in a return $x"], state
        ) == 2
        assert "repro: unknown document or view 'ghost'" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        code = cli.main(
            ["store", "load", "-n", "db", "-i", str(tmp_path / "no.xml"),
             "--state", str(tmp_path / "s")]
        )
        assert code == 2
        assert "repro:" in capsys.readouterr().err

    def test_bad_transform_syntax(self, state, capsys):
        assert _store(
            ["defview", "-n", "v", "-b", "db", "-t", "not a transform"], state
        ) == 2
        assert "repro:" in capsys.readouterr().err

    def test_stage_against_view_names_the_document(self, state, capsys):
        assert _store(["defview", "-n", "public", "-b", "db", "-t", HIDE_A], state) == 0
        assert _store(
            ["stage", "-n", "public", "-t", HIDE_A], state
        ) == 2
        err = capsys.readouterr().err
        assert "is a view" in err and "'db'" in err

    def test_duplicate_view(self, state, capsys):
        assert _store(["defview", "-n", "public", "-b", "db", "-t", HIDE_A], state) == 0
        assert _store(["defview", "-n", "public", "-b", "db", "-t", HIDE_A], state) == 2
        assert "already in use" in capsys.readouterr().err
