"""The static-analysis pass itself: annotation grammar, the guarded-by
lock checker, the layer verifier, the hot-path lint, the runner/CLI and
the baseline machinery.

Fixture modules with *known* violations are written to tmp_path and the
diagnostics asserted down to file:line; the final class is the
self-check — ``repro lint`` must be clean on the shipped tree, which is
the exact gate CI runs.
"""

import json
import os
import textwrap

import pytest

from repro.analysis import (
    DEFAULT_MANIFEST,
    analyze_tree,
    check_guards,
    check_hotpaths,
    check_layers,
    load_baseline,
    main,
    write_baseline,
)
from repro.analysis.annotations import FileAnnotations, normalize_lock
from repro.analysis.layers import component_of, module_name, scan_imports


def guard_findings(source: str, path: str = "mod.py"):
    return check_guards(path, textwrap.dedent(source))


def hot_findings(source: str, path: str = "mod.py"):
    return check_hotpaths(path, textwrap.dedent(source))


# ----------------------------------------------------------------------
# Annotation grammar
# ----------------------------------------------------------------------


class TestAnnotations:
    def test_normalize_lock_drops_whitespace(self):
        assert normalize_lock("self. _lock") == "self._lock"
        assert normalize_lock("self._lock") == "self._lock"

    def test_trailing_and_standalone_forms(self):
        ann = FileAnnotations(
            "# guarded-by[a, b]: self._lock\n"
            "x = 1  # guarded-by: self._lock\n"
            "# holds: self._lock\n"
            "y = 2\n"
        )
        registry = ann.by_line[1]
        assert registry.standalone and registry.names == ("a", "b")
        trailing = ann.at(2, "guarded-by")
        assert trailing is not None and trailing.names is None
        # `attached` finds the standalone holds on the line above y = 2.
        assert ann.attached(4, "holds").lock == "self._lock"

    def test_registry_unguarded_never_waives(self):
        ann = FileAnnotations("# unguarded[a]: grow-only\nx = 1  # unguarded: ok\n")
        assert ann.waiver(1) is None
        assert ann.waiver(2).reason == "ok"


# ----------------------------------------------------------------------
# The guarded-by lock checker
# ----------------------------------------------------------------------


UNGUARDED_WRITE = """
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0  # guarded-by: self._lock

        def good(self):
            with self._lock:
                self.count += 1

        def bad(self):
            self.count += 1
"""


class TestGuardChecker:
    def test_unguarded_write_exact_location(self):
        findings, _ = guard_findings(UNGUARDED_WRITE)
        # An augmented assignment's target carries one Store context,
        # so the bare increment is a single write finding.
        assert [f.code for f in findings] == ["lock.unguarded-write"]
        assert findings[0].line == 14
        assert all(f.subject == "Box.count" for f in findings)
        assert all(f.path == "mod.py" for f in findings)

    def test_unguarded_read_outside_with(self):
        findings, _ = guard_findings(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []  # guarded-by: self._lock

                def peek(self):
                    return len(self.items)
            """
        )
        assert [f.code for f in findings] == ["lock.unguarded-read"]
        assert findings[0].line == 10

    def test_with_block_satisfies_the_guard(self):
        findings, _ = guard_findings(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []  # guarded-by: self._lock

                def read(self):
                    with self._lock:
                        return list(self.items)
            """
        )
        assert findings == []

    def test_wrong_lock_does_not_satisfy(self):
        findings, _ = guard_findings(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._other = threading.Lock()
                    self.items = []  # guarded-by: self._lock

                def read(self):
                    with self._other:
                        return list(self.items)
            """
        )
        assert [f.code for f in findings] == ["lock.unguarded-read"]

    def test_holds_annotation_exempts_method(self):
        findings, _ = guard_findings(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0  # guarded-by: self._lock

                def _bump(self):  # holds: self._lock
                    self.count += 1
            """
        )
        assert findings == []

    def test_lambda_resets_held_locks(self):
        """The probe-lambda bug class: a lambda built inside `with`
        runs later, when the lock is long released."""
        findings, _ = guard_findings(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0  # guarded-by: self._lock

                def probe(self):
                    with self._lock:
                        return lambda: self.count
            """
        )
        assert [f.code for f in findings] == ["lock.unguarded-read"]
        assert findings[0].line == 11

    def test_nested_def_resets_held_locks(self):
        findings, _ = guard_findings(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0  # guarded-by: self._lock

                def deferred(self):
                    with self._lock:
                        def later():
                            return self.count
                        return later
            """
        )
        assert [f.code for f in findings] == ["lock.unguarded-read"]

    def test_registry_form_and_init_exemption(self):
        findings, declared = guard_findings(
            """
            import threading

            class Box:
                # guarded-by[a, b]: self._lock

                def __init__(self):
                    self._lock = threading.Lock()
                    self.a = 0
                    self.b = 0

                def read(self):
                    return self.a
            """
        )
        assert [f.code for f in findings] == ["lock.unguarded-read"]
        assert findings[0].subject == "Box.a"
        assert declared[0].guarded == {"a": "self._lock", "b": "self._lock"}

    def test_inline_waiver_reported_not_gating(self):
        findings, _ = guard_findings(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0  # guarded-by: self._lock

                def racy(self):
                    return self.count  # unguarded: monitoring only
            """
        )
        assert len(findings) == 1
        assert findings[0].waived and findings[0].reason == "monitoring only"

    def test_finding_key_is_line_free(self):
        findings, _ = guard_findings(UNGUARDED_WRITE)
        assert findings[0].key() == "lock:mod.py:lock.unguarded-write:Box.count"


# ----------------------------------------------------------------------
# The hot-path lint
# ----------------------------------------------------------------------


class TestHotPathLint:
    def test_fstring_rejected(self):
        findings, hot = hot_findings(
            """
            # hot-path
            def fast(x):
                return f"value={x}"
            """
        )
        assert [f.code for f in findings] == ["hotpath.fstring"]
        assert findings[0].line == 4
        assert hot == ["fast"]

    def test_comprehension_and_generator_rejected(self):
        findings, _ = hot_findings(
            """
            def fast(xs):  # hot-path
                return [x for x in xs], (x for x in xs)
            """
        )
        assert sorted(f.code for f in findings) == [
            "hotpath.comprehension", "hotpath.generator",
        ]

    def test_literals_flagged_only_inside_loops(self):
        findings, _ = hot_findings(
            """
            def fast(xs):  # hot-path
                out = []
                for x in xs:
                    out.append({"x": x})
                return out
            """
        )
        assert [f.code for f in findings] == ["hotpath.literal"]
        assert findings[0].line == 5

    def test_getattr_default_and_lock_rejected(self):
        findings, _ = hot_findings(
            """
            def fast(self, node):  # hot-path
                with self._lock:
                    return getattr(node, "label", None)
            """
        )
        assert sorted(f.code for f in findings) == [
            "hotpath.getattr-default", "hotpath.lock",
        ]

    def test_acquire_and_format_rejected(self):
        findings, _ = hot_findings(
            """
            def fast(self, x):  # hot-path
                self.mutex.acquire()
                return "{}".format(x)
            """
        )
        assert sorted(f.code for f in findings) == [
            "hotpath.format", "hotpath.lock",
        ]

    def test_unmarked_functions_ignored(self):
        findings, hot = hot_findings(
            """
            def slow(x):
                return f"{x}" + "".join(str(i) for i in range(x))
            """
        )
        assert findings == [] and hot == []

    def test_clean_hot_function_passes(self):
        findings, hot = hot_findings(
            """
            def fast(sym, end, moves, context, limit):  # hot-path
                out = []
                i = context + 1
                while i < limit:
                    s = sym[i]
                    if s < 0:
                        i += 1
                        continue
                    move = moves.get(s)
                    if move is None:
                        i = end[i]
                        continue
                    out.append(i)
                    i += 1
                return out
            """
        )
        assert findings == [] and hot == ["fast"]


# ----------------------------------------------------------------------
# The layer verifier
# ----------------------------------------------------------------------


def write_tree(root, files):
    for rel, source in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(textwrap.dedent(source))


def layer_check(root, manifest):
    modules = {}
    known = set()
    paths = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                rel = rel.replace(os.sep, "/")
                paths.append(rel)
                known.add(module_name(rel))
    for rel in paths:
        with open(os.path.join(root, rel), "r", encoding="utf-8") as handle:
            source = handle.read()
        module = module_name(rel)
        modules[module] = (rel, scan_imports(module, source, known))
    return check_layers(modules, manifest)


class TestLayerVerifier:
    MANIFEST = (("low",), ("high",))

    def test_module_names_and_components(self):
        assert module_name("store/views.py") == "repro.store.views"
        assert module_name("lru.py") == "repro.lru"
        assert module_name("store/__init__.py") == "repro.store"
        assert component_of("repro.store.views") == "store"
        assert component_of("repro") == "repro"

    def test_back_edge_flagged_with_line(self, tmp_path):
        root = str(tmp_path)
        write_tree(root, {
            "low/__init__.py": "",
            "low/a.py": "import os\n\nimport repro.high.b\n",
            "high/__init__.py": "",
            "high/b.py": "",
        })
        findings = layer_check(root, self.MANIFEST)
        assert [f.code for f in findings] == ["layers.back-edge"]
        assert findings[0].path == "low/a.py"
        assert findings[0].line == 3
        assert findings[0].subject == "low -> high"

    def test_lazy_back_edge_still_flagged(self, tmp_path):
        root = str(tmp_path)
        write_tree(root, {
            "low/__init__.py": "",
            "low/a.py": "def f():\n    from repro.high import b\n    return b\n",
            "high/__init__.py": "",
            "high/b.py": "",
        })
        findings = layer_check(root, self.MANIFEST)
        assert [f.code for f in findings] == ["layers.back-edge"]
        assert findings[0].line == 2

    def test_top_level_cycle_detected(self, tmp_path):
        root = str(tmp_path)
        write_tree(root, {
            "low/__init__.py": "",
            "low/a.py": "import repro.low.b\n",
            "low/b.py": "import repro.low.a\n",
        })
        findings = layer_check(root, (("low",),))
        assert [f.code for f in findings] == ["layers.cycle"]
        assert "repro.low.a -> repro.low.b" in findings[0].subject or \
            "repro.low.b -> repro.low.a" in findings[0].subject

    def test_lazy_import_breaks_the_cycle(self, tmp_path):
        root = str(tmp_path)
        write_tree(root, {
            "low/__init__.py": "",
            "low/a.py": "import repro.low.b\n",
            "low/b.py": "def f():\n    import repro.low.a\n    return repro.low.a\n",
        })
        assert layer_check(root, (("low",),)) == []

    def test_from_import_resolves_to_submodule(self, tmp_path):
        """`from repro.low import b` is an edge onto repro.low.b, not
        onto the package __init__ (the false-cycle trap)."""
        root = str(tmp_path)
        write_tree(root, {
            "low/__init__.py": "from repro.low import a\n",
            "low/a.py": "",
            "low/b.py": "from repro.low import a\n",
        })
        assert layer_check(root, (("low",),)) == []

    def test_unknown_component_flagged(self, tmp_path):
        root = str(tmp_path)
        write_tree(root, {
            "mystery/__init__.py": "", "mystery/a.py": "",
            "low/__init__.py": "", "high/__init__.py": "",
        })
        findings = layer_check(root, self.MANIFEST)
        assert {f.code for f in findings} == {"layers.unknown-component"}

    def test_stale_component_flagged(self, tmp_path):
        """A manifest entry no module belongs to (a deleted package
        still listed) is reported at its layer, not silently kept."""
        root = str(tmp_path)
        write_tree(root, {"low/__init__.py": "", "low/a.py": ""})
        findings = layer_check(root, self.MANIFEST)
        assert [(f.code, f.path, f.line, f.subject) for f in findings] == [
            ("layers.stale-component", "<manifest>", 2, "high")
        ]

    def test_transform_sits_below_xquery(self, tmp_path):
        """The user-query evaluators call into the transform algorithms
        (embedded ``topDown``); the transform package never reaches up
        into ``repro.xquery``."""
        root = str(tmp_path)
        write_tree(root, {
            "transform/__init__.py": "",
            "transform/a.py": "from repro.xquery import ast\n",
            "xquery/__init__.py": "",
            "xquery/ast.py": "",
            "xquery/b.py": "import repro.transform.a\n",
        })
        findings = layer_check(root, DEFAULT_MANIFEST)
        # The fixture holds two of the shipped components; the others
        # are reported stale, which is not what this test is about.
        assert [(f.code, f.path, f.subject) for f in findings
                if f.code != "layers.stale-component"] == [
            ("layers.back-edge", "transform/a.py", "transform -> xquery")
        ]

    def test_shipped_manifest_covers_shipped_tree(self):
        components = {layer_component
                      for layer in DEFAULT_MANIFEST
                      for layer_component in layer}
        package_dir = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src", "repro",
        )
        for entry in sorted(os.listdir(package_dir)):
            if entry == "__pycache__" or entry.startswith("."):
                continue
            name = entry[:-3] if entry.endswith(".py") else entry
            if name == "__init__":
                name = "repro"
            assert name in components, f"{name} missing from DEFAULT_MANIFEST"


# ----------------------------------------------------------------------
# The runner, CLI and baseline machinery
# ----------------------------------------------------------------------


VIOLATING_TREE = {
    "__init__.py": "",
    "beta/__init__.py": "",
    "beta/box.py": """
        import threading

        import repro.alpha.hot  # the back-edge (beta is below alpha)


        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0  # guarded-by: self._lock

            def bad(self):
                self.count += 1
    """,
    "alpha/__init__.py": "",
    "alpha/hot.py": """
        def fast(x):  # hot-path
            return f"bad {x}"
    """,
}

VIOLATING_MANIFEST = (("beta",), ("alpha",), ("repro",))


@pytest.fixture
def violating_root(tmp_path):
    root = str(tmp_path / "pkg")
    write_tree(root, VIOLATING_TREE)
    return root


class TestRunner:
    def test_each_violation_class_reported(self, violating_root):
        report = analyze_tree(violating_root, manifest=VIOLATING_MANIFEST)
        codes = sorted({f.code for f in report.violations})
        assert codes == [
            "hotpath.fstring",
            "layers.back-edge",
            "lock.unguarded-write",
        ]
        assert not report.ok
        summary = report.summary()
        assert summary["analysis.lock.violations"] == 1
        assert summary["analysis.layers.violations"] == 1
        assert summary["analysis.hotpath.violations"] == 1
        assert summary["analysis.files.scanned"] == 5

    def test_cli_exits_nonzero_and_reports_locations(self, violating_root, capsys):
        code = main(["--root", violating_root, "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 1
        assert "beta/box.py:13" in out      # the unguarded increment
        assert "alpha/hot.py:3" in out      # the f-string
        # The CLI runs the shipped manifest, which has never heard of
        # the fixture packages: the layering failure surfaces as
        # unknown-component findings (the back-edge itself is asserted
        # against the fixture manifest via analyze_tree above).
        assert "component 'beta'" in out
        assert "component 'alpha'" in out

    def test_cli_json_mode(self, violating_root, capsys):
        code = main(["--root", violating_root, "--no-baseline", "--json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["analysis.files.scanned"] == 5
        assert {v["code"] for v in doc["violations"]} >= {
            "lock.unguarded-write", "hotpath.fstring",
        }

    def test_baseline_suppresses_exactly_the_accepted_keys(
        self, violating_root, tmp_path, capsys
    ):
        baseline = str(tmp_path / "baseline.json")
        # Accept everything currently failing...
        code = main(["--root", violating_root, "--no-baseline",
                     "--write-baseline", baseline])
        assert code == 0
        accepted = load_baseline(baseline)
        assert accepted  # non-empty
        # ...and the gate goes green without touching the tree.
        capsys.readouterr()
        code = main(["--root", violating_root, "--baseline", baseline])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 violation(s)" in out

    def test_corrupt_baseline_is_a_usage_error(self, violating_root, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 99, "accept": []}')
        assert main(["--root", violating_root, "--baseline", str(bad)]) == 2

    def test_write_baseline_round_trips(self, violating_root, tmp_path):
        from repro.analysis.findings import Report

        report = analyze_tree(violating_root, manifest=VIOLATING_MANIFEST)
        path = str(tmp_path / "b.json")
        count = write_baseline(path, report, note="fixture")
        assert count == len({f.key() for f in report.violations})
        report2 = analyze_tree(violating_root, manifest=VIOLATING_MANIFEST)
        report2.apply_baseline(load_baseline(path))
        assert report2.ok
        assert report2.baseline_suppressed > 0
        assert isinstance(report2, Report)


# ----------------------------------------------------------------------
# The self-check: the shipped tree lints clean
# ----------------------------------------------------------------------


class TestShippedTree:
    def test_repro_lint_is_clean_on_the_shipped_tree(self):
        report = analyze_tree(self._package_dir())
        assert report.violations == [], report.to_text()

    def test_shipped_annotations_have_real_coverage(self):
        """The inventory floor: if a refactor silently drops the
        annotations, this fails before the checkers go blind."""
        report = analyze_tree(self._package_dir())
        guarded = {(e["cls"], e["attr"]) for e in report.guarded_attrs}
        assert ("LRUCache", "_data") in guarded
        assert ("ViewStore", "arena_reads") in guarded
        # Admission state: the closed flag, the in-flight table and
        # the waiting count change together under one lock.
        for attr in ("_closed", "_flights", "_waiting"):
            assert ("QueryService", attr) in guarded
        assert ("StoredDocument", "version") in guarded
        assert ("MetricsRegistry", "_instruments") in guarded
        assert len(report.guarded_attrs) >= 30
        hot = set(report.hot_functions)
        assert "repro.automata.arena_run.select_indices" in hot
        assert "repro.automata.dfa.LazyDFA.step" in hot
        assert "repro.obs.registry._NullInstrument.inc" in hot
        assert len(report.hot_functions) >= 15
        # Every declared-unguarded exemption carries a reason.
        assert all(e["reason"] for e in report.declared_unguarded)

    def test_cli_subcommand_runs_clean(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    @staticmethod
    def _package_dir():
        import repro

        return os.path.dirname(os.path.abspath(repro.__file__))
