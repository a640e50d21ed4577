"""The static-analysis pass under ``tools/analysis``: annotation
grammar, the guarded-by lock checker, the layer verifier, the hot-path
lint and the runner.

Fixture modules with *known* violations are written to tmp_path and the
diagnostics asserted down to file:line; the final class is the
self-check — ``python -m tools.analysis`` must be clean on the shipped
tree, which is the exact gate CI runs.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from tools.analysis.annotations import FileAnnotations, normalize_lock
from tools.analysis.guards import check_guards
from tools.analysis.hotpath import check_hotpaths
from tools.analysis.layers import (
    DEFAULT_MANIFEST,
    check_layers,
    component_of,
    module_name,
    scan_imports,
)
from tools.analysis.runner import analyze_tree, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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

    def test_finding_location_and_dict(self):
        findings, _ = guard_findings(UNGUARDED_WRITE)
        assert findings[0].location() == "mod.py:14"
        assert findings[0].to_dict() == {
            "checker": "lock", "path": "mod.py", "line": 14,
            "code": "lock.unguarded-write", "subject": "Box.count",
            "message": findings[0].message,
        }

    def test_registry_name_never_assigned_is_stale(self):
        """A registry entry naming an attribute the class never stores
        to is a finding at the registry comment, and is neither proof
        nor exemption."""
        findings, declared = guard_findings(
            """
            import threading

            class Box:
                # guarded-by[gone, count]: self._lock
                # unguarded[vanished]: grow-only

                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0
            """
        )
        assert [(f.code, f.line, f.subject) for f in findings] == [
            ("lock.stale-declaration", 5, "Box.gone"),
            ("lock.stale-declaration", 6, "Box.vanished"),
        ]
        assert not any(f.waived for f in findings)
        assert declared[0].guarded == {"count": "self._lock"}
        assert declared[0].unguarded == {}

    def test_registry_name_assigned_outside_init_is_not_stale(self):
        findings, declared = guard_findings(
            """
            import threading

            class Box:
                # guarded-by[a, b]: self._lock

                def __init__(self):
                    self._lock = threading.Lock()

                def reset(self):
                    with self._lock:
                        self.a, self.b = 0, 0
            """
        )
        assert findings == []
        assert declared[0].guarded == {"a": "self._lock", "b": "self._lock"}


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

    def test_marker_above_a_decorator_attaches(self):
        findings, hot = hot_findings(
            """
            import functools

            # hot-path
            @functools.lru_cache(maxsize=None)
            def fast(x):
                return f"value={x}"

            @staticmethod  # hot-path
            def also(xs):
                return [x for x in xs]
            """
        )
        assert [(f.code, f.line) for f in findings] == [
            ("hotpath.fstring", 7), ("hotpath.comprehension", 11),
        ]
        assert hot == ["fast", "also"]

    def test_detached_marker_is_a_finding(self):
        """A blank line between the marker and its def, or a marker
        left behind in a body, attaches to nothing: the function goes
        unlinted, so the marker itself is reported."""
        findings, hot = hot_findings(
            """
            # hot-path

            def fast(x):
                return f"value={x}"

            def slow(x):
                # hot-path
                return x
            """
        )
        assert [(f.code, f.line) for f in findings] == [
            ("hotpath.detached-marker", 2), ("hotpath.detached-marker", 8),
        ]
        assert hot == []

    def test_marker_on_a_nested_hot_function_is_attached(self):
        findings, hot = hot_findings(
            """
            def outer(xs):  # hot-path
                def inner(x):  # hot-path
                    return x
                return inner
            """
        )
        assert findings == [] and hot == ["outer"]

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
# The runner
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
        code = main(["--root", violating_root])
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
        code = main(["--root", violating_root, "--json"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["analysis.files.scanned"] == 5
        assert {v["code"] for v in doc["violations"]} >= {
            "lock.unguarded-write", "hotpath.fstring",
        }

    def test_missing_root_is_a_usage_error(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path / "absent")]) == 2
        assert "not a directory" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The self-check: the shipped tree lints clean
# ----------------------------------------------------------------------


class TestShippedTree:
    def test_lint_is_clean_on_the_shipped_tree(self):
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

    def test_module_entry_point_runs_clean(self):
        """The CI gate: ``python -m tools.analysis`` from the repository
        root, no arguments, scans ``src/repro``."""
        done = subprocess.run(
            [sys.executable, "-m", "tools.analysis"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert "0 violation(s)" in done.stdout

    @staticmethod
    def _package_dir():
        return os.path.join(REPO_ROOT, "src", "repro")
