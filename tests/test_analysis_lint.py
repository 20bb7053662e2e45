"""The lint engine: every rule fires on its fixture, suppressions work,
the CLI behaves, and — the meta-test — src/repro itself is clean."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.engine import (
    LintSyntaxError,
    lint_paths,
    lint_source,
    parse_suppressions,
)
from repro.analysis.lint import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main
from repro.analysis.rules import all_rule_ids

SRC_ROOT = os.path.join(os.path.dirname(__file__), "..", "src", "repro")

# ----------------------------------------------------------------------
# Fixture corpus: one known-bad snippet per rule.  Each entry is
# (rule, path-within-root, source, expected line of the finding).
# Sources deliberately include `from __future__ import annotations`
# unless the future-annotations rule itself is under test.
# ----------------------------------------------------------------------
FUTURE = "from __future__ import annotations\n"

CORPUS = [
    (
        "bare-assert",
        "core/snippet.py",
        FUTURE + textwrap.dedent(
            """
            def f(x):
                assert x is not None
                return x
            """
        ),
        4,
    ),
    (
        "no-recursion",
        "graph/snippet.py",
        FUTURE + textwrap.dedent(
            """
            def dfs(adj, u, seen):
                seen.add(u)
                for v in adj[u]:
                    if v not in seen:
                        dfs(adj, v, seen)
            """
        ),
        7,
    ),
    (
        "no-recursion",
        "flow/method_snippet.py",
        FUTURE + textwrap.dedent(
            """
            class Solver:
                def push(self, u):
                    return self.push(u)
            """
        ),
        5,
    ),
    (
        "quadratic-list-op",
        "core/pop_snippet.py",
        FUTURE + textwrap.dedent(
            """
            def drain(queue):
                while queue:
                    queue.pop(0)
            """
        ),
        5,
    ),
    (
        "quadratic-list-op",
        "core/membership_snippet.py",
        FUTURE + textwrap.dedent(
            """
            def scan(items):
                seen = []
                for item in items:
                    if item in seen:
                        continue
                    seen.append(item)
                return seen
            """
        ),
        6,
    ),
    (
        "float-equality",
        "core/float_snippet.py",
        FUTURE + textwrap.dedent(
            """
            def check(weight):
                return weight == 1.0
            """
        ),
        4,
    ),
    (
        "future-annotations",
        "core/future_snippet.py",
        '"""Module without the future import."""\n\nVALUE = 1\n',
        1,
    ),
    (
        "numpy-truthiness",
        "core/numpy_snippet.py",
        FUTURE + textwrap.dedent(
            """
            import numpy as np

            def overlap(a, b):
                common = np.intersect1d(a, b)
                if common:
                    return True
                return False
            """
        ),
        7,
    ),
    (
        "perf-counter-outside-obs",
        "bench/clock_snippet.py",
        FUTURE + textwrap.dedent(
            """
            import time

            def stamp():
                return time.perf_counter()
            """
        ),
        6,
    ),
    (
        "perf-counter-outside-obs",
        "core/clock_import_snippet.py",
        FUTURE + textwrap.dedent(
            """
            from time import perf_counter

            def now():
                return perf_counter()
            """
        ),
        3,
    ),
    (
        "multiprocessing-outside-parallel",
        "index/pool_snippet.py",
        FUTURE + textwrap.dedent(
            """
            import multiprocessing

            def fanout(fn, items):
                with multiprocessing.Pool() as pool:
                    return pool.map(fn, items)
            """
        ),
        3,
    ),
    (
        "multiprocessing-outside-parallel",
        "core/futures_snippet.py",
        FUTURE + textwrap.dedent(
            """
            from concurrent.futures import ProcessPoolExecutor

            def fanout(fn, items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(fn, items))
            """
        ),
        3,
    ),
    (
        "threading-outside-serve",
        "index/lock_snippet.py",
        FUTURE + textwrap.dedent(
            """
            import threading

            LOCK = threading.Lock()
            """
        ),
        3,
    ),
    (
        "threading-outside-serve",
        "core/thread_snippet.py",
        FUTURE + textwrap.dedent(
            """
            from threading import Thread

            def spawn(fn):
                return Thread(target=fn)
            """
        ),
        3,
    ),
    (
        "threading-outside-serve",
        "core/tpe_snippet.py",
        FUTURE + textwrap.dedent(
            """
            from concurrent.futures import ThreadPoolExecutor

            def fanout(fn, items):
                with ThreadPoolExecutor(max_workers=2) as pool:
                    return list(pool.map(fn, items))
            """
        ),
        3,
    ),
    (
        "threading-outside-serve",
        "index/queue_snippet.py",
        FUTURE + textwrap.dedent(
            """
            import queue

            PENDING = queue.Queue()
            """
        ),
        3,
    ),
]


@pytest.mark.parametrize(
    "rule,relpath,source,line",
    CORPUS,
    ids=[f"{rule}:{path}" for rule, path, _, line in CORPUS],
)
class TestCorpus:
    def test_rule_fires_at_expected_line(self, rule, relpath, source, line):
        findings = lint_source(source, path=relpath, root=None)
        matching = [f for f in findings if f.rule == rule]
        assert matching, f"{rule} did not fire on its fixture"
        assert [f.line for f in matching] == [line]
        # No *other* rule may fire on the fixture: corpus snippets are
        # single-defect by construction.
        assert {f.rule for f in findings} == {rule}

    def test_suppression_comment_silences(self, rule, relpath, source, line):
        lines = source.splitlines()
        lines[line - 1] += f"  # repro-lint: ignore[{rule}]"
        suppressed = "\n".join(lines) + "\n"
        findings = lint_source(suppressed, path=relpath, root=None)
        assert [f for f in findings if f.rule == rule] == []

    def test_bare_suppression_silences_everything(self, rule, relpath, source, line):
        lines = source.splitlines()
        lines[line - 1] += "  # repro-lint: ignore"
        suppressed = "\n".join(lines) + "\n"
        findings = lint_source(suppressed, path=relpath, root=None)
        assert [f for f in findings if f.line == line] == []


class TestRuleDetails:
    def test_recursion_rule_scoped_to_traversal_dirs(self):
        source = FUTURE + "def f(x):\n    return f(x - 1)\n"
        # Inside bench/ the rule does not apply ...
        assert lint_source(source, path="bench/snippet.py") == []
        # ... inside kecc/ it does.
        findings = lint_source(source, path="kecc/snippet.py")
        assert [f.rule for f in findings] == ["no-recursion"]

    def test_threading_allowed_inside_serve(self):
        source = FUTURE + (
            "import threading\n"
            "from threading import Barrier\n"
        )
        # repro.serve is the sanctioned home of threads and locks ...
        assert lint_source(source, path="serve/publisher.py") == []
        # ... everywhere else both import forms are rejected.
        findings = lint_source(source, path="index/snippet.py")
        assert [f.rule for f in findings] == [
            "threading-outside-serve",
            "threading-outside-serve",
        ]

    def test_multiprocessing_allowed_inside_parallel(self):
        source = FUTURE + (
            "import multiprocessing\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
        )
        # repro.parallel is the sanctioned home of process pools, and
        # repro.serve hosts the sharded worker tier ...
        assert lint_source(source, path="parallel/executor.py") == []
        assert lint_source(source, path="serve/shard.py") == []
        # ... everywhere else both import forms are rejected.
        findings = lint_source(source, path="index/snippet.py")
        assert [f.rule for f in findings] == [
            "multiprocessing-outside-parallel",
            "multiprocessing-outside-parallel",
        ]

    def test_thread_pools_allowed_inside_serve_and_parallel(self):
        source = FUTURE + (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "import queue\n"
        )
        # Thread pools and queues are sanctioned in serve *and*
        # parallel (the multiprocessing rule defers ThreadPoolExecutor
        # to the threading rule, so serve stays clean too) ...
        assert lint_source(source, path="serve/workers.py") == []
        assert lint_source(source, path="parallel/pool.py") == []
        # ... and rejected everywhere else.
        findings = lint_source(source, path="index/snippet.py")
        assert [f.rule for f in findings] == [
            "threading-outside-serve",
            "threading-outside-serve",
        ]

    def test_thread_pool_attribute_flagged_outside_serve(self):
        source = FUTURE + (
            "import concurrent.futures\n"
            "def fanout():\n"
            "    return concurrent.futures.ThreadPoolExecutor(max_workers=2)\n"
        )
        findings = lint_source(source, path="index/snippet.py")
        # The bare import trips the process-pool rule; the attribute
        # use additionally trips the thread-pool check.
        assert "threading-outside-serve" in {f.rule for f in findings}
        assert any(
            f.rule == "threading-outside-serve" and f.line == 4
            for f in findings
        )

    def test_pop_zero_outside_loop_not_flagged(self):
        source = FUTURE + "def f(xs):\n    return xs.pop(0)\n"
        assert lint_source(source, path="core/x.py") == []

    def test_set_membership_in_loop_not_flagged(self):
        source = FUTURE + textwrap.dedent(
            """
            def scan(items):
                seen = set()
                for item in items:
                    if item in seen:
                        continue
                    seen.add(item)
            """
        )
        assert lint_source(source, path="core/x.py") == []

    def test_numpy_any_guard_not_flagged(self):
        source = FUTURE + textwrap.dedent(
            """
            import numpy as np

            def overlap(a, b):
                common = np.intersect1d(a, b)
                if common.any():
                    return True
                if len(common):
                    return True
                return False
            """
        )
        assert lint_source(source, path="core/x.py") == []

    def test_float_comparison_without_eq_not_flagged(self):
        source = FUTURE + "def f(x):\n    return x < 1.5\n"
        assert lint_source(source, path="core/x.py") == []

    def test_integer_equality_not_flagged(self):
        source = FUTURE + "def f(x):\n    return x == 3\n"
        assert lint_source(source, path="core/x.py") == []

    def test_perf_counter_allowed_inside_obs(self):
        source = FUTURE + "from time import perf_counter as monotonic\n"
        assert lint_source(source, path="obs/timing.py") == []
        findings = lint_source(source, path="bench/reporting.py")
        assert [f.rule for f in findings] == ["perf-counter-outside-obs"]

    def test_time_time_not_flagged(self):
        # Only the perf_counter clocks are claimed by obs; time.time and
        # time.sleep remain fine anywhere.
        source = FUTURE + "import time\n\nSTAMP = time.time()\n"
        assert lint_source(source, path="core/x.py") == []

    def test_empty_module_needs_no_future_import(self):
        assert lint_source("", path="core/empty.py") == []

    def test_syntax_error_reported(self):
        with pytest.raises(LintSyntaxError):
            lint_source("def broken(:\n", path="core/broken.py")


class TestSuppressionParsing:
    def test_named_rules(self):
        sup = parse_suppressions("x = 1  # repro-lint: ignore[a, b]\n")
        assert sup == {1: frozenset({"a", "b"})}

    def test_bare_form(self):
        sup = parse_suppressions("x = 1  # repro-lint: ignore\n")
        assert 1 in sup and "*" in sup[1]

    def test_unrelated_comments_ignored(self):
        assert parse_suppressions("x = 1  # type: ignore\n") == {}


class TestMetaLint:
    def test_src_repro_is_clean(self):
        findings = lint_paths([SRC_ROOT])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_lint_walks_every_package(self):
        # Guard against the walker silently skipping directories: the
        # run must parse at least as many modules as the repo ships.
        from repro.analysis.engine import iter_python_files

        files = iter_python_files([SRC_ROOT])
        assert len(files) > 40
        assert any("analysis" in f for f in files)


class TestCLI:
    def _write_fixture(self, tmp_path):
        bad = tmp_path / "core"
        bad.mkdir()
        target = bad / "bad.py"
        target.write_text(FUTURE + "def f(x):\n    assert x\n")
        return tmp_path

    def test_clean_run_exits_zero(self, capsys):
        assert main([os.path.join(SRC_ROOT, "errors.py")]) == EXIT_CLEAN
        assert capsys.readouterr().out == ""

    def test_findings_exit_one_text(self, tmp_path, capsys):
        root = self._write_fixture(tmp_path)
        assert main([str(root)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "[bare-assert]" in out and "bad.py" in out

    def test_findings_json(self, tmp_path, capsys):
        root = self._write_fixture(tmp_path)
        assert main(["--format=json", str(root)]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "bare-assert"
        assert payload[0]["line"] == 3

    def test_rule_subset(self, tmp_path, capsys):
        root = self._write_fixture(tmp_path)
        assert main(["--rules", "float-equality", str(root)]) == EXIT_CLEAN
        assert main(["--rules", "bare-assert", str(root)]) == EXIT_FINDINGS
        capsys.readouterr()

    def test_unknown_rule_rejected(self, capsys):
        assert main(["--rules", "nonsense", "."]) == EXIT_ERROR
        assert "unknown rules" in capsys.readouterr().err

    def test_no_paths_rejected(self, capsys):
        assert main([]) == EXIT_ERROR
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in all_rule_ids():
            assert rule_id in out

    @staticmethod
    def _run_module(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_module_invocation(self):
        proc = self._run_module(SRC_ROOT)
        assert proc.returncode == EXIT_CLEAN, proc.stdout + proc.stderr

    def test_immutability_flag_removed(self):
        # Published serving state is read-only by construction
        # (tests/test_read_only_state.py), so the frozen-* rule set and
        # its flag are gone: argparse rejects it as a usage error.
        proc = self._run_module("--immutability", SRC_ROOT)
        assert proc.returncode == EXIT_ERROR
        assert "--immutability" in proc.stderr


class TestStaleSuppressionAudit:
    """The engine-level audit of ``# repro-lint: ignore`` comments."""

    STALE_NAMED = FUTURE + "x = 1  # repro-lint: ignore[bare-assert]\n"
    STALE_BARE = FUTURE + "x = 1  # repro-lint: ignore\n"
    USED = FUTURE + textwrap.dedent(
        """
        def f(x):
            assert x  # repro-lint: ignore[bare-assert]
        """
    )

    def test_stale_named_suppression_flagged(self):
        findings = lint_source(self.STALE_NAMED, path="core/mod.py")
        assert [f.rule for f in findings] == ["stale-suppression"]
        assert findings[0].line == 2
        assert findings[0].severity == "warning"
        assert "'bare-assert' never fires" in findings[0].message

    def test_stale_bare_suppression_flagged_under_full_registry(self):
        findings = lint_source(self.STALE_BARE, path="core/mod.py")
        assert [f.rule for f in findings] == ["stale-suppression"]
        assert "bare '# repro-lint: ignore'" in findings[0].message

    def test_used_suppression_not_flagged(self):
        assert lint_source(self.USED, path="core/mod.py") == []

    def test_used_bare_suppression_not_flagged(self):
        src = FUTURE + textwrap.dedent(
            """
            def f(x):
                assert x  # repro-lint: ignore
            """
        )
        assert lint_source(src, path="core/mod.py") == []

    def test_named_rule_audited_only_when_active(self):
        # A partial run that does not include bare-assert cannot know
        # whether the suppression is stale, so it must stay silent.
        findings = lint_source(
            self.STALE_NAMED,
            path="core/mod.py",
            only={"float-equality", "stale-suppression"},
        )
        assert findings == []

    def test_bare_suppression_not_audited_on_partial_runs(self):
        findings = lint_source(
            self.STALE_BARE,
            path="core/mod.py",
            only={"bare-assert", "stale-suppression"},
        )
        assert findings == []

    def test_partially_stale_list_reports_only_dead_names(self):
        src = FUTURE + textwrap.dedent(
            """
            def f(x):
                assert x  # repro-lint: ignore[bare-assert, float-equality]
            """
        )
        findings = lint_source(src, path="core/mod.py")
        assert [f.rule for f in findings] == ["stale-suppression"]
        assert "'float-equality'" in findings[0].message
        assert "bare-assert" not in findings[0].message

    def test_naming_the_audit_opts_the_line_out(self):
        src = FUTURE + (
            "x = 1  # repro-lint: ignore[bare-assert, stale-suppression]\n"
        )
        assert lint_source(src, path="core/mod.py") == []

    def test_bare_ignore_cannot_hide_its_own_staleness(self):
        # The audit's findings bypass the normal suppression filter —
        # otherwise every bare ignore would silence its own report.
        findings = lint_source(self.STALE_BARE, path="core/mod.py")
        assert len(findings) == 1

    def test_docstring_suppression_examples_not_audited(self):
        src = FUTURE + textwrap.dedent(
            '''
            """Usage::

                x = 1  # repro-lint: ignore[bare-assert]
            """
            '''
        )
        assert lint_source(src, path="core/mod.py") == []

    def test_warning_severity_passes_fail_on_error(self, tmp_path, capsys):
        target = tmp_path / "core"
        target.mkdir()
        (target / "mod.py").write_text(self.STALE_NAMED)
        assert main(["--fail-on", "error", str(tmp_path)]) == EXIT_CLEAN
        assert main([str(tmp_path)]) == EXIT_FINDINGS
        capsys.readouterr()
