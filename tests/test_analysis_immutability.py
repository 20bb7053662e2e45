"""The deep-immutability analysis and the runtime snapshot freezer.

Three layers of coverage:

- grammar/rule fixtures: every annotation form and every defect class
  of the three ``frozen-*`` rules fires (and stays silent) where the
  contract says;
- freezer unit tests: the read-only proxies and ``deep_freeze``'s
  object-graph walk, including the exemption and disabled paths;
- mutation meta-tests: surgically replacing the defensive MST* build
  in ``capture_snapshot`` with the live writer index must be
  rediscovered by BOTH prongs — the
  static ``frozen-escape`` rule at the exact aliasing line, and the
  ``REPRO_FREEZE=1`` sanitizer at the writer's next in-place write.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import traceback

import numpy as np
import pytest

from repro.analysis import freeze
from repro.analysis.engine import build_context, lint_contexts
from repro.analysis.freeze import (
    FrozenDict,
    FrozenList,
    FrozenSetProxy,
    FrozenWriteError,
    deep_freeze,
    maybe_deep_freeze,
)
from repro.analysis.immutability import (
    IMMUTABILITY_RULE_IDS,
    frozen_exempt_attrs,
)
from repro.analysis.rules import make_rules
from repro.graph.graph import Graph
from repro.index.connectivity_graph import build_connectivity_graph
from repro.index.mst import MSTIndex, build_mst
from repro.index.mst_star import build_mst_star
from repro.serve.snapshot import IndexSnapshot, capture_snapshot

SRC_ROOT = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
SNAPSHOT_PATH = os.path.join(SRC_ROOT, "serve", "snapshot.py")

FUTURE = "from __future__ import annotations\n"


def lint_imm(*sources, rules=None):
    """Lint (path, source) pairs with the immutability rule set."""
    contexts = [
        build_context(path, source, root=".") for path, source in sources
    ]
    only = set(IMMUTABILITY_RULE_IDS) if rules is None else set(rules)
    return lint_contexts(contexts, make_rules(only))


def rules_fired(findings):
    return sorted({f.rule for f in findings})


@pytest.fixture
def frozen_off():
    """Force the freezer off for the duration of a test."""
    was = freeze.enabled()
    freeze.disable()
    yield
    if was:
        freeze.enable()


@pytest.fixture
def frozen_on():
    """Force the freezer on for the duration of a test."""
    was = freeze.enabled()
    freeze.enable()
    yield
    if not was:
        freeze.disable()


# ----------------------------------------------------------------------
# Static rules: frozen-mutation
# ----------------------------------------------------------------------
class TestFrozenMutation:
    def test_external_write_through_frozen_typed_name(self):
        src = FUTURE + textwrap.dedent(
            """
            class Snap:  # deep-frozen
                def __init__(
                    self,
                    table,  # escape: owned
                ) -> None:
                    self.table = table


            def reader(s: Snap) -> None:
                s.table[0] = 1
            """
        )
        findings = lint_imm(("serve/mod.py", src))
        assert [f.rule for f in findings] == ["frozen-mutation"]
        assert findings[0].line == 12

    def test_mutating_method_call_flagged(self):
        src = FUTURE + textwrap.dedent(
            """
            class Snap:  # deep-frozen
                def __init__(
                    self,
                    table,  # escape: owned
                ) -> None:
                    self.table = table

                def poke(self) -> None:
                    self.table.append(1)
            """
        )
        findings = lint_imm(("serve/mod.py", src))
        assert [f.rule for f in findings] == ["frozen-mutation"]
        assert ".append()" in findings[0].message

    def test_constructor_and_capture_methods_may_mutate(self):
        src = FUTURE + textwrap.dedent(
            """
            class Star:  # frozen-after: _bake
                def __init__(self) -> None:
                    self.rows = []
                    self._fill()

                def _fill(self) -> None:
                    self.rows.append(0)

                def _bake(self) -> None:
                    self.rows.sort()
            """
        )
        assert lint_imm(("serve/mod.py", src)) == []

    def test_non_capture_self_mutation_flagged(self):
        src = FUTURE + textwrap.dedent(
            """
            class Star:  # frozen-after: _bake
                def __init__(self) -> None:
                    self.rows = []

                def _bake(self) -> None:
                    self.rows.sort()

                def query(self) -> None:
                    self.rows.append(1)
            """
        )
        findings = lint_imm(("serve/mod.py", src))
        assert [f.rule for f in findings] == ["frozen-mutation"]
        assert findings[0].line == 11

    def test_frozen_exempt_scratch_not_flagged(self):
        src = FUTURE + textwrap.dedent(
            """
            class Snap:  # deep-frozen
                def __init__(self, n: int) -> None:
                    self.scratch = [0] * n  # frozen-exempt: epoch marks

                def query(self) -> None:
                    self.scratch[0] = 1
            """
        )
        assert lint_imm(("serve/mod.py", src)) == []

    def test_rebinding_a_local_is_not_mutation(self):
        src = FUTURE + textwrap.dedent(
            """
            class Snap:  # deep-frozen
                def __init__(self, n: int) -> None:
                    self.n = n


            def reader(s: Snap) -> None:
                s = Snap(1)
            """
        )
        assert lint_imm(("serve/mod.py", src)) == []

    def test_numpy_inplace_call_flagged(self):
        src = FUTURE + textwrap.dedent(
            """
            import numpy as np


            class Snap:  # deep-frozen
                def __init__(
                    self,
                    arr,  # escape: owned
                ) -> None:
                    self.arr = arr


            def reader(s: Snap) -> None:
                np.copyto(s.arr, 0)
            """
        )
        findings = lint_imm(("serve/mod.py", src))
        assert [f.rule for f in findings] == ["frozen-mutation"]
        assert "np.copyto" in findings[0].message

    def test_frozen_returning_call_types_the_local(self):
        src = FUTURE + textwrap.dedent(
            """
            class Snap:  # deep-frozen
                def __init__(self) -> None:
                    self.rows = []


            def make() -> Snap:
                return Snap()


            def reader() -> None:
                s = make()
                s.rows.append(1)
            """
        )
        findings = lint_imm(("serve/mod.py", src))
        assert [f.rule for f in findings] == ["frozen-mutation"]

    def test_attr_level_deep_frozen_scopes_to_that_attr(self):
        src = FUTURE + textwrap.dedent(
            """
            class Entry:
                def __init__(self) -> None:
                    # deep-frozen
                    self.value = []
                    self.mutable = []

                def ok(self) -> None:
                    self.mutable.append(1)

                def bad(self) -> None:
                    self.value.append(1)
            """
        )
        findings = lint_imm(("serve/mod.py", src))
        assert [(f.rule, f.line) for f in findings] == [("frozen-mutation", 13)]

    def test_out_of_scope_unannotated_module_ignored(self):
        src = FUTURE + textwrap.dedent(
            """
            class Snap:
                def __init__(self) -> None:
                    self.rows = []
            """
        )
        assert lint_imm(("bench/mod.py", src)) == []


# ----------------------------------------------------------------------
# Static rules: frozen-escape
# ----------------------------------------------------------------------
class TestFrozenEscape:
    def test_borrowed_into_owned_parameter(self):
        src = FUTURE + textwrap.dedent(
            """
            class Snap:  # deep-frozen
                def __init__(
                    self,
                    table,  # escape: owned
                ) -> None:
                    self.table = table


            def capture(
                live,  # escape: borrowed
            ):
                return Snap(table=live)
            """
        )
        findings = lint_imm(("serve/mod.py", src))
        assert [f.rule for f in findings] == ["frozen-escape"]
        assert findings[0].line == 14

    def test_call_result_launders_the_borrow(self):
        src = FUTURE + textwrap.dedent(
            """
            class Snap:  # deep-frozen
                def __init__(
                    self,
                    table,  # escape: owned
                ) -> None:
                    self.table = table


            def capture(
                live,  # escape: borrowed
            ):
                return Snap(table=list(live))
            """
        )
        assert lint_imm(("serve/mod.py", src)) == []

    def test_borrow_propagates_through_aliases(self):
        src = FUTURE + textwrap.dedent(
            """
            class Snap:  # deep-frozen
                def __init__(
                    self,
                    table,  # escape: owned
                ) -> None:
                    self.table = table


            def capture(
                live,  # escape: borrowed
            ):
                alias = live
                inner = alias.rows
                return Snap(table=inner)
            """
        )
        findings = lint_imm(("serve/mod.py", src))
        assert [f.rule for f in findings] == ["frozen-escape"]
        assert findings[0].line == 16

    def test_borrowed_param_stored_into_frozen_attr(self):
        src = FUTURE + textwrap.dedent(
            """
            class Snap:  # deep-frozen
                def __init__(
                    self,
                    table,  # escape: borrowed
                ) -> None:
                    self.table = table
            """
        )
        findings = lint_imm(("serve/mod.py", src))
        assert [f.rule for f in findings] == ["frozen-escape"]
        assert "borrowed value stored" in findings[0].message

    def test_escape_copy_attr_requires_copying_expression(self):
        src = FUTURE + textwrap.dedent(
            """
            class Snap:  # deep-frozen
                def __init__(self, rows) -> None:
                    self.rows = rows  # escape: copy
            """
        )
        findings = lint_imm(("serve/mod.py", src))
        assert [f.rule for f in findings] == ["frozen-escape"]
        assert "escape:copy" in findings[0].message

    def test_escape_copy_attr_satisfied_by_copy_call(self):
        src = FUTURE + textwrap.dedent(
            """
            class Snap:  # deep-frozen
                def __init__(self, rows) -> None:
                    self.rows = list(rows)  # escape: copy
            """
        )
        assert lint_imm(("serve/mod.py", src)) == []

    def test_unannotated_mutable_param_stored_needs_declaration(self):
        src = FUTURE + textwrap.dedent(
            """
            from typing import List


            class Snap:  # deep-frozen
                def __init__(self, rows: List[int]) -> None:
                    self.rows = rows
            """
        )
        findings = lint_imm(("serve/mod.py", src))
        assert [f.rule for f in findings] == ["frozen-escape"]
        assert "no escape" in findings[0].message

    def test_immutable_typed_param_needs_no_declaration(self):
        src = FUTURE + textwrap.dedent(
            """
            class Snap:  # deep-frozen
                def __init__(self, n: int, name: str) -> None:
                    self.n = n
                    self.name = name
            """
        )
        assert lint_imm(("serve/mod.py", src)) == []

    def test_cross_module_registry_resolves_classes(self):
        frozen_mod = FUTURE + textwrap.dedent(
            """
            class Snap:  # deep-frozen
                def __init__(
                    self,
                    table,  # escape: owned
                ) -> None:
                    self.table = table
            """
        )
        writer_mod = FUTURE + textwrap.dedent(
            """
            from serve.mod import Snap


            def capture(
                live,  # escape: borrowed
            ):
                return Snap(live)
            """
        )
        findings = lint_imm(
            ("serve/mod.py", frozen_mod), ("serve/writer.py", writer_mod)
        )
        assert [f.rule for f in findings] == ["frozen-escape"]
        assert findings[0].path == "serve/writer.py"


# ----------------------------------------------------------------------
# Static rules: frozen-invalid
# ----------------------------------------------------------------------
class TestFrozenInvalid:
    def test_unattached_annotation(self):
        src = FUTURE + "\n# deep-frozen\n\nX = 1\n"
        findings = lint_imm(("serve/mod.py", src))
        assert [f.rule for f in findings] == ["frozen-invalid"]
        assert findings[0].line == 3

    def test_unknown_escape_kind(self):
        src = FUTURE + textwrap.dedent(
            """
            class Snap:  # deep-frozen
                def __init__(
                    self,
                    table,  # escape: leased
                ) -> None:
                    self.n = 0
            """
        )
        findings = lint_imm(("serve/mod.py", src))
        # Two reports: the unknown kind itself, and the annotation left
        # unconsumed because it never parsed into a valid declaration.
        assert rules_fired(findings) == ["frozen-invalid"]
        assert any("leased" in f.message for f in findings)

    def test_frozen_after_undefined_method(self):
        src = FUTURE + textwrap.dedent(
            """
            class Star:  # frozen-after: _bake
                def __init__(self) -> None:
                    self.n = 0
            """
        )
        findings = lint_imm(("serve/mod.py", src))
        assert [f.rule for f in findings] == ["frozen-invalid"]
        assert "_bake" in findings[0].message

    def test_deep_frozen_and_frozen_after_conflict(self):
        src = FUTURE + textwrap.dedent(
            """
            # deep-frozen
            class Star:  # frozen-after: _bake
                def __init__(self) -> None:
                    self.n = 0

                def _bake(self) -> None:
                    pass
            """
        )
        findings = lint_imm(("serve/mod.py", src))
        assert [f.rule for f in findings] == ["frozen-invalid"]
        assert "both deep-frozen and frozen-after" in findings[0].message

    def test_frozen_and_exempt_overlap(self):
        src = FUTURE + textwrap.dedent(
            """
            class Snap:
                def __init__(self) -> None:
                    # deep-frozen
                    self.rows = []
                    self.rows = []  # frozen-exempt
            """
        )
        findings = lint_imm(("serve/mod.py", src))
        assert [f.rule for f in findings] == ["frozen-invalid"]
        assert "both deep-frozen and frozen-exempt" in findings[0].message

    def test_docstring_examples_are_not_annotations(self):
        src = FUTURE + textwrap.dedent(
            '''
            """Examples:

                class Snap:   # deep-frozen
                    x = 1     # escape: owned
            """

            X = 1
            '''
        )
        assert lint_imm(("serve/mod.py", src)) == []


# ----------------------------------------------------------------------
# The annotated tree itself
# ----------------------------------------------------------------------
class TestAnnotatedTree:
    def test_src_repro_is_clean_under_immutability_rules(self):
        from repro.analysis.engine import lint_paths

        findings = lint_paths([SRC_ROOT], only=set(IMMUTABILITY_RULE_IDS))
        assert findings == [], [f.render() for f in findings]

    def test_exempt_attrs_resolved_from_source(self):
        assert frozen_exempt_attrs(MSTIndex) == frozenset({"_visit_epoch"})
        assert frozen_exempt_attrs(IndexSnapshot) == frozenset()
        assert frozen_exempt_attrs(int) == frozenset()


# ----------------------------------------------------------------------
# Runtime freezer: proxies
# ----------------------------------------------------------------------
class TestFrozenProxies:
    def test_frozen_list_reads_like_a_list(self):
        fl = deep_freeze([1, 2, 3])
        assert isinstance(fl, list) and isinstance(fl, FrozenList)
        assert fl == [1, 2, 3]
        assert fl[1] == 2 and list(reversed(fl)) == [3, 2, 1]

    @pytest.mark.parametrize(
        "op",
        [
            lambda fl: fl.append(9),
            lambda fl: fl.extend([9]),
            lambda fl: fl.insert(0, 9),
            lambda fl: fl.pop(),
            lambda fl: fl.remove(1),
            lambda fl: fl.clear(),
            lambda fl: fl.sort(),
            lambda fl: fl.reverse(),
            lambda fl: fl.__setitem__(0, 9),
            lambda fl: fl.__delitem__(0),
            lambda fl: fl.__iadd__([9]),
        ],
    )
    def test_frozen_list_mutators_raise(self, op):
        fl = deep_freeze([1, 2, 3])
        with pytest.raises(FrozenWriteError):
            op(fl)
        assert fl == [1, 2, 3]

    @pytest.mark.parametrize(
        "op",
        [
            lambda fd: fd.__setitem__("a", 9),
            lambda fd: fd.__delitem__("a"),
            lambda fd: fd.pop("a"),
            lambda fd: fd.popitem(),
            lambda fd: fd.clear(),
            lambda fd: fd.update({"b": 2}),
            lambda fd: fd.setdefault("b", 2),
        ],
    )
    def test_frozen_dict_mutators_raise(self, op):
        fd = deep_freeze({"a": 1})
        assert isinstance(fd, dict) and isinstance(fd, FrozenDict)
        assert fd == {"a": 1} and fd["a"] == 1
        with pytest.raises(FrozenWriteError):
            op(fd)
        assert fd == {"a": 1}

    @pytest.mark.parametrize(
        "op",
        [
            lambda fs: fs.add(9),
            lambda fs: fs.discard(1),
            lambda fs: fs.remove(1),
            lambda fs: fs.pop(),
            lambda fs: fs.clear(),
            lambda fs: fs.update({9}),
            lambda fs: fs.difference_update({1}),
        ],
    )
    def test_frozen_set_mutators_raise(self, op):
        fs = deep_freeze({1, 2})
        assert isinstance(fs, set) and isinstance(fs, FrozenSetProxy)
        assert fs == {1, 2}
        with pytest.raises(FrozenWriteError):
            op(fs)
        assert fs == {1, 2}


# ----------------------------------------------------------------------
# Runtime freezer: deep_freeze object-graph walk
# ----------------------------------------------------------------------
class TestDeepFreeze:
    def test_nested_containers_frozen_recursively(self):
        frozen = deep_freeze({"rows": [[1], [2]], "meta": ({"k"}, 3)})
        with pytest.raises(FrozenWriteError):
            frozen["rows"][0].append(9)
        with pytest.raises(FrozenWriteError):
            frozen["meta"][0].add(9)

    def test_ndarray_and_view_base_chain_read_only(self):
        arr = np.arange(10)
        view = arr[2:5]
        deep_freeze(view)
        assert not view.flags.writeable
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 9

    def test_shared_aliases_frozen_once(self):
        shared = [1, 2]
        frozen = deep_freeze({"a": shared, "b": shared})
        assert frozen["a"] is frozen["b"]

    def test_cycles_terminate(self):
        a = {}
        a["self"] = a
        frozen = deep_freeze(a)
        assert frozen["self"] is frozen

    def test_tuple_identity_preserved_when_unchanged(self):
        t = (1, "x", (2, 3))
        assert deep_freeze(t) is t

    def test_object_attrs_frozen_in_place(self):
        class Box:
            def __init__(self):
                self.rows = [1]
                self.n = 5

        box = Box()
        out = deep_freeze(box)
        assert out is box
        assert isinstance(box.rows, FrozenList)
        with pytest.raises(FrozenWriteError):
            box.rows.append(2)

    def test_exempt_attrs_skipped(self):
        mst = MSTIndex(3)
        mst.add_tree_edge(0, 1, 2)
        deep_freeze(mst)
        assert type(mst._visit_epoch) is list  # exempt: stays mutable
        mst._visit_epoch[0] = 7  # and writable
        assert isinstance(mst.tree_adj, FrozenList)

    def test_locks_and_callables_untouched(self):
        import threading

        lock = threading.Lock()
        assert deep_freeze(lock) is lock
        assert deep_freeze(len) is len
        assert deep_freeze(MSTIndex) is MSTIndex


# ----------------------------------------------------------------------
# Enable/disable semantics
# ----------------------------------------------------------------------
class TestFreezeGating:
    def test_disabled_path_is_identity(self, frozen_off):
        rows = [1, 2]
        arr = np.arange(4)
        snap_like = {"rows": rows, "arr": arr}
        assert maybe_deep_freeze(snap_like) is snap_like
        assert type(rows) is list
        assert arr.flags.writeable  # no writeable-flag change when off
        rows.append(3)
        arr[0] = 9

    def test_disabled_capture_leaves_arrays_writeable(self, frozen_off):
        g = Graph(4)
        for u, v in [(0, 1), (1, 2), (0, 2), (2, 3)]:
            g.add_edge(u, v)
        conn = build_connectivity_graph(g)
        mst = build_mst(conn)
        snap = capture_snapshot(conn, mst, generation=0)
        assert type(snap.star.leaf_order) is list
        assert snap.star._rmq.flags.writeable
        assert snap.star._jump_table.flags.writeable

    def test_enabled_capture_freezes_snapshot(self, frozen_on):
        g = Graph(4)
        for u, v in [(0, 1), (1, 2), (0, 2), (2, 3)]:
            g.add_edge(u, v)
        conn = build_connectivity_graph(g)
        mst = build_mst(conn)
        snap = capture_snapshot(conn, mst, generation=0)
        assert isinstance(snap.star.leaf_order, FrozenList)
        assert not snap.star._rmq.flags.writeable
        assert not snap.star._jump_table.flags.writeable
        with pytest.raises(FrozenWriteError):
            snap.star.leaf_order.append(99)
        with pytest.raises(ValueError, match="read-only"):
            snap.star._jump_table[0, 0] = 99
        # The climb's int views are read-only whether or not the
        # freezer is armed.
        with pytest.raises(TypeError):
            snap.star._jump[0][0] = 99
        # Queries still work: every family only reads the frozen arrays.
        assert snap.sc_pair(0, 1) >= 1
        assert sorted(snap.smcc_l([0, 1], 2).vertices)
        assert snap.components_at(1)

    def test_decision_binds_at_capture_time(self, frozen_on):
        rows = maybe_deep_freeze([1, 2])
        freeze.disable()
        try:
            with pytest.raises(FrozenWriteError):
                rows.append(3)  # captured frozen stays frozen
        finally:
            freeze.enable()

    def test_env_var_binding(self):
        probe = (
            "import repro.analysis.freeze as f; "
            "print(int(f.enabled()))"
        )
        env = dict(os.environ, PYTHONPATH="src")
        env.pop("REPRO_FREEZE", None)
        out = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=os.path.join(os.path.dirname(__file__), ".."),
            env=env,
            capture_output=True,
            text=True,
        )
        assert out.stdout.strip() == "0"
        env["REPRO_FREEZE"] = "1"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=os.path.join(os.path.dirname(__file__), ".."),
            env=env,
            capture_output=True,
            text=True,
        )
        assert out.stdout.strip() == "1"


# ----------------------------------------------------------------------
# Mutation meta-tests: remove the defensive clone, both prongs must see it
# ----------------------------------------------------------------------
def _mutated_snapshot_source():
    """serve/snapshot.py with the defensive MST* build surgically removed.

    ``capture_snapshot`` copies the live tree into a fresh MST*
    (Algorithm 12); the mutant stores the live writer index itself.
    Returns ``(source, aliasing_line)`` where *aliasing_line* is the
    1-based line of the ``star=mst`` store that aliases the live writer
    index into the frozen snapshot.
    """
    with open(SNAPSHOT_PATH, "r", encoding="utf-8") as handle:
        source = handle.read()
    defense = "star=build_mst_star(mst),"
    assert source.count(defense) == 1, (
        "capture_snapshot refactored; update the meta-test surgery"
    )
    mutated = source.replace(defense, "star=mst,")
    lines = mutated.splitlines()
    aliasing_line = next(
        i for i, text in enumerate(lines, start=1) if "star=mst," in text
    )
    return mutated, aliasing_line


class TestMutationMetaTests:
    def test_static_rule_rediscovers_the_aliasing_bug(self):
        mutated, aliasing_line = _mutated_snapshot_source()
        findings = lint_imm(("serve/snapshot.py", mutated))
        escapes = [f for f in findings if f.rule == "frozen-escape"]
        assert escapes, "frozen-escape missed the removed defensive clone"
        assert [f.line for f in escapes] == [aliasing_line]
        assert "owned parameter 'star'" in escapes[0].message

    def test_pristine_snapshot_module_is_clean(self):
        with open(SNAPSHOT_PATH, "r", encoding="utf-8") as handle:
            source = handle.read()
        assert lint_imm(("serve/snapshot.py", source)) == []

    def test_sanitizer_rediscovers_the_aliasing_bug(self, frozen_on):
        mutated, _ = _mutated_snapshot_source()
        namespace = {"__name__": "repro.serve.snapshot_mutated"}
        exec(compile(mutated, SNAPSHOT_PATH, "exec"), namespace)
        buggy_capture = namespace["capture_snapshot"]

        g = Graph(4)
        for u, v in [(0, 1), (1, 2), (0, 2), (2, 3)]:
            g.add_edge(u, v)
        conn = build_connectivity_graph(g)
        mst = build_mst(conn)
        buggy_capture(conn, mst, generation=0)
        # The live writer index was aliased into the frozen snapshot, so
        # the writer's next in-place update hits frozen state and fails
        # at the exact write site inside MSTIndex.add_tree_edge.
        with pytest.raises(FrozenWriteError) as excinfo:
            mst.add_tree_edge(0, 3, 1)
        frames = traceback.extract_tb(excinfo.tb)
        assert any(frame.name == "add_tree_edge" for frame in frames)

    def test_defensive_clone_keeps_writer_mutable(self, frozen_on):
        g = Graph(4)
        for u, v in [(0, 1), (1, 2), (0, 2), (2, 3)]:
            g.add_edge(u, v)
        conn = build_connectivity_graph(g)
        mst = build_mst(conn)
        snap = capture_snapshot(conn, mst, generation=0)
        mst.add_tree_edge(0, 3, 1)  # the real MST* build isolates the writer
        mst.remove_tree_edge(0, 3)
        assert snap.sc_pair(0, 1) >= 1
