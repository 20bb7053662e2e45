"""Domain-specific lint rules for the repro library.

Each rule is an :class:`ast`-walking check registered in a module-level
registry; the engine instantiates every registered rule against each
parsed module.  The rules encode hard-won constraints of reproducing
the paper at production scale:

``bare-assert``
    ``assert`` is stripped under ``python -O``; correctness guards in
    library code must go through :mod:`repro.analysis.contracts`
    (``require`` / ``invariant``) or raise
    :class:`~repro.errors.InternalInvariantError` explicitly.
``no-recursion``
    Recursive traversals in ``graph/``, ``kecc/`` and ``flow/`` blow
    the interpreter stack on paper-scale graphs (10^6+ vertices);
    rewrite with an explicit stack.
``quadratic-list-op``
    ``list.pop(0)`` and ``x in <list>`` inside loops are accidental
    O(n^2) idioms on hot paths; use ``collections.deque`` / sets.
``float-equality``
    Edge weights and connectivities are integers end to end; a float
    literal compared with ``==`` signals a unit mistake upstream.
``future-annotations``
    ``from __future__ import annotations`` keeps annotation evaluation
    lazy and the 3.9 baseline happy with modern typing syntax.
``numpy-truthiness``
    ``if arr:`` on a numpy array raises (or silently mis-evaluates for
    size-1 arrays); demand an explicit ``.any()`` / ``.all()`` /
    ``len()`` / comparison.
``perf-counter-outside-obs``
    ad-hoc ``time.perf_counter()`` timing bypasses the observability
    layer; outside :mod:`repro.obs`, time through
    :class:`repro.obs.timing.Stopwatch` / ``repro.obs.timing.monotonic``
    so measurements land in the metrics registry consistently.
``multiprocessing-outside-parallel``
    pool lifecycle, start-method choice and the ``jobs=1`` serial
    guarantee live in :mod:`repro.parallel`; direct ``multiprocessing``
    / ``concurrent.futures`` imports elsewhere fork uncontrolled worker
    processes — go through :class:`repro.parallel.PieceExecutor`.
"""

from __future__ import annotations

import ast
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Type,
)

from repro.analysis.findings import Finding, ModuleContext


class Rule:
    """Base class: subclass, set ``id``/``description``, implement ``check``."""

    id: str = ""
    description: str = ""
    #: ``"error"`` findings gate CI; ``"warning"`` findings are advisory
    severity: str = "error"
    #: directory names this rule is restricted to (None = everywhere)
    scope_dirs: Optional[FrozenSet[str]] = None

    def applies_to(self, ctx: ModuleContext) -> bool:
        if self.scope_dirs is None:
            return True
        return any(part in self.scope_dirs for part in ctx.package_parts)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
            severity=self.severity,
        )


class ProjectRule(Rule):
    """A rule that needs every module at once (cross-module analysis).

    The engine calls :meth:`check_project` with the parsed contexts the
    rule applies to, instead of :meth:`check` per module; findings are
    still anchored at one (path, line) so per-line suppressions work.
    """

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())

    def check_project(
        self, contexts: "Sequence[ModuleContext]"
    ) -> Iterator[Finding]:
        raise NotImplementedError


class StaleSuppressionRule(Rule):
    """Audits ``# repro-lint: ignore`` comments against what actually fired.

    The engine computes this rule's findings itself (it needs the
    *pre-suppression* finding set of every other rule): a suppression
    naming a rule that never fires on its line — or a bare suppression
    on a line with no findings at all — is stale and rots silently.
    Registered like any other rule so ``--rules`` / ``--list-rules`` and
    per-line suppressions apply; :meth:`check` is intentionally empty.

    Named suppressions are only audited when the named rule is active in
    the current run; bare suppressions only when the full registry is
    (a ``--rules`` subset cannot prove a suppression useless).
    """

    id = "stale-suppression"
    description = (
        "a # repro-lint: ignore comment whose named rules never fire on "
        "its line (or a bare ignore on a line with no findings): stale "
        "suppressions hide future regressions and must be removed"
    )
    severity = "warning"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())  # the engine computes the audit


_REGISTRY: Dict[str, Type[Rule]] = {}
_EXTRA_RULE_MODULES_LOADED = False


def _ensure_registered() -> None:
    """Import the rule modules that register themselves on import.

    ``repro.analysis.concurrency`` depends on this module, so it cannot
    be imported at the top (circular import); pulling it in lazily the
    first time the registry is consulted keeps registration automatic.
    """
    global _EXTRA_RULE_MODULES_LOADED
    if _EXTRA_RULE_MODULES_LOADED:
        return
    _EXTRA_RULE_MODULES_LOADED = True
    import repro.analysis.concurrency  # noqa: F401  (registers rules)
    import repro.analysis.lifecycle  # noqa: F401  (registers rules)


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id!r}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


# StaleSuppressionRule is declared above ``register`` (the engine
# imports it by name), so it registers here rather than by decorator.
register(StaleSuppressionRule)


def all_rule_ids() -> List[str]:
    _ensure_registered()
    return sorted(_REGISTRY)


def rule_description(rule_id: str) -> str:
    _ensure_registered()
    return _REGISTRY[rule_id].description


def make_rules(only: Optional[Set[str]] = None) -> List[Rule]:
    """Instantiate registered rules, optionally restricted to ``only``."""
    _ensure_registered()
    if only is not None:
        unknown = only - set(_REGISTRY)
        if unknown:
            raise KeyError(f"unknown rule ids: {sorted(unknown)}")
    return [
        cls() for rule_id, cls in sorted(_REGISTRY.items())
        if only is None or rule_id in only
    ]


# ----------------------------------------------------------------------
@register
class BareAssertRule(Rule):
    id = "bare-assert"
    description = (
        "assert statements are stripped under `python -O`; use "
        "repro.analysis.contracts.require()/invariant() or raise "
        "InternalInvariantError instead"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    ctx,
                    node,
                    "bare assert in library code (disabled by -O); "
                    "route through repro.analysis.contracts",
                )


# ----------------------------------------------------------------------
@register
class NoRecursionRule(Rule):
    id = "no-recursion"
    description = (
        "recursive traversal in graph/, kecc/ or flow/ overflows the "
        "interpreter stack on paper-scale graphs; use an explicit stack"
    )
    scope_dirs = frozenset({"graph", "kecc", "flow"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: ModuleContext, func: ast.AST
    ) -> Iterator[Finding]:
        name = func.name  # type: ignore[attr-defined]
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            target = node.func
            is_self_call = (
                isinstance(target, ast.Name) and target.id == name
            ) or (
                isinstance(target, ast.Attribute)
                and target.attr == name
                and isinstance(target.value, ast.Name)
                and target.value.id in ("self", "cls")
            )
            if is_self_call:
                yield self.finding(
                    ctx,
                    node,
                    f"function {name!r} calls itself; recursion depth is "
                    "O(graph size) here — rewrite with an explicit stack",
                )


# ----------------------------------------------------------------------
class _ListNameCollector(ast.NodeVisitor):
    """Names bound to list values within one function (or module) scope."""

    def __init__(self) -> None:
        self.list_names: Set[str] = set()

    @staticmethod
    def _is_list_value(value: ast.AST) -> bool:
        if isinstance(value, (ast.List, ast.ListComp)):
            return True
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name) and func.id in ("list", "sorted"):
                return True
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_list_value(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.list_names.add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        annotation = ast.dump(node.annotation)
        if isinstance(node.target, ast.Name) and (
            "'List'" in annotation or "'list'" in annotation
        ):
            self.list_names.add(node.target.id)
        self.generic_visit(node)

    # Do not descend into nested scopes: their bindings are separate.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


@register
class QuadraticListOpRule(Rule):
    id = "quadratic-list-op"
    description = (
        "list.pop(0) and `x in <list>` inside loops are O(n) per "
        "iteration; use collections.deque / a set"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        scopes: List[ast.AST] = [ctx.tree]
        scopes.extend(
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            collector = _ListNameCollector()
            for stmt in scope.body:  # type: ignore[attr-defined]
                collector.visit(stmt)
            yield from self._check_scope(ctx, scope, collector.list_names)

    def _check_scope(
        self, ctx: ModuleContext, scope: ast.AST, list_names: Set[str]
    ) -> Iterator[Finding]:
        # Find loop bodies directly inside this scope (not nested defs).
        stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
        loops: List[ast.AST] = []
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, (ast.For, ast.While)):
                loops.append(node)
            stack.extend(ast.iter_child_nodes(node))
        for loop in loops:
            for node in ast.walk(loop):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(node, ast.Call):
                    func = node.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr == "pop"
                        and len(node.args) == 1
                        and isinstance(node.args[0], ast.Constant)
                        and node.args[0].value == 0
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            "list.pop(0) inside a loop is O(n) per call; "
                            "use collections.deque.popleft()",
                        )
                elif isinstance(node, ast.Compare):
                    for op, comparator in zip(node.ops, node.comparators):
                        if (
                            isinstance(op, (ast.In, ast.NotIn))
                            and isinstance(comparator, ast.Name)
                            and comparator.id in list_names
                        ):
                            yield self.finding(
                                ctx,
                                node,
                                f"membership test against list "
                                f"{comparator.id!r} inside a loop is O(n) "
                                "per iteration; use a set",
                            )


# ----------------------------------------------------------------------
@register
class FloatEqualityRule(Rule):
    id = "float-equality"
    description = (
        "edge weights/connectivities are integers; == against a float "
        "literal signals a unit bug and is unstable anyway"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            has_eq = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            if not has_eq:
                continue
            for operand in operands:
                if isinstance(operand, ast.Constant) and isinstance(
                    operand.value, float
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "float literal compared with ==/!=; edge weights "
                        "are integral — compare ints or use math.isclose",
                    )
                    break


# ----------------------------------------------------------------------
@register
class FutureAnnotationsRule(Rule):
    id = "future-annotations"
    description = (
        "every module must start with `from __future__ import "
        "annotations` (lazy annotations, 3.9-compatible typing syntax)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.tree.body:
            return  # genuinely empty module
        for node in ctx.tree.body:
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "__future__"
                and any(alias.name == "annotations" for alias in node.names)
            ):
                return
        anchor = ctx.tree.body[0]
        yield Finding(
            path=ctx.path,
            line=getattr(anchor, "lineno", 1),
            col=0,
            rule=self.id,
            message="module is missing `from __future__ import annotations`",
        )


# ----------------------------------------------------------------------
@register
class NumpyTruthinessRule(Rule):
    id = "numpy-truthiness"
    description = (
        "truthiness of numpy results raises on arrays (ambiguous truth "
        "value); use .any()/.all()/len()/explicit comparison"
    )

    _GUARD_ATTRS = frozenset({"any", "all"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        aliases = self._numpy_aliases(ctx.tree)
        if not aliases:
            return
        numpy_names = self._numpy_bound_names(ctx.tree, aliases)
        for test in self._truthiness_contexts(ctx.tree):
            if self._is_unguarded_numpy(test, aliases, numpy_names):
                yield self.finding(
                    ctx,
                    test,
                    "truthiness of a numpy expression; arrays raise here — "
                    "use .any()/.all()/len() or an explicit comparison",
                )

    @staticmethod
    def _numpy_aliases(tree: ast.Module) -> Set[str]:
        aliases: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        aliases.add(alias.asname or "numpy")
        return aliases

    @staticmethod
    def _numpy_bound_names(tree: ast.Module, aliases: Set[str]) -> Set[str]:
        """Names assigned directly from an un-guarded ``np.*()`` call."""
        names: Set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and isinstance(value.func.value, ast.Name)
                and value.func.value.id in aliases
                and value.func.attr not in NumpyTruthinessRule._GUARD_ATTRS
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _truthiness_contexts(tree: ast.Module) -> Iterator[ast.expr]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.If, ast.While, ast.IfExp)):
                yield node.test
            elif isinstance(node, ast.Assert):
                yield node.test
            elif isinstance(node, ast.BoolOp):
                yield from node.values
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                yield node.operand
            elif isinstance(node, ast.comprehension):
                yield from node.ifs

    @staticmethod
    def _is_unguarded_numpy(
        expr: ast.expr, aliases: Set[str], numpy_names: Set[str]
    ) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in numpy_names
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            func = expr.func
            if func.attr in NumpyTruthinessRule._GUARD_ATTRS:
                return False
            return isinstance(func.value, ast.Name) and func.value.id in aliases
        return False


# ----------------------------------------------------------------------
@register
class PerfCounterOutsideObsRule(Rule):
    id = "perf-counter-outside-obs"
    description = (
        "raw time.perf_counter() outside repro.obs bypasses the "
        "observability layer; use repro.obs.timing.Stopwatch/monotonic"
    )

    _CLOCKS = frozenset({"perf_counter", "perf_counter_ns"})

    def applies_to(self, ctx: ModuleContext) -> bool:
        # The obs package is the one sanctioned home of the raw clock.
        return "obs" not in ctx.package_parts

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        time_aliases = self._time_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self._CLOCKS:
                        yield self.finding(
                            ctx,
                            node,
                            f"`from time import {alias.name}` outside "
                            "repro.obs; import repro.obs.timing instead",
                        )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in self._CLOCKS
                and isinstance(node.value, ast.Name)
                and node.value.id in time_aliases
            ):
                yield self.finding(
                    ctx,
                    node,
                    "time.perf_counter outside repro.obs; use "
                    "repro.obs.timing.Stopwatch or monotonic()",
                )

    @staticmethod
    def _time_aliases(tree: ast.Module) -> Set[str]:
        aliases: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        aliases.add(alias.asname or "time")
        return aliases


# ----------------------------------------------------------------------
@register
class MultiprocessingOutsideParallelRule(Rule):
    id = "multiprocessing-outside-parallel"
    description = (
        "multiprocessing / concurrent.futures imported outside "
        "repro.parallel or repro.serve; pool lifecycle and the jobs=1 "
        "serial guarantee live in parallel, the sharded worker tier in "
        "serve — use repro.parallel.PieceExecutor or "
        "repro.serve.ShardGateway"
    )

    _FORBIDDEN_ROOTS = frozenset({"multiprocessing", "concurrent"})

    def applies_to(self, ctx: ModuleContext) -> bool:
        # repro.parallel is the sanctioned home of compute process
        # pools; repro.serve additionally hosts the sharded serving
        # tier (shard.py), whose worker processes and shared-memory
        # segments are its whole point.
        return (
            "parallel" not in ctx.package_parts
            and "serve" not in ctx.package_parts
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".", 1)[0]
                    if root in self._FORBIDDEN_ROOTS:
                        yield self.finding(
                            ctx,
                            node,
                            f"`import {alias.name}` outside repro.parallel; "
                            "request workers through "
                            "repro.parallel.PieceExecutor",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                root = node.module.split(".", 1)[0]
                if root in self._FORBIDDEN_ROOTS and not (
                    node.module == "concurrent.futures"
                    and all(
                        alias.name == "ThreadPoolExecutor"
                        for alias in node.names
                    )
                ):
                    # Thread pools are threading's jurisdiction (the
                    # threading-outside-serve rule), not process pools'.
                    yield self.finding(
                        ctx,
                        node,
                        f"`from {node.module} import ...` outside "
                        "repro.parallel; request workers through "
                        "repro.parallel.PieceExecutor",
                    )


@register
class ThreadingOutsideServeRule(Rule):
    id = "threading-outside-serve"
    description = (
        "threading (or a thread-pool / queue primitive) imported "
        "outside repro.serve; lock discipline and snapshot publication "
        "ordering live there — serve concurrent reads through "
        "repro.serve.ServingIndex"
    )

    _FORBIDDEN_ROOTS = frozenset({"threading", "_thread"})
    #: thread-adjacent primitives allowed in serve *and* parallel
    _POOL_ROOTS = frozenset({"queue"})

    def applies_to(self, ctx: ModuleContext) -> bool:
        # repro.serve is the one sanctioned home of threads and locks;
        # the thread-pool/queue checks additionally exempt
        # repro.parallel.  A module inside serve never fires.
        return "serve" not in ctx.package_parts

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        check_pools = "parallel" not in ctx.package_parts
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".", 1)[0]
                    if root in self._FORBIDDEN_ROOTS:
                        yield self.finding(
                            ctx,
                            node,
                            f"`import {alias.name}` outside repro.serve; "
                            "concurrency belongs to "
                            "repro.serve.ServingIndex",
                        )
                    elif check_pools and root in self._POOL_ROOTS:
                        yield self.finding(
                            ctx,
                            node,
                            f"`import {alias.name}` outside repro.serve / "
                            "repro.parallel; thread coordination belongs "
                            "to repro.serve.ServingIndex",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                root = node.module.split(".", 1)[0]
                if root in self._FORBIDDEN_ROOTS:
                    yield self.finding(
                        ctx,
                        node,
                        f"`from {node.module} import ...` outside "
                        "repro.serve; concurrency belongs to "
                        "repro.serve.ServingIndex",
                    )
                elif check_pools and root in self._POOL_ROOTS:
                    yield self.finding(
                        ctx,
                        node,
                        f"`from {node.module} import ...` outside "
                        "repro.serve / repro.parallel; thread "
                        "coordination belongs to repro.serve.ServingIndex",
                    )
                elif (
                    check_pools
                    and node.module == "concurrent.futures"
                    and any(
                        alias.name == "ThreadPoolExecutor"
                        for alias in node.names
                    )
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "`ThreadPoolExecutor` imported outside repro.serve "
                        "/ repro.parallel; thread fan-out belongs to "
                        "repro.serve.ServingIndex",
                    )
            elif (
                check_pools
                and isinstance(node, ast.Attribute)
                and node.attr == "ThreadPoolExecutor"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "concurrent.futures.ThreadPoolExecutor used outside "
                    "repro.serve / repro.parallel; thread fan-out belongs "
                    "to repro.serve.ServingIndex",
                )
