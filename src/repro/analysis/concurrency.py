"""Concurrency static analysis: the ``guarded-by`` contract checker.

PR 4 turned the index into a many-reader/one-writer system, and its
review found two real data races by hand (the cache stale-put race and
the unsynchronized ``_inflight`` counter).  This module makes that
class of bug *mechanically* rediscoverable: every piece of shared
mutable state in the threaded modules (``repro.serve``,
``repro.parallel``, ``repro.obs.runtime``) must carry a ``guarded-by``
annotation naming its synchronization discipline, and an AST pass
verifies the code against the declared contract.

Annotation language (a trailing comment on the attribute's defining
assignment in ``__init__`` — or the comment line directly above it —
on a ``def`` line for method-level lock requirements, or on a
module-global definition)::

    self._entries = OrderedDict()      # guarded-by: _lock
    self._snapshot = capture(...)      # guarded-by: _lock [writes]
    self.generation = generation       # guarded-by: external:QueryCache._lock
    self.edges = edges                 # guarded-by: immutable-after-publish
    self._pool = None                  # guarded-by: thread-local
    REGISTRY = None                    # guarded-by: atomic-ref

- ``<lockattr>`` / ``<attr>.<attr>...`` — a lock path rooted at
  ``self``; every post-``__init__`` read and write of the attribute
  must be dominated by ``with self.<path>:``.  Appending ``[writes]``
  guards writes only: reads are deliberately lock-free (a CPython
  atomic reference read, or an advisory counter on a hot path).
- ``external:<Class>.<lockattr>`` — the attribute is mutated by
  *another* class holding its own lock (e.g. ``CacheEntry.generation``
  is re-stamped by ``QueryCache.advance`` under ``QueryCache._lock``).
  Statically this is a declaration; the runtime sanitizer
  (:mod:`repro.analysis.tsan`) enforces it with an Eraser-style
  lockset check.
- ``immutable-after-publish`` — never written after ``__init__``
  (snapshot fields published by atomic reference swap).
- ``thread-local`` — per-thread or thread-confined state; exempt from
  lock-domination checks.
- ``atomic-ref`` — a single atomic reference store read lock-free
  (the ``repro.obs.runtime.REGISTRY`` pattern).

Rules registered here (surface through ``repro-lint --rules`` /
``--concurrency``):

``guarded-by-missing``
    a post-``__init__``-mutated attribute (or a module global mutated
    through ``global``) has no ``guarded-by`` annotation.
``guarded-by-violation``
    an access to a guarded attribute is not dominated by ``with`` on
    its declared lock, an ``immutable-after-publish`` attribute is
    written after ``__init__``, or a method annotated as requiring a
    lock is called without it.
``guarded-by-invalid``
    a malformed / unattached / unresolvable annotation.
``lock-order-cycle``
    the cross-class lock-acquisition-order graph (built from nested
    ``with`` scopes plus one level of call-mediated acquisitions)
    contains a cycle — a potential deadlock.  Advisory (severity
    ``warning``).

:func:`build_lock_order_graph` exports the acquisition-order graph as
a JSON-ready dict (the ``repro-lint --lock-graph`` artifact).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.engine import (
    comment_only_lines,
    is_lock_factory_call,
    self_attr_path,
)
from repro.analysis.findings import Finding, ModuleContext
from repro.analysis.rules import ProjectRule, Rule, register

__all__ = [
    "CONCURRENCY_RULE_IDS",
    "GuardSpec",
    "GuardSpecError",
    "build_lock_order_graph",
    "guard_specs_for_class",
    "parse_guard_spec",
]

CONCURRENCY_RULE_IDS = frozenset(
    {
        "guarded-by-missing",
        "guarded-by-violation",
        "guarded-by-invalid",
        "lock-order-cycle",
    }
)

#: marker spellings -> GuardSpec.kind
_MARKERS = {
    "immutable-after-publish": "immutable",
    "thread-local": "thread-local",
    "atomic-ref": "atomic",
}

_GUARD_COMMENT_RE = re.compile(r"#\s*guarded-by:\s*(?P<spec>.+?)\s*$")
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_LOCK_PATH_RE = re.compile(rf"^{_IDENT}(\.{_IDENT})*$")
_EXTERNAL_RE = re.compile(rf"^external:\s*(?P<cls>{_IDENT})\.(?P<attr>{_IDENT})$")

class GuardSpecError(ValueError):
    """A ``guarded-by`` annotation does not parse."""


@dataclass(frozen=True)
class GuardSpec:
    """One parsed ``guarded-by`` annotation."""

    #: ``lock`` | ``external`` | ``immutable`` | ``thread-local`` | ``atomic``
    kind: str
    #: the lock path rooted at ``self`` (``lock`` kind only)
    path: Tuple[str, ...] = ()
    #: ``(class name, lock attr)`` for ``external`` specs
    external: Optional[Tuple[str, str]] = None
    #: True when only writes must hold the lock (reads are lock-free)
    writes_only: bool = False
    #: source line the annotation sits on
    line: int = 0
    #: the raw spec text as written
    raw: str = ""

    def describe(self) -> str:
        return self.raw


def parse_guard_spec(text: str, line: int = 0) -> GuardSpec:
    """Parse the spec text after ``guarded-by:`` (raises on malformed)."""
    raw = text.strip()
    spec = raw
    writes_only = False
    if spec.endswith("[writes]"):
        writes_only = True
        spec = spec[: -len("[writes]")].strip()
    if spec in _MARKERS:
        if writes_only:
            raise GuardSpecError(
                f"guarded-by marker {spec!r} does not take [writes]"
            )
        return GuardSpec(kind=_MARKERS[spec], line=line, raw=raw)
    external = _EXTERNAL_RE.match(spec)
    if external is not None:
        if writes_only:
            raise GuardSpecError(
                "external: guarded-by specs do not take [writes]"
            )
        return GuardSpec(
            kind="external",
            external=(external.group("cls"), external.group("attr")),
            line=line,
            raw=raw,
        )
    if spec.startswith("external:"):
        raise GuardSpecError(
            f"malformed external guard {raw!r}; expected "
            "external:<Class>.<lockattr>"
        )
    if not _LOCK_PATH_RE.match(spec):
        raise GuardSpecError(
            f"malformed guarded-by spec {raw!r}; expected a lock path, "
            "external:<Class>.<attr>, or one of "
            + "/".join(sorted(_MARKERS))
        )
    return GuardSpec(
        kind="lock",
        path=tuple(spec.split(".")),
        writes_only=writes_only,
        line=line,
        raw=raw,
    )


def _guard_comment_lines(source: str) -> Dict[int, str]:
    """Map line number -> raw spec text of every ``guarded-by`` comment."""
    out: Dict[int, str] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _GUARD_COMMENT_RE.search(text)
        if match is not None:
            out[lineno] = match.group("spec")
    return out


# ----------------------------------------------------------------------
# The per-module shared-state model
# ----------------------------------------------------------------------
@dataclass
class ClassModel:
    """Shared-state summary of one class in a threaded module."""

    name: str
    lineno: int
    #: attr -> line of its defining assignment in __init__/__post_init__
    init_attrs: Dict[str, int] = field(default_factory=dict)
    #: attrs bound to a lock factory call in __init__
    lock_attrs: Set[str] = field(default_factory=set)
    #: property name -> the lock attr it returns (``lock`` -> ``_lock``)
    lock_aliases: Dict[str, str] = field(default_factory=dict)
    #: attr -> class name, from ``self.x = ClassName(...)`` in __init__
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: attr -> parsed guard annotation
    guards: Dict[str, GuardSpec] = field(default_factory=dict)
    #: method name -> lock the caller must already hold
    method_guards: Dict[str, GuardSpec] = field(default_factory=dict)
    #: attr -> lines of post-__init__ ``self.attr`` writes
    post_init_writes: Dict[str, List[int]] = field(default_factory=dict)
    #: non-__init__ methods, in source order
    methods: List[ast.FunctionDef] = field(default_factory=list)

    def normalize_path(self, path: Tuple[str, ...]) -> Tuple[str, ...]:
        """Resolve a single-segment lock alias to its underlying attr."""
        if len(path) == 1 and path[0] in self.lock_aliases:
            return (self.lock_aliases[path[0]],)
        return path


@dataclass
class ModuleModel:
    """Everything the concurrency rules need to know about one module."""

    classes: Dict[str, ClassModel] = field(default_factory=dict)
    #: module global name -> defining line (top-level assignments)
    global_defs: Dict[str, int] = field(default_factory=dict)
    #: module global name -> guard annotation on its definition
    global_guards: Dict[str, GuardSpec] = field(default_factory=dict)
    #: module global name -> lines of ``global``-declared writes
    global_writes: Dict[str, List[int]] = field(default_factory=dict)
    #: (owner class, attr) -> lines of non-self attribute writes that
    #: resolve to exactly one owning class in this module
    external_writes: Dict[Tuple[str, str], List[int]] = field(
        default_factory=dict
    )
    #: (line, col, message) of invalid / unattached annotations
    invalid: List[Tuple[int, int, str]] = field(default_factory=list)


_INIT_METHODS = frozenset({"__init__", "__post_init__"})


def _assigned_self_attrs(stmt: ast.stmt) -> List[Tuple[str, ast.AST]]:
    """``(attr, value)`` pairs for ``self.attr = ...`` style statements."""
    out: List[Tuple[str, ast.AST]] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            path = self_attr_path(target)
            if path is not None and len(path) == 1:
                out.append((path[0], stmt.value))
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        path = self_attr_path(stmt.target)
        if path is not None and len(path) == 1:
            out.append((path[0], stmt.value))
    elif isinstance(stmt, ast.AugAssign):
        path = self_attr_path(stmt.target)
        if path is not None and len(path) == 1:
            out.append((path[0], stmt.value))
    return out


def _spec_for_line(
    lineno: int,
    comments: Dict[int, str],
    comment_only: FrozenSet[int],
    consumed: Set[int],
) -> Optional[Tuple[str, int]]:
    """The spec text attached to an anchor at ``lineno`` (same line, or
    the comment-only line directly above)."""
    if lineno in comments:
        consumed.add(lineno)
        return comments[lineno], lineno
    above = lineno - 1
    if above in comments and above in comment_only:
        consumed.add(above)
        return comments[above], above
    return None


def _is_property(func: ast.FunctionDef) -> bool:
    return any(
        isinstance(dec, ast.Name) and dec.id == "property"
        for dec in func.decorator_list
    )


def _property_returned_attr(func: ast.FunctionDef) -> Optional[str]:
    """The attr a trivial ``return self.<attr>`` property forwards to."""
    body = [
        stmt
        for stmt in func.body
        if not (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        )
    ]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return None
    path = self_attr_path(body[0].value) if body[0].value is not None else None
    if path is not None and len(path) == 1:
        return path[0]
    return None


def build_module_model(ctx: ModuleContext) -> ModuleModel:
    """Extract the shared-state model the concurrency rules consume."""
    comments = _guard_comment_lines(ctx.source)
    comment_only = comment_only_lines(ctx.source)
    consumed: Set[int] = set()
    model = ModuleModel()

    for stmt in ctx.tree.body:
        _collect_global_def(stmt, model, comments, comment_only, consumed)
        if isinstance(stmt, ast.ClassDef):
            model.classes[stmt.name] = _build_class_model(
                stmt, comments, comment_only, consumed, model
            )

    _collect_global_writes(ctx.tree, model)
    _collect_external_writes(ctx.tree, model)

    # Any guarded-by comment that attached to nothing is an error: the
    # contract it declares is not being checked.
    for lineno in sorted(set(comments) - consumed):
        model.invalid.append(
            (
                lineno,
                0,
                "guarded-by annotation is not attached to an attribute "
                "assignment in __init__, a def line, or a module-global "
                "definition",
            )
        )
    return model


def _collect_global_def(
    stmt: ast.stmt,
    model: ModuleModel,
    comments: Dict[int, str],
    comment_only: FrozenSet[int],
    consumed: Set[int],
) -> None:
    names: List[str] = []
    if isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    if not names:
        return
    for name in names:
        model.global_defs.setdefault(name, stmt.lineno)
    attached = _spec_for_line(stmt.lineno, comments, comment_only, consumed)
    if attached is None:
        return
    text, line = attached
    try:
        spec = parse_guard_spec(text, line)
    except GuardSpecError as exc:
        model.invalid.append((line, 0, str(exc)))
        return
    for name in names:
        model.global_guards[name] = spec


def _collect_global_writes(tree: ast.Module, model: ModuleModel) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared: Set[str] = set()
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Global):
                declared.update(stmt.names)
        if not declared:
            continue
        for stmt in ast.walk(node):
            targets: List[ast.AST] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared:
                    model.global_writes.setdefault(target.id, []).append(
                        stmt.lineno
                    )


def _collect_external_writes(tree: ast.Module, model: ModuleModel) -> None:
    """Non-``self`` attribute stores resolved to a unique owning class."""
    owners: Dict[str, List[str]] = {}
    for cls_name, cls in model.classes.items():
        for attr in cls.init_attrs:
            owners.setdefault(attr, []).append(cls_name)
    for node in ast.walk(tree):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            base = target.value
            if isinstance(base, ast.Name) and base.id == "self":
                continue
            owner_classes = owners.get(target.attr, [])
            if len(owner_classes) != 1:
                continue
            key = (owner_classes[0], target.attr)
            model.external_writes.setdefault(key, []).append(node.lineno)


def _build_class_model(
    cls: ast.ClassDef,
    comments: Dict[int, str],
    comment_only: FrozenSet[int],
    consumed: Set[int],
    model: ModuleModel,
) -> ClassModel:
    cm = ClassModel(name=cls.name, lineno=cls.lineno)
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            # dataclass-style field declaration
            cm.init_attrs.setdefault(stmt.target.id, stmt.lineno)
            _attach_attr_spec(
                cm, stmt.target.id, stmt.lineno, comments, comment_only,
                consumed, model,
            )
        elif not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        else:
            if stmt.name in _INIT_METHODS:
                _scan_init(cm, stmt, comments, comment_only, consumed, model)
            else:
                _scan_method_def(
                    cm, stmt, comments, comment_only, consumed, model
                )
    return cm


def _attach_attr_spec(
    cm: ClassModel,
    attr: str,
    lineno: int,
    comments: Dict[int, str],
    comment_only: FrozenSet[int],
    consumed: Set[int],
    model: ModuleModel,
) -> None:
    attached = _spec_for_line(lineno, comments, comment_only, consumed)
    if attached is None:
        return
    text, line = attached
    try:
        spec = parse_guard_spec(text, line)
    except GuardSpecError as exc:
        model.invalid.append((line, 0, str(exc)))
        return
    cm.guards[attr] = spec


def _scan_init(
    cm: ClassModel,
    func: ast.FunctionDef,
    comments: Dict[int, str],
    comment_only: FrozenSet[int],
    consumed: Set[int],
    model: ModuleModel,
) -> None:
    for stmt in ast.walk(func):
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            continue
        for attr, value in _assigned_self_attrs(stmt):
            first_time = attr not in cm.init_attrs
            cm.init_attrs.setdefault(attr, stmt.lineno)
            if is_lock_factory_call(value):
                cm.lock_attrs.add(attr)
            if (
                first_time
                and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
            ):
                cm.attr_types[attr] = value.func.id
            _attach_attr_spec(
                cm, attr, stmt.lineno, comments, comment_only, consumed, model
            )


def _scan_method_def(
    cm: ClassModel,
    func: ast.FunctionDef,
    comments: Dict[int, str],
    comment_only: FrozenSet[int],
    consumed: Set[int],
    model: ModuleModel,
) -> None:
    cm.methods.append(func)
    if _is_property(func):
        returned = _property_returned_attr(func)
        if returned is not None and returned in cm.lock_attrs:
            cm.lock_aliases[func.name] = returned
    attached = _spec_for_line(func.lineno, comments, comment_only, consumed)
    if attached is not None:
        text, line = attached
        try:
            spec = parse_guard_spec(text, line)
        except GuardSpecError as exc:
            model.invalid.append((line, 0, str(exc)))
        else:
            if spec.kind != "lock":
                model.invalid.append(
                    (
                        line,
                        0,
                        f"method-level guarded-by on {cm.name}.{func.name} "
                        f"must name a lock, got {spec.raw!r}",
                    )
                )
            else:
                cm.method_guards[func.name] = spec
    for stmt in ast.walk(func):
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            continue
        for attr, _value in _assigned_self_attrs(stmt):
            cm.post_init_writes.setdefault(attr, []).append(stmt.lineno)


def guard_specs_for_class(
    source: str, class_name: str, path: str = "<monitored>"
) -> Dict[str, GuardSpec]:
    """The parsed guard annotations of one class (the tsan entry point).

    Lock paths are normalized through the class's lock aliases so the
    runtime monitor resolves ``publisher.lock`` and ``publisher._lock``
    identically.
    """
    tree = ast.parse(source, filename=path)
    comments = _guard_comment_lines(source)
    comment_only = comment_only_lines(source)
    consumed: Set[int] = set()
    model = ModuleModel()
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and stmt.name == class_name:
            cm = _build_class_model(
                stmt, comments, comment_only, consumed, model
            )
            return {
                attr: (
                    replace(spec, path=cm.normalize_path(spec.path))
                    if spec.kind == "lock"
                    else spec
                )
                for attr, spec in cm.guards.items()
            }
    return {}


# ----------------------------------------------------------------------
# Scope: which modules the concurrency rules police
# ----------------------------------------------------------------------
def _in_scope(ctx: ModuleContext) -> bool:
    parts = ctx.package_parts
    if "serve" in parts or "parallel" in parts:
        return True
    return len(parts) >= 2 and parts[-2] == "obs" and parts[-1] == "runtime.py"


class _ConcurrencyRule(Rule):
    """Shared scope + model plumbing for the guarded-by rules."""

    def applies_to(self, ctx: ModuleContext) -> bool:
        return _in_scope(ctx)

    def finding_at(
        self, ctx: ModuleContext, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=line,
            col=col,
            rule=self.id,
            message=message,
            severity=self.severity,
        )


# ----------------------------------------------------------------------
@register
class GuardedByMissingRule(_ConcurrencyRule):
    id = "guarded-by-missing"
    description = (
        "shared mutable state in a threaded module (repro.serve / "
        "repro.parallel / repro.obs.runtime) has no `# guarded-by:` "
        "annotation declaring its synchronization discipline"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        model = build_module_model(ctx)
        for cls in model.classes.values():
            mutated: Dict[str, int] = {}
            for attr, lines in cls.post_init_writes.items():
                mutated[attr] = min(lines)
            for (owner, attr), lines in model.external_writes.items():
                if owner == cls.name:
                    mutated.setdefault(attr, min(lines))
            for attr in sorted(mutated):
                if attr in cls.lock_attrs or attr in cls.guards:
                    continue
                anchor = cls.init_attrs.get(attr, mutated[attr])
                yield self.finding_at(
                    ctx,
                    anchor,
                    0,
                    f"attribute {cls.name}.{attr} is mutated after "
                    "__init__ but declares no `# guarded-by:` contract "
                    "(lock path, external:<Class>.<lock>, "
                    "immutable-after-publish, thread-local, or atomic-ref)",
                )
        for name, lines in sorted(model.global_writes.items()):
            if name in model.global_guards:
                continue
            anchor = model.global_defs.get(name, min(lines))
            yield self.finding_at(
                ctx,
                anchor,
                0,
                f"module global {name!r} is reassigned through `global` "
                "but declares no `# guarded-by:` contract",
            )


# ----------------------------------------------------------------------
@register
class GuardedByInvalidRule(_ConcurrencyRule):
    id = "guarded-by-invalid"
    description = (
        "a `# guarded-by:` annotation is malformed, attached to "
        "nothing, or names a lock the class does not own"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        model = build_module_model(ctx)
        for line, col, message in model.invalid:
            yield self.finding_at(ctx, line, col, message)
        for cls in model.classes.values():
            for attr, spec in sorted(cls.guards.items()):
                yield from self._check_spec(ctx, model, cls, attr, spec)
            for name, spec in sorted(cls.method_guards.items()):
                yield from self._check_spec(
                    ctx, model, cls, f"{name}()", spec
                )

    def _check_spec(
        self,
        ctx: ModuleContext,
        model: ModuleModel,
        cls: ClassModel,
        attr: str,
        spec: GuardSpec,
    ) -> Iterator[Finding]:
        if spec.kind == "lock":
            path = cls.normalize_path(spec.path)
            if len(path) == 1:
                if path[0] not in cls.lock_attrs:
                    yield self.finding_at(
                        ctx,
                        spec.line,
                        0,
                        f"guarded-by on {cls.name}.{attr} names "
                        f"{spec.raw!r} but {cls.name} has no lock "
                        f"attribute {path[0]!r}",
                    )
            elif path[0] not in cls.init_attrs:
                yield self.finding_at(
                    ctx,
                    spec.line,
                    0,
                    f"guarded-by on {cls.name}.{attr} starts at "
                    f"{path[0]!r}, which is not an attribute of "
                    f"{cls.name}",
                )
        elif spec.kind == "external" and spec.external is not None:
            owner, lock_attr = spec.external
            owner_cls = model.classes.get(owner)
            if owner_cls is not None and lock_attr not in owner_cls.lock_attrs:
                yield self.finding_at(
                    ctx,
                    spec.line,
                    0,
                    f"guarded-by on {cls.name}.{attr} names "
                    f"external:{owner}.{lock_attr} but {owner} has no "
                    f"lock attribute {lock_attr!r}",
                )


# ----------------------------------------------------------------------
def _walk_held(
    node: ast.AST,
    held: FrozenSet[Tuple[str, ...]],
    cls: ClassModel,
) -> Iterator[Tuple[ast.AST, FrozenSet[Tuple[str, ...]]]]:
    """Yield every descendant with the set of self-lock paths held there.

    ``with self.<path>:`` scopes add their (alias-normalized) path;
    nested function bodies reset to the empty set — they run later, on
    an unknown thread, with no inherited locks.
    """
    if isinstance(node, ast.With):
        acquired: Set[Tuple[str, ...]] = set()
        for item in node.items:
            yield item.context_expr, held
            yield from _walk_held(item.context_expr, held, cls)
            if item.optional_vars is not None:
                yield item.optional_vars, held
                yield from _walk_held(item.optional_vars, held, cls)
            path = self_attr_path(item.context_expr)
            if path is not None:
                acquired.add(cls.normalize_path(path))
        inner = held | acquired
        for stmt in node.body:
            yield stmt, inner
            yield from _walk_held(stmt, inner, cls)
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        empty: FrozenSet[Tuple[str, ...]] = frozenset()
        for child in ast.iter_child_nodes(node):
            yield child, empty
            yield from _walk_held(child, empty, cls)
    else:
        for child in ast.iter_child_nodes(node):
            yield child, held
            yield from _walk_held(child, held, cls)


def _write_targets(node: ast.AST) -> FrozenSet[int]:
    """ids of Attribute nodes in store/del position under ``node``."""
    out: Set[int] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(
            sub.ctx, (ast.Store, ast.Del)
        ):
            out.add(id(sub))
        elif isinstance(sub, ast.AugAssign) and isinstance(
            sub.target, ast.Attribute
        ):
            out.add(id(sub.target))
    return frozenset(out)


@register
class GuardedByViolationRule(_ConcurrencyRule):
    id = "guarded-by-violation"
    description = (
        "an access to a guarded attribute is not dominated by `with` "
        "on its declared lock (or an immutable-after-publish attribute "
        "is written after __init__)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        model = build_module_model(ctx)
        for cls in model.classes.values():
            for method in cls.methods:
                yield from self._check_method(ctx, model, cls, method)
        yield from self._check_external_immutables(ctx, model)

    def _check_method(
        self,
        ctx: ModuleContext,
        model: ModuleModel,
        cls: ClassModel,
        method: ast.FunctionDef,
    ) -> Iterator[Finding]:
        held0: FrozenSet[Tuple[str, ...]] = frozenset()
        guard = cls.method_guards.get(method.name)
        if guard is not None:
            held0 = frozenset({cls.normalize_path(guard.path)})
        writes = _write_targets(method)
        for stmt in method.body:
            for node, held in _chain_root(stmt, held0, cls):
                yield from self._check_node(
                    ctx, cls, node, held, writes
                )

    def _check_node(
        self,
        ctx: ModuleContext,
        cls: ClassModel,
        node: ast.AST,
        held: FrozenSet[Tuple[str, ...]],
        writes: FrozenSet[int],
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Attribute):
            path = self_attr_path(node)
            if path is None or len(path) != 1:
                return
            attr = path[0]
            spec = cls.guards.get(attr)
            if spec is None:
                return
            is_write = id(node) in writes
            if spec.kind == "immutable":
                if is_write:
                    yield self.finding_at(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"write to {cls.name}.{attr} after __init__, but "
                        "it is declared immutable-after-publish",
                    )
                return
            if spec.kind != "lock":
                return
            if spec.writes_only and not is_write:
                return
            want = cls.normalize_path(spec.path)
            if want not in held:
                action = "write to" if is_write else "read of"
                yield self.finding_at(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"{action} {cls.name}.{attr} outside `with "
                    f"self.{'.'.join(spec.path)}:` (guarded-by: "
                    f"{spec.raw})",
                )
        elif isinstance(node, ast.Call):
            func = node.func
            path = self_attr_path(func)
            if path is None or len(path) != 1:
                return
            guard = cls.method_guards.get(path[0])
            if guard is None:
                return
            want = cls.normalize_path(guard.path)
            if want not in held:
                yield self.finding_at(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"call to self.{path[0]}() without holding "
                    f"self.{'.'.join(guard.path)} (the method is "
                    f"annotated `# guarded-by: {guard.raw}`)",
                )

    def _check_external_immutables(
        self, ctx: ModuleContext, model: ModuleModel
    ) -> Iterator[Finding]:
        # A non-self store to an attribute its owner declared immutable
        # is a contract violation wherever it happens.
        for (owner, attr), lines in sorted(model.external_writes.items()):
            cls = model.classes.get(owner)
            if cls is None:
                continue
            spec = cls.guards.get(attr)
            if spec is not None and spec.kind == "immutable":
                for line in lines:
                    yield self.finding_at(
                        ctx,
                        line,
                        0,
                        f"write to {owner}.{attr} from outside the class, "
                        "but it is declared immutable-after-publish",
                    )


def _chain_root(
    stmt: ast.stmt,
    held: FrozenSet[Tuple[str, ...]],
    cls: ClassModel,
) -> Iterator[Tuple[ast.AST, FrozenSet[Tuple[str, ...]]]]:
    yield stmt, held
    yield from _walk_held(stmt, held, cls)


# ----------------------------------------------------------------------
# The cross-class lock-acquisition-order graph
# ----------------------------------------------------------------------
class _LockGraphBuilder:
    """Builds ``Class.lockattr -> Class.lockattr`` acquisition edges."""

    def __init__(self, contexts: Sequence[ModuleContext]) -> None:
        self.registry: Dict[str, Tuple[ModuleContext, ClassModel]] = {}
        self.models: List[Tuple[ModuleContext, ModuleModel]] = []
        for ctx in contexts:
            model = build_module_model(ctx)
            self.models.append((ctx, model))
            for name, cls in model.classes.items():
                self.registry.setdefault(name, (ctx, cls))
        #: (from, to) -> (path, line) of the first site creating the edge
        self.edges: Dict[Tuple[str, str], Tuple[str, int]] = {}
        #: Class.method -> lock nodes the method acquires anywhere
        self._acquires: Dict[str, List[str]] = {}
        for _ctx, cls in self.registry.values():
            for method in cls.methods:
                key = f"{cls.name}.{method.name}"
                self._acquires[key] = self._method_acquires(cls, method)

    # ------------------------------------------------------------------
    def resolve(
        self, cls: ClassModel, path: Tuple[str, ...]
    ) -> Optional[str]:
        path = cls.normalize_path(path)
        if len(path) == 1:
            if path[0] in cls.lock_attrs:
                return f"{cls.name}.{path[0]}"
            return None
        target = cls.attr_types.get(path[0])
        if target is None or target not in self.registry:
            return None
        _ctx, target_cls = self.registry[target]
        return self.resolve(target_cls, path[1:])

    def _method_acquires(
        self, cls: ClassModel, method: ast.FunctionDef
    ) -> List[str]:
        nodes: List[str] = []
        seen: Set[str] = set()
        for node in ast.walk(method):
            if not isinstance(node, ast.With):
                continue
            for item in node.items:
                path = self_attr_path(item.context_expr)
                if path is None:
                    continue
                resolved = self.resolve(cls, path)
                if resolved is not None and resolved not in seen:
                    seen.add(resolved)
                    nodes.append(resolved)
        return nodes

    # ------------------------------------------------------------------
    def build(self) -> None:
        for ctx, model in self.models:
            for cls in model.classes.values():
                for method in cls.methods:
                    self._scan_method(ctx, cls, method)

    def _scan_method(
        self, ctx: ModuleContext, cls: ClassModel, method: ast.FunctionDef
    ) -> None:
        self._scan_block(ctx, cls, method.body, ())

    def _scan_block(
        self,
        ctx: ModuleContext,
        cls: ClassModel,
        stmts: Sequence[ast.stmt],
        held: Tuple[str, ...],
    ) -> None:
        for stmt in stmts:
            self._scan_stmt(ctx, cls, stmt, held)

    def _scan_stmt(
        self,
        ctx: ModuleContext,
        cls: ClassModel,
        stmt: ast.AST,
        held: Tuple[str, ...],
    ) -> None:
        if isinstance(stmt, ast.With):
            acquired: List[str] = []
            taken = set(held)
            for item in stmt.items:
                self._scan_expr(ctx, cls, item.context_expr, held)
                path = self_attr_path(item.context_expr)
                if path is None:
                    continue
                node = self.resolve(cls, path)
                if node is None:
                    continue
                self._add_edges(ctx, held, node, stmt.lineno)
                if node not in taken:
                    taken.add(node)
                    acquired.append(node)
            inner = held + tuple(acquired)
            self._scan_block(ctx, cls, stmt.body, inner)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs run later, with no inherited locks.
            self._scan_block(ctx, cls, stmt.body, ())
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._scan_stmt(ctx, cls, child, held)
                else:
                    self._scan_expr(ctx, cls, child, held)

    def _scan_expr(
        self,
        ctx: ModuleContext,
        cls: ClassModel,
        expr: ast.AST,
        held: Tuple[str, ...],
    ) -> None:
        """Call-mediated acquisitions, one level deep (lambdas pruned)."""
        if not held:
            return
        stack: List[ast.AST] = [expr]
        while stack:
            sub = stack.pop()
            if isinstance(sub, ast.Lambda):
                continue  # runs later, without these locks
            stack.extend(ast.iter_child_nodes(sub))
            if not isinstance(sub, ast.Call):
                continue
            path = self_attr_path(sub.func)
            if path is None:
                continue
            if len(path) == 1:
                key = f"{cls.name}.{path[0]}"
            elif len(path) == 2:
                target = cls.attr_types.get(path[0])
                if target is None:
                    continue
                key = f"{target}.{path[1]}"
            else:
                continue
            for acquired in self._acquires.get(key, ()):
                self._add_edges(ctx, held, acquired, sub.lineno)

    def _add_edges(
        self,
        ctx: ModuleContext,
        held: Tuple[str, ...],
        node: str,
        lineno: int,
    ) -> None:
        for holder in held:
            if holder == node:
                continue  # reentrant re-acquisition (RLock)
            self.edges.setdefault((holder, node), (ctx.path, lineno))

    # ------------------------------------------------------------------
    def nodes(self) -> List[str]:
        out: Set[str] = set()
        for _ctx, cls in self.registry.values():
            for attr in cls.lock_attrs:
                out.add(f"{cls.name}.{attr}")
        for a, b in self.edges:
            out.add(a)
            out.add(b)
        return sorted(out)

    def cycles(self) -> List[List[str]]:
        """Strongly connected components with >= 2 lock nodes."""
        graph: Dict[str, List[str]] = {}
        for a, b in self.edges:
            graph.setdefault(a, []).append(b)
            graph.setdefault(b, [])
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        sccs: List[List[str]] = []

        for root in sorted(graph):
            if root in index:
                continue
            work: List[Tuple[str, int]] = [(root, 0)]
            while work:
                node, child_i = work[-1]
                if child_i == 0:
                    index[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                children = graph[node]
                advanced = False
                while child_i < len(children):
                    child = children[child_i]
                    child_i += 1
                    if child not in index:
                        work[-1] = (node, child_i)
                        work.append((child, 0))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: List[str] = []
                    while True:
                        top = stack.pop()
                        on_stack.discard(top)
                        component.append(top)
                        if top == node:
                            break
                    if len(component) >= 2:
                        sccs.append(sorted(component))
        return sccs


def build_lock_order_graph(
    contexts: Sequence[ModuleContext],
) -> Dict[str, object]:
    """The lock-acquisition-order graph as a JSON-ready dict."""
    builder = _LockGraphBuilder([c for c in contexts if _in_scope(c)])
    builder.build()
    edges = [
        {"from": a, "to": b, "path": path, "line": line}
        for (a, b), (path, line) in sorted(builder.edges.items())
    ]
    return {
        "nodes": builder.nodes(),
        "edges": edges,
        "cycles": builder.cycles(),
    }


@register
class LockOrderCycleRule(ProjectRule):
    id = "lock-order-cycle"
    severity = "warning"
    description = (
        "the cross-class lock-acquisition-order graph has a cycle: two "
        "code paths acquire the same locks in opposite orders — a "
        "potential deadlock (advisory)"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return _in_scope(ctx)

    def check_project(
        self, contexts: Sequence[ModuleContext]
    ) -> Iterator[Finding]:
        builder = _LockGraphBuilder(list(contexts))
        builder.build()
        for component in builder.cycles():
            members = set(component)
            sites = sorted(
                (path, line, a, b)
                for (a, b), (path, line) in builder.edges.items()
                if a in members and b in members
            )
            path, line, a, b = sites[0]
            yield Finding(
                path=path,
                line=line,
                col=0,
                rule=self.id,
                message=(
                    "lock acquisition order cycle (potential deadlock) "
                    f"among {{{', '.join(component)}}}; this edge "
                    f"acquires {b} while holding {a}"
                ),
                severity=self.severity,
            )
