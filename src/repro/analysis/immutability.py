"""Deep-immutability escape/alias analysis (the ``deep-frozen`` contract).

PR 5's ``guarded-by: immutable-after-publish`` contract only checks
attribute *rebinding*.  The serving layer's correctness argument (the
Lemma 4.4 restatement in :mod:`repro.serve.snapshot`) needs more: a
published snapshot must be **deeply** frozen — ``snapshot.star.gap``
must never see an in-place write, and no mutable writer structure (the
live ``MSTIndex`` / ``ConnectivityGraph`` under the maintainer) may be
aliased into a snapshot field without a defensive copy.  This module
makes that contract machine-checked, which is what lets consecutive
generations *share* one MST* by object identity.

Annotation language (trailing comment on the anchor line, or on the
comment-only line directly above it)::

    class IndexSnapshot:            # deep-frozen
    class ResultTable:              # frozen-after: _materialize
    self.value = value              # deep-frozen
    self._visit_epoch = [0] * n     # frozen-exempt: epoch scratch
    mst: MSTIndex,                  # escape: borrowed     (parameter)
    self._rows = list(rows)         # escape: copy         (attribute)

- ``deep-frozen`` on a ``class`` line: instances are deeply frozen
  once ``__init__`` returns.  On an attribute's defining assignment:
  that attribute (and everything reachable through it) is frozen.
- ``frozen-after: <m>[, <m>...]`` on a ``class`` line: like
  ``deep-frozen``, but the named capture methods (plus anything
  ``__init__`` or a capture method calls on ``self``) may still
  mutate — the lazy-build escape hatch for a table filled on first use.
- ``frozen-exempt[: reason]`` on an attribute: mutable scratch state
  excluded from the frozen surface (it must carry its own ``guarded-by``
  discipline — e.g. the epoch-marking arrays of ``MSTIndex``'s walk
  queries, which a frozen holder must serialize behind its own lock).
  The runtime freezer
  (:mod:`repro.analysis.freeze`) consults the same annotation via
  :func:`frozen_exempt_attrs`.
- ``escape: copy | owned | borrowed`` declares aliasing discipline:

  ====================  ==================================================
  ``borrowed``          the callee may read the value but must not retain
                        it: storing it into a frozen attribute, or passing
                        it onward into an ``owned`` position, is a leak
  ``owned``             ownership transfers to the callee/attribute; the
                        caller must hand over a fresh or copied value
  ``copy``              the callee/attribute promises to defensively copy;
                        on an attribute, the assigned value must literally
                        be a copying expression (``list(x)``, ``x.copy()``)
  ====================  ==================================================

Rules registered here (surface through ``repro-lint --immutability``):

``frozen-mutation``
    in-place mutation of frozen-reachable state: a subscript /
    augmented / attribute store or a mutating method call
    (``.append`` / ``.sort`` / ``.update`` / ndarray in-place ops)
    rooted at a frozen-typed reference, or any ``self``-rooted mutation
    inside a method of a frozen class outside ``__init__`` / capture.
``frozen-escape``
    an aliasing leak: a ``borrowed`` value stored into a frozen
    attribute or passed into an ``owned`` parameter position, an
    ``escape: copy`` attribute assigned a non-copying expression, or a
    mutable parameter stored into a frozen attribute with no declared
    escape discipline.
``frozen-invalid``
    a malformed / unattached / unresolvable annotation.

The analysis is intentionally intra-procedural plus a project-wide
name registry (class annotations and callable signatures are resolved
across every linted module); opaque method calls on frozen state are
not chased — the runtime freezer (``REPRO_FREEZE=1``) covers that
residue at the exact write site.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
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
    string_literal_lines,
)
from repro.analysis.findings import Finding, ModuleContext
from repro.analysis.rules import ProjectRule, Rule, register

__all__ = [
    "IMMUTABILITY_RULE_IDS",
    "frozen_exempt_attrs",
]

IMMUTABILITY_RULE_IDS = frozenset(
    {
        "frozen-mutation",
        "frozen-escape",
        "frozen-invalid",
    }
)

_ESCAPE_KINDS = frozenset({"copy", "owned", "borrowed"})

_DEEP_FROZEN_RE = re.compile(r"#\s*deep-frozen\b\s*(?P<trail>[^#]*)")
_FROZEN_AFTER_RE = re.compile(r"#\s*frozen-after:\s*(?P<methods>[^#]*)")
_ESCAPE_RE = re.compile(r"#\s*escape:\s*(?P<kind>[A-Za-z_\-]*)")
_EXEMPT_RE = re.compile(r"#\s*frozen-exempt\b(?::(?P<reason>[^#]*))?")
_ANY_ANNOTATION_RE = re.compile(
    r"#\s*(deep-frozen\b|frozen-after:|escape:|frozen-exempt\b)"
)

#: container / ndarray method names that mutate their receiver in place
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "sort",
        "reverse",
        "update",
        "add",
        "discard",
        "setdefault",
        "move_to_end",
        # ndarray in-place operations
        "fill",
        "setflags",
        "resize",
        "put",
        "itemset",
        "partition",
        "byteswap",
    }
)

#: ``np.<fn>(target, ...)`` calls that write into their first argument
_NUMPY_INPLACE_FUNCS = frozenset(
    {"copyto", "put", "place", "putmask", "fill_diagonal"}
)

#: annotation heads that denote shallow-immutable values (storing a
#: parameter of such a type into a frozen attribute needs no escape
#: annotation — there is nothing to alias)
_IMMUTABLE_TYPE_NAMES = frozenset(
    {
        "int",
        "float",
        "bool",
        "str",
        "bytes",
        "complex",
        "frozenset",
        "FrozenSet",
        "Hashable",
        "None",
    }
)

#: callable names too generic to key a return-type registry on
#: (``dict.get`` would otherwise type every ``d.get(k)`` result)
_GENERIC_CALL_NAMES = frozenset(
    {"get", "pop", "copy", "items", "keys", "values", "setdefault", "next"}
)

_INIT_METHODS = frozenset({"__init__", "__post_init__"})

_SCOPE_DIRS = frozenset({"serve", "index", "core"})


# ----------------------------------------------------------------------
# Source scanning helpers
# ----------------------------------------------------------------------
@dataclass
class _Annotations:
    """Every immutability comment in one module, keyed by line."""

    deep_frozen: Dict[int, str] = field(default_factory=dict)
    frozen_after: Dict[int, str] = field(default_factory=dict)
    escape: Dict[int, str] = field(default_factory=dict)
    exempt: Dict[int, str] = field(default_factory=dict)
    comment_only: FrozenSet[int] = frozenset()
    consumed: Set[int] = field(default_factory=set)

    def attach(self, table: Dict[int, str], lineno: int) -> Optional[Tuple[str, int]]:
        """The annotation attached to an anchor at ``lineno``: same
        line, or the comment-only line directly above."""
        if lineno in table:
            self.consumed.add(lineno)
            return table[lineno], lineno
        above = lineno - 1
        if above in table and above in self.comment_only:
            self.consumed.add(above)
            return table[above], above
        return None

    def unconsumed(self) -> List[int]:
        lines = set(self.deep_frozen) | set(self.frozen_after)
        lines |= set(self.escape) | set(self.exempt)
        return sorted(lines - self.consumed)


def _scan_annotations(source: str, tree: ast.AST) -> _Annotations:
    ann = _Annotations(comment_only=comment_only_lines(source))
    skip = string_literal_lines(tree)
    for lineno, text in enumerate(source.splitlines(), start=1):
        if lineno in skip and lineno not in ann.comment_only:
            continue
        hash_at = text.find("#")
        if hash_at < 0:
            continue
        comment = text[hash_at:]
        match = _FROZEN_AFTER_RE.search(comment)
        if match is not None:
            ann.frozen_after[lineno] = match.group("methods").strip()
            continue
        match = _EXEMPT_RE.search(comment)
        if match is not None:
            ann.exempt[lineno] = (match.group("reason") or "").strip()
            continue
        match = _DEEP_FROZEN_RE.search(comment)
        if match is not None:
            ann.deep_frozen[lineno] = match.group("trail").strip()
            continue
        match = _ESCAPE_RE.search(comment)
        if match is not None:
            ann.escape[lineno] = match.group("kind").strip()
    return ann


# ----------------------------------------------------------------------
# The per-module model
# ----------------------------------------------------------------------
@dataclass
class ClassImmutability:
    """Frozen-surface summary of one class."""

    name: str
    lineno: int
    #: instances deeply frozen after ``__init__`` / the capture methods
    class_level: bool = False
    #: capture methods named by ``frozen-after`` (beyond ``__init__``)
    frozen_after: Tuple[str, ...] = ()
    #: attr -> annotation line, for attr-level ``deep-frozen``
    frozen_attrs: Dict[str, int] = field(default_factory=dict)
    #: attr -> annotation line, for ``frozen-exempt`` scratch state
    exempt_attrs: Dict[str, int] = field(default_factory=dict)
    #: attr -> declared escape kind (``escape:`` on the assignment)
    attr_escapes: Dict[str, str] = field(default_factory=dict)
    #: attrs bound to a lock factory call in ``__init__``
    lock_attrs: Set[str] = field(default_factory=set)
    #: ``__init__`` parameter order (without ``self``) and escape kinds
    init_params: List[str] = field(default_factory=list)
    init_escapes: Dict[str, str] = field(default_factory=dict)
    #: param name -> annotation AST (None when unannotated)
    init_param_types: Dict[str, Optional[ast.expr]] = field(default_factory=dict)
    #: methods allowed to mutate: init + capture + transitive self-calls
    capture_methods: FrozenSet[str] = frozenset()
    node: Optional[ast.ClassDef] = None

    @property
    def is_frozen(self) -> bool:
        return self.class_level or bool(self.frozen_attrs)

    def attr_is_frozen(self, attr: Optional[str]) -> bool:
        """Is state reached through ``<obj>.<attr>`` part of the frozen
        surface?  ``attr=None`` means the object itself (``obj[i] = x``)."""
        if attr is None:
            return self.class_level
        if attr in self.exempt_attrs or attr in self.lock_attrs:
            return False
        if self.class_level:
            return True
        return attr in self.frozen_attrs


@dataclass
class ModuleImmutability:
    """Everything the immutability rules derive from one module."""

    classes: Dict[str, ClassImmutability] = field(default_factory=dict)
    #: function name -> (param order, param escape kinds)
    func_params: Dict[str, Tuple[List[str], Dict[str, str]]] = field(
        default_factory=dict
    )
    #: function name -> bare return annotation name
    func_returns: Dict[str, str] = field(default_factory=dict)
    #: (line, col, message) of malformed / unattached annotations
    invalid: List[Tuple[int, int, str]] = field(default_factory=list)
    annotated: bool = False


def _annotation_name(expr: Optional[ast.expr]) -> Optional[str]:
    """The bare class name an annotation refers to, if recognizable."""
    if expr is None:
        return None
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        match = re.search(r"([A-Za-z_][A-Za-z0-9_]*)\s*\]?\s*$", expr.value)
        return match.group(1) if match else None
    if isinstance(expr, ast.Subscript):
        head = _annotation_name(expr.value)
        if head == "Optional":
            inner = expr.slice
            if isinstance(inner, ast.Index):  # pragma: no cover (py3.8)
                inner = inner.value  # type: ignore[attr-defined]
            return _annotation_name(inner)
    return None


def _annotation_is_immutable(expr: Optional[ast.expr]) -> bool:
    """Conservative: True only for types whose values cannot alias
    mutable state (scalars, frozensets, tuples of such)."""
    if expr is None:
        return False
    if isinstance(expr, ast.Constant):
        if expr.value is None or expr.value is Ellipsis:
            return True
        return False
    if isinstance(expr, ast.Name):
        return expr.id in _IMMUTABLE_TYPE_NAMES
    if isinstance(expr, ast.Attribute):
        return expr.attr in _IMMUTABLE_TYPE_NAMES
    if isinstance(expr, ast.Subscript):
        head = _annotation_name(expr.value)
        if head not in ("Tuple", "tuple", "FrozenSet", "frozenset", "Optional"):
            return False
        inner = expr.slice
        if isinstance(inner, ast.Index):  # pragma: no cover (py3.8)
            inner = inner.value  # type: ignore[attr-defined]
        elts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        return all(_annotation_is_immutable(e) for e in elts)
    return False


def _function_args(func: ast.FunctionDef) -> List[ast.arg]:
    args = list(getattr(func.args, "posonlyargs", [])) + list(func.args.args)
    return args + list(func.args.kwonlyargs)


def _collect_param_escapes(
    func: ast.FunctionDef, ann: _Annotations, invalid: List[Tuple[int, int, str]]
) -> Tuple[List[str], Dict[str, str]]:
    """Param order (sans self/cls) and ``escape:`` kinds from the
    trailing comments on the parameter lines."""
    order: List[str] = []
    escapes: Dict[str, str] = {}
    for arg in _function_args(func):
        if arg.arg in ("self", "cls"):
            continue
        order.append(arg.arg)
        if arg.lineno in ann.escape:
            ann.consumed.add(arg.lineno)
            kind = ann.escape[arg.lineno]
            if kind not in _ESCAPE_KINDS:
                invalid.append(
                    (
                        arg.lineno,
                        arg.col_offset,
                        f"unknown escape kind {kind!r}; expected "
                        "copy, owned, or borrowed",
                    )
                )
                continue
            escapes[arg.arg] = kind
    return order, escapes


def _scan_class(
    node: ast.ClassDef, ann: _Annotations, model: ModuleImmutability
) -> ClassImmutability:
    info = ClassImmutability(name=node.name, lineno=node.lineno, node=node)

    frozen_here = ann.attach(ann.deep_frozen, node.lineno)
    after_here = ann.attach(ann.frozen_after, node.lineno)
    if frozen_here is not None and after_here is not None:
        model.invalid.append(
            (
                node.lineno,
                node.col_offset,
                f"class {node.name} carries both deep-frozen and "
                "frozen-after; frozen-after already implies deep "
                "freezing after the capture methods",
            )
        )
    if frozen_here is not None:
        info.class_level = True
    if after_here is not None:
        info.class_level = True
        methods = [m.strip() for m in after_here[0].split(",") if m.strip()]
        if not methods:
            model.invalid.append(
                (
                    node.lineno,
                    node.col_offset,
                    "frozen-after names no capture method",
                )
            )
        info.frozen_after = tuple(methods)

    methods_by_name: Dict[str, ast.FunctionDef] = {}
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods_by_name[stmt.name] = stmt  # type: ignore[assignment]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            # class-level attribute definitions may be annotated too
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if ann.attach(ann.deep_frozen, stmt.lineno) is not None:
                    info.frozen_attrs[target.id] = stmt.lineno
                if ann.attach(ann.exempt, stmt.lineno) is not None:
                    info.exempt_attrs[target.id] = stmt.lineno

    for name in info.frozen_after:
        if name not in methods_by_name:
            model.invalid.append(
                (
                    node.lineno,
                    node.col_offset,
                    f"frozen-after names {name!r}, which class "
                    f"{node.name} does not define",
                )
            )

    for init_name in _INIT_METHODS:
        init = methods_by_name.get(init_name)
        if init is None:
            continue
        if not info.init_params:
            order, escapes = _collect_param_escapes(init, ann, model.invalid)
            info.init_params = order
            info.init_escapes = escapes
            for arg in _function_args(init):
                if arg.arg not in ("self", "cls"):
                    info.init_param_types[arg.arg] = arg.annotation
        for stmt in ast.walk(init):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            for target in targets:
                path = self_attr_path(target)
                if path is None or len(path) != 1:
                    continue
                attr = path[0]
                if value is not None and is_lock_factory_call(value):
                    info.lock_attrs.add(attr)
                if ann.attach(ann.deep_frozen, stmt.lineno) is not None:
                    info.frozen_attrs[attr] = stmt.lineno
                if ann.attach(ann.exempt, stmt.lineno) is not None:
                    info.exempt_attrs[attr] = stmt.lineno
                got = ann.attach(ann.escape, stmt.lineno)
                if got is not None:
                    kind, at = got
                    if kind not in _ESCAPE_KINDS:
                        model.invalid.append(
                            (
                                at,
                                0,
                                f"unknown escape kind {kind!r}; expected "
                                "copy, owned, or borrowed",
                            )
                        )
                    else:
                        info.attr_escapes[attr] = kind

    overlap = set(info.frozen_attrs) & set(info.exempt_attrs)
    for attr in sorted(overlap):
        model.invalid.append(
            (
                info.frozen_attrs[attr],
                0,
                f"attribute {attr!r} is annotated both deep-frozen and "
                "frozen-exempt",
            )
        )

    # Param escapes on every method feed the call-site registry.
    for name, method in methods_by_name.items():
        order, escapes = _collect_param_escapes(method, ann, model.invalid)
        if escapes and name not in _INIT_METHODS:
            model.func_params.setdefault(name, (order, escapes))
        returns = _annotation_name(method.returns)
        if returns and name not in _GENERIC_CALL_NAMES:
            model.func_returns.setdefault(name, returns)

    info.capture_methods = _capture_closure(info, methods_by_name)
    return info


def _capture_closure(
    info: ClassImmutability, methods: Dict[str, ast.FunctionDef]
) -> FrozenSet[str]:
    """Init + capture methods, closed over ``self.<m>()`` calls."""
    allowed: Set[str] = {
        name for name in _INIT_METHODS if name in methods
    }
    allowed.update(name for name in info.frozen_after if name in methods)
    frontier = list(allowed)
    while frontier:
        current = frontier.pop()
        body = methods.get(current)
        if body is None:
            continue
        for node in ast.walk(body):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and func.attr in methods
                and func.attr not in allowed
            ):
                allowed.add(func.attr)
                frontier.append(func.attr)
    return frozenset(allowed)


def build_module_immutability(ctx: ModuleContext) -> ModuleImmutability:
    """Extract the immutability model of one parsed module."""
    model = ModuleImmutability()
    ann = _scan_annotations(ctx.source, ctx.tree)
    model.annotated = bool(
        ann.deep_frozen or ann.frozen_after or ann.escape or ann.exempt
    )
    for node in ctx.tree.body:
        if isinstance(node, ast.ClassDef):
            info = _scan_class(node, ann, model)
            model.classes[info.name] = info
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            order, escapes = _collect_param_escapes(
                node, ann, model.invalid  # type: ignore[arg-type]
            )
            if escapes:
                model.func_params[node.name] = (order, escapes)
            returns = _annotation_name(node.returns)
            if returns and node.name not in _GENERIC_CALL_NAMES:
                model.func_returns.setdefault(node.name, returns)
    for lineno in ann.unconsumed():
        model.invalid.append(
            (
                lineno,
                0,
                "immutability annotation is not attached to a class "
                "line, an attribute assignment, or a parameter",
            )
        )
    return model


# ----------------------------------------------------------------------
# The project-wide registry
# ----------------------------------------------------------------------
@dataclass
class _Registry:
    modules: Dict[str, ModuleImmutability] = field(default_factory=dict)
    #: frozen class name -> its summary (merged across modules)
    frozen_classes: Dict[str, ClassImmutability] = field(default_factory=dict)
    #: class name -> (init param order, escape kinds), frozen or not
    class_params: Dict[str, Tuple[List[str], Dict[str, str]]] = field(
        default_factory=dict
    )
    #: callable name -> (param order, escape kinds)
    func_params: Dict[str, Tuple[List[str], Dict[str, str]]] = field(
        default_factory=dict
    )
    #: callable name -> frozen class its return annotation names
    frozen_returning: Dict[str, str] = field(default_factory=dict)


def _build_registry(contexts: Sequence[ModuleContext]) -> _Registry:
    registry = _Registry()
    returns: Dict[str, str] = {}
    for ctx in contexts:
        model = build_module_immutability(ctx)
        registry.modules[ctx.path] = model
        for name, info in model.classes.items():
            if info.is_frozen:
                registry.frozen_classes.setdefault(name, info)
            if info.init_params or info.init_escapes:
                registry.class_params.setdefault(
                    name, (info.init_params, info.init_escapes)
                )
        for name, spec in model.func_params.items():
            registry.func_params.setdefault(name, spec)
        for name, cls in model.func_returns.items():
            returns.setdefault(name, cls)
    for name, cls in returns.items():
        if cls in registry.frozen_classes:
            registry.frozen_returning[name] = cls
    return registry


def _in_scope(ctx: ModuleContext) -> bool:
    if any(part in _SCOPE_DIRS for part in ctx.package_parts):
        return True
    return _ANY_ANNOTATION_RE.search(ctx.source) is not None


# ----------------------------------------------------------------------
# Expression classification
# ----------------------------------------------------------------------
def _root_and_first_attr(
    expr: ast.AST,
) -> Tuple[Optional[str], Optional[str], bool]:
    """Resolve ``x.a.b[i].c`` to ``("x", "a", deep)`` where *deep* is
    True when anything beyond the first attribute is traversed."""
    chain: List[str] = []
    subscripted = False
    node = expr
    while True:
        if isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            subscripted = True
            node = node.value
        else:
            break
    if not isinstance(node, ast.Name):
        return None, None, False
    chain.reverse()
    first = chain[0] if chain else None
    deep = len(chain) > 1 or (subscripted and bool(chain))
    return node.id, first, deep


def _frozen_typed_names(
    func: ast.FunctionDef, registry: _Registry
) -> Dict[str, str]:
    """Names in ``func`` whose static type is a frozen class
    (flow-insensitive: annotations + constructor / typed-call results)."""
    out: Dict[str, str] = {}
    for arg in _function_args(func):
        cls = _annotation_name(arg.annotation)
        if cls in registry.frozen_classes:
            out[arg.arg] = cls  # type: ignore[assignment]
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        callee = value.func
        name = None
        if isinstance(callee, ast.Name):
            name = callee.id
        elif isinstance(callee, ast.Attribute):
            name = callee.attr
        cls = None
        if name in registry.frozen_classes:
            cls = name
        elif name in registry.frozen_returning:
            cls = registry.frozen_returning[name]
        if cls is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                out[target.id] = cls
    return out


def _borrowed_names(
    func: ast.FunctionDef, escapes: Dict[str, str]
) -> Set[str]:
    """Parameters annotated ``borrowed`` plus local aliases of them."""
    borrowed: Set[str] = {p for p, k in escapes.items() if k == "borrowed"}
    for _ in range(3):  # fixpoint over simple alias chains
        changed = False
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                if not _expr_is_borrowed(node.value, borrowed):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in borrowed:
                        borrowed.add(target.id)
                        changed = True
            elif isinstance(node, ast.For):
                if not _expr_is_borrowed(node.iter, borrowed):
                    continue
                for target in ast.walk(node.target):
                    if (
                        isinstance(target, ast.Name)
                        and target.id not in borrowed
                    ):
                        borrowed.add(target.id)
                        changed = True
        if not changed:
            break
    return borrowed


def _expr_is_borrowed(expr: ast.AST, borrowed: Set[str]) -> bool:
    """Does ``expr`` alias state reachable from a borrowed name?
    Calls launder (``tuple(x)``, ``x.copy()`` … produce owned values)."""
    node = expr
    while True:
        if isinstance(node, ast.Starred):
            node = node.value
        elif isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        else:
            break
    return isinstance(node, ast.Name) and node.id in borrowed


def _callable_spec(
    call: ast.Call, registry: _Registry
) -> Optional[Tuple[str, List[str], Dict[str, str]]]:
    """(display name, param order, escape kinds) for a resolvable call."""
    callee = call.func
    if isinstance(callee, ast.Name):
        name = callee.id
    elif isinstance(callee, ast.Attribute):
        name = callee.attr
    else:
        return None
    if name in registry.class_params:
        order, escapes = registry.class_params[name]
        return name, order, escapes
    if name in registry.func_params:
        order, escapes = registry.func_params[name]
        return name, order, escapes
    return None


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
def _iter_functions(
    tree: ast.AST,
) -> Iterator[Tuple[Optional[ast.ClassDef], ast.FunctionDef]]:
    for node in tree.body:  # type: ignore[attr-defined]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node  # type: ignore[misc]
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node, stmt  # type: ignore[misc]


def _mutation_findings(
    rule: Rule,
    ctx: ModuleContext,
    func: ast.FunctionDef,
    frozen_names: Dict[str, str],
    registry: _Registry,
) -> Iterator[Finding]:
    def frozen_hit(expr: ast.AST) -> Optional[Tuple[str, str, Optional[str]]]:
        root, first, _deep = _root_and_first_attr(expr)
        if root is None or root not in frozen_names:
            return None
        cls = frozen_names[root]
        info = registry.frozen_classes[cls]
        if not info.attr_is_frozen(first):
            return None
        return root, cls, first

    def describe(root: str, cls: str, first: Optional[str]) -> str:
        where = f"{root}.{first}" if first else root
        return f"{where} (deep-frozen state of {cls})"

    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets: List[ast.AST]
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            else:
                targets = [node.target]
            flat: List[ast.AST] = []
            for target in targets:
                if isinstance(target, (ast.Tuple, ast.List)):
                    flat.extend(target.elts)
                else:
                    flat.append(target)
            for target in flat:
                if isinstance(target, ast.Name):
                    continue  # rebinding a local never mutates
                hit = frozen_hit(target)
                if hit is not None:
                    verb = (
                        "augmented-assigns"
                        if isinstance(node, ast.AugAssign)
                        else "writes"
                    )
                    yield rule.finding(
                        ctx,
                        target,
                        f"in-place mutation: {verb} into "
                        + describe(*hit)
                        + "; frozen state must never be written after "
                        "capture",
                    )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                hit = frozen_hit(target)
                if hit is not None:
                    yield rule.finding(
                        ctx,
                        target,
                        "in-place mutation: deletes from "
                        + describe(*hit),
                    )
        elif isinstance(node, ast.Call):
            callee = node.func
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr in _MUTATING_METHODS
            ):
                hit = frozen_hit(callee.value)
                if hit is not None:
                    yield rule.finding(
                        ctx,
                        node,
                        f"in-place mutation: .{callee.attr}() on "
                        + describe(*hit),
                    )
            elif (
                isinstance(callee, ast.Attribute)
                and callee.attr in _NUMPY_INPLACE_FUNCS
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("np", "numpy")
                and node.args
            ):
                hit = frozen_hit(node.args[0])
                if hit is not None:
                    yield rule.finding(
                        ctx,
                        node,
                        f"in-place mutation: np.{callee.attr}() writes "
                        "into " + describe(*hit),
                    )


@register
class FrozenMutationRule(ProjectRule):
    id = "frozen-mutation"
    description = (
        "in-place mutation of deep-frozen state: subscript/augmented/"
        "attribute stores or mutating method calls (.append/.sort/"
        "ndarray in-place) on snapshot-reachable objects, including "
        "self-mutation inside frozen classes outside __init__/capture"
    )
    severity = "error"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return _in_scope(ctx)

    def check_project(
        self, contexts: Sequence[ModuleContext]
    ) -> Iterator[Finding]:
        registry = _build_registry(contexts)
        if not registry.frozen_classes:
            return
        for ctx in contexts:
            model = registry.modules[ctx.path]
            for cls_node, func in _iter_functions(ctx.tree):
                frozen_names = _frozen_typed_names(func, registry)
                if cls_node is not None:
                    info = model.classes.get(cls_node.name)
                    if (
                        info is not None
                        and info.is_frozen
                        and func.name not in info.capture_methods
                    ):
                        frozen_names.setdefault("self", cls_node.name)
                        registry.frozen_classes.setdefault(cls_node.name, info)
                    else:
                        frozen_names.pop("self", None)
                if not frozen_names:
                    continue
                yield from _mutation_findings(
                    self, ctx, func, frozen_names, registry
                )


@register
class FrozenEscapeRule(ProjectRule):
    id = "frozen-escape"
    description = (
        "aliasing leak into the frozen surface: a borrowed value stored "
        "into a deep-frozen attribute or passed into an owned parameter "
        "position without a defensive copy, an escape:copy attribute "
        "assigned a non-copying expression, or a mutable parameter "
        "stored into a frozen attribute with no escape annotation"
    )
    severity = "error"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return _in_scope(ctx)

    def check_project(
        self, contexts: Sequence[ModuleContext]
    ) -> Iterator[Finding]:
        registry = _build_registry(contexts)
        for ctx in contexts:
            model = registry.modules[ctx.path]
            for cls_node, func in _iter_functions(ctx.tree):
                yield from self._check_function(
                    ctx, model, cls_node, func, registry
                )

    # ------------------------------------------------------------------
    def _check_function(
        self,
        ctx: ModuleContext,
        model: ModuleImmutability,
        cls_node: Optional[ast.ClassDef],
        func: ast.FunctionDef,
        registry: _Registry,
    ) -> Iterator[Finding]:
        own_escapes: Dict[str, str] = {}
        info: Optional[ClassImmutability] = None
        if cls_node is not None:
            info = model.classes.get(cls_node.name)
        if cls_node is None:
            own_escapes = dict(registry.func_params.get(func.name, ([], {}))[1])
        elif info is not None and func.name in _INIT_METHODS:
            own_escapes = dict(info.init_escapes)
        else:
            own_escapes = dict(model.func_params.get(func.name, ([], {}))[1])
        borrowed = _borrowed_names(func, own_escapes)

        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, borrowed, registry)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                if info is None or node.value is None:
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    path = self_attr_path(target)
                    if path is None or len(path) != 1:
                        continue
                    yield from self._check_store(
                        ctx, info, func, path[0], node, borrowed
                    )

    def _check_call(
        self,
        ctx: ModuleContext,
        call: ast.Call,
        borrowed: Set[str],
        registry: _Registry,
    ) -> Iterator[Finding]:
        spec = _callable_spec(call, registry)
        if spec is None:
            return
        name, order, escapes = spec
        if not escapes:
            return
        bound: List[Tuple[str, ast.expr]] = []
        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            if position < len(order):
                bound.append((order[position], arg))
        for keyword in call.keywords:
            if keyword.arg is not None:
                bound.append((keyword.arg, keyword.value))
        for param, value in bound:
            if escapes.get(param) != "owned":
                continue
            if _expr_is_borrowed(value, borrowed):
                yield self.finding(
                    ctx,
                    value,
                    f"aliasing leak: borrowed value escapes into the "
                    f"owned parameter {param!r} of {name}; the callee "
                    "will retain it in frozen state — pass a defensive "
                    "copy (the writer keeps mutating the original)",
                )

    def _check_store(
        self,
        ctx: ModuleContext,
        info: ClassImmutability,
        func: ast.FunctionDef,
        attr: str,
        node: ast.stmt,
        borrowed: Set[str],
    ) -> Iterator[Finding]:
        value = node.value  # type: ignore[attr-defined]
        escape = info.attr_escapes.get(attr)
        if escape == "borrowed":
            return  # deliberately aliased (documented unsafe-shared)
        if escape == "copy":
            if not isinstance(value, ast.Call):
                yield self.finding(
                    ctx,
                    node,
                    f"attribute {attr!r} is declared escape:copy but is "
                    "assigned a non-copying expression; store "
                    "list(x)/x.copy()/tuple(x) instead",
                )
            return
        frozen_attr = info.attr_is_frozen(attr) and (
            attr in info.frozen_attrs or info.class_level
        )
        if not frozen_attr:
            return
        if _expr_is_borrowed(value, borrowed):
            yield self.finding(
                ctx,
                node,
                f"aliasing leak: borrowed value stored into deep-frozen "
                f"attribute {info.name}.{attr}; copy it first",
            )
            return
        if (
            func.name in _INIT_METHODS
            and isinstance(value, ast.Name)
            and value.id in info.init_param_types
            and value.id not in info.init_escapes
            and not _annotation_is_immutable(info.init_param_types[value.id])
        ):
            yield self.finding(
                ctx,
                node,
                f"parameter {value.id!r} is stored into deep-frozen "
                f"attribute {info.name}.{attr} with no escape "
                "annotation; declare '# escape: owned' (ownership "
                "transfer) or copy it",
            )


@register
class FrozenAnnotationRule(Rule):
    id = "frozen-invalid"
    description = (
        "a malformed or unattached immutability annotation (deep-frozen/"
        "frozen-after/escape/frozen-exempt), an unknown escape kind, or "
        "a frozen-after naming an undefined method"
    )
    severity = "error"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return _in_scope(ctx)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        model = build_module_immutability(ctx)
        for line, col, message in model.invalid:
            yield Finding(
                path=ctx.path,
                line=line,
                col=col,
                rule=self.id,
                message=message,
                severity=self.severity,
            )


# ----------------------------------------------------------------------
# Runtime support: the freezer consults the same annotations
# ----------------------------------------------------------------------
_EXEMPT_CACHE: Dict[type, FrozenSet[str]] = {}


def frozen_exempt_attrs(cls: type) -> FrozenSet[str]:
    """Attributes of ``cls`` annotated ``# frozen-exempt`` in its source.

    The runtime freezer (:mod:`repro.analysis.freeze`) skips these when
    deep-freezing a captured object graph — they are mutable scratch
    state with their own locking discipline (e.g. the epoch-marking
    arrays of :class:`~repro.index.mst.MSTIndex`, which a frozen holder
    must serialize behind its own lock).  Returns an empty set when the
    source is unavailable (frozen executables, REPLs).
    """
    try:
        return _EXEMPT_CACHE[cls]
    except KeyError:
        pass
    exempt: FrozenSet[str] = frozenset()
    try:
        import inspect
        import sys

        module = sys.modules.get(cls.__module__)
        source = inspect.getsource(module) if module is not None else None
        if source is not None:
            tree = ast.parse(source)
            ann = _scan_annotations(source, tree)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.ClassDef)
                    and node.name == cls.__name__
                ):
                    model = ModuleImmutability()
                    info = _scan_class(node, ann, model)
                    exempt = frozenset(info.exempt_attrs)
                    break
    except (OSError, TypeError, SyntaxError):
        exempt = frozenset()
    _EXEMPT_CACHE[cls] = exempt
    return exempt
