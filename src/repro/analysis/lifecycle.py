"""Resource-lifecycle ownership analysis (the static prong).

The sharded serving tier lives on manual resource discipline: shm
segments unlinked on last detach, crash-only worker processes, pipes,
file handles, pools and asyncio task handles.  A single missed
``close()`` on an exception edge leaks ``/dev/shm``.  This module makes
the discipline machine-checked, the same dual-prong treatment the
``guarded-by`` contract received; :mod:`repro.analysis.leaktrack` is
the dynamic prong.

The checker runs an intraprocedural may-analysis over each function
body.  Control flow is interpreted compositionally — ``if``/loops
join branch states, ``try``/``except``/``finally`` route an explicit
*exception state* (the join of the pre-states of every statement that
can raise) through handlers and finally blocks, and ``return`` /
``raise`` / ``break`` / ``continue`` states are threaded separately so
a ``finally`` is analyzed once per continuation kind.  Each acquired
resource is a *site* (the acquisition statement); along every path a
site is some subset of {held, released, transferred}.

Rules:

``resource-leak``
    a site whose *held* state reaches function exit — the normal exit,
    a ``return``, or the exceptional exit — with no release or
    ownership transfer on that path.
``double-release``
    a release reachable while a prior release may already have
    happened along the same path (non-idempotent ``close()``).
``blocking-in-async``
    a known-blocking call (lock ``acquire``, pipe ``recv``,
    ``time.sleep``, a blocking shm attach, a ``with`` on a lock)
    directly inside an ``async def`` body.  Nested function bodies are
    exempt — that is exactly the ``loop.run_in_executor`` hop.
``lifecycle-invalid``
    an annotation that does not parse, attaches to nothing, or names a
    parameter/kind that does not exist.

Annotation language (trailing comment on the anchor line, or on a
comment-only line directly above it):

``# owns: <kind>`` on a ``def``/``class``
    calls to that function/class are resource factories: the returned
    value is an owned resource of ``<kind>``.
``# owns: <kind>`` on an assignment
    the bound name acquires an owned resource even when the right-hand
    side is not a recognized factory (e.g. popping a segment out of an
    ownership table).
``# releases: <param>`` on a ``def``
    call sites passing a tracked resource in that parameter position
    release it.
``# transfers[: name, ...]`` on a statement
    ownership of the named (default: all) tracked resources moves out
    of the function here; applied on the exception edge too — the
    annotation asserts the handoff is unconditional.
``# borrowed-resource`` on an assignment
    the binding is a read-only loan; do not track it.

Built-in factories: ``open`` -> file, ``SharedMemory`` -> shm-segment,
``ThreadPoolExecutor``/``ProcessPoolExecutor`` -> pool, ``Pipe`` ->
pipe (a 2-tuple of connections), ``Process`` -> worker-process,
``create_task`` -> asyncio-task, ``np.load`` -> npz.  Releases per
kind: close (file/shm-segment/pipe/npz), shutdown (pool),
join/terminate/kill (worker-process), cancel (asyncio-task); custom
``# owns:`` kinds release through close/stop/shutdown/cancel/release.

Implicit transfers: ``return x``, storing into an attribute or
subscript, ``container.append/add/put(x)``, rebinding into a
``nonlocal``/``global`` name, and capture by a nested ``def``/lambda
(the closure now owns the reference).  ``with factory() as x`` is
context-managed and never tracked.  Method calls *on* a tracked
resource and calls to ``# releases:``-annotated helpers are assumed
not to raise (a ``close()`` that fails half-way is out of scope), so
``shm.unlink()`` inside a cleanup path does not manufacture an
exception edge.  ``if x is None`` narrows: the resource
bound to ``x`` does not exist on the ``None`` branch.
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

from repro.analysis.engine import comment_only_lines
from repro.analysis.findings import Finding, ModuleContext
from repro.analysis.rules import Rule, register

__all__ = [
    "LIFECYCLE_RULE_IDS",
    "ResourceLeakRule",
    "DoubleReleaseRule",
    "BlockingInAsyncRule",
    "LifecycleInvalidRule",
]

LIFECYCLE_RULE_IDS = frozenset(
    {
        "resource-leak",
        "double-release",
        "blocking-in-async",
        "lifecycle-invalid",
    }
)

_HELD = "held"
_RELEASED = "released"
_TRANSFERRED = "transferred"

#: call-name -> resource kind for the built-in factory table
_NAME_FACTORIES: Dict[str, str] = {
    "open": "file",
    "SharedMemory": "shm-segment",
    "ThreadPoolExecutor": "pool",
    "ProcessPoolExecutor": "pool",
    "Pipe": "pipe",
    "Process": "worker-process",
    "create_task": "asyncio-task",
}

#: factories whose result is a 2-tuple of resources (``a, b = Pipe()``)
_PAIR_FACTORIES = frozenset({"pipe"})

_KIND_RELEASES: Dict[str, FrozenSet[str]] = {
    "file": frozenset({"close"}),
    # unlink removes the /dev/shm *name*; close releases the mapping.
    "shm-segment": frozenset({"close"}),
    "pipe": frozenset({"close"}),
    "pool": frozenset({"shutdown"}),
    "worker-process": frozenset({"join", "terminate", "kill"}),
    "asyncio-task": frozenset({"cancel"}),
    "npz": frozenset({"close"}),
}
_DEFAULT_RELEASES = frozenset(
    {"close", "stop", "shutdown", "cancel", "release"}
)

_CONTAINER_TRANSFER_METHODS = frozenset(
    {"append", "appendleft", "add", "put", "put_nowait"}
)

#: method names that block the event loop when called in an async body
_BLOCKING_METHODS = frozenset({"acquire", "recv", "recv_bytes"})
#: call names that block (shm attach maps and may fault in pages)
_BLOCKING_CALLS = frozenset({"_attach_segment", "SharedMemory"})

_ANN_RE = re.compile(
    r"#\s*(?P<kw>owns|releases|transfers|borrowed-resource)"
    r"(?:\s*:\s*(?P<arg>[^#]*?))?\s*(?:#.*)?$"
)
_KIND_RE = re.compile(r"^[a-z][a-z0-9_-]*$")
_NAME_LIST_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


# ----------------------------------------------------------------------
# Annotation parsing and anchoring
# ----------------------------------------------------------------------
@dataclass
class _Annotation:
    kw: str
    arg: Optional[str]
    line: int


def _string_lines(tree: ast.AST) -> FrozenSet[int]:
    """Lines that can only be inside a multi-line string literal."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
            out.update(range(node.lineno, end + 1))
    return frozenset(out)


def _parse_annotations(
    source: str, inert: FrozenSet[int]
) -> Dict[int, _Annotation]:
    anns: Dict[int, _Annotation] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if lineno in inert or "#" not in text:
            continue
        match = _ANN_RE.search(text)
        if match is None:
            continue
        arg = match.group("arg")
        anns[lineno] = _Annotation(
            kw=match.group("kw"),
            arg=arg.strip() if arg is not None else None,
            line=lineno,
        )
    return anns


_SIMPLE_STMTS = (
    ast.Assign,
    ast.AnnAssign,
    ast.AugAssign,
    ast.Return,
    ast.Expr,
    ast.Raise,
    ast.Delete,
)
_DEF_STMTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


# ----------------------------------------------------------------------
# Per-module model
# ----------------------------------------------------------------------
@dataclass
class _ModuleInfo:
    """Everything the function interpreter needs about its module."""

    #: function/class name -> resource kind (from ``# owns:`` on defs)
    factories: Dict[str, str] = field(default_factory=dict)
    #: function name -> (parameter names, releasing parameter)
    releasers: Dict[str, Tuple[Tuple[str, ...], str]] = field(
        default_factory=dict
    )
    #: id(stmt) -> annotation anchored on that statement
    stmt_anns: Dict[int, _Annotation] = field(default_factory=dict)
    numpy_aliases: Set[str] = field(default_factory=set)
    time_aliases: Set[str] = field(default_factory=set)
    #: local names bound to ``time.sleep`` via ``from time import sleep``
    sleep_names: Set[str] = field(default_factory=set)


@dataclass
class _Report:
    leaks: List[Tuple[int, int, str]] = field(default_factory=list)
    doubles: List[Tuple[int, int, str]] = field(default_factory=list)
    blocking: List[Tuple[int, int, str]] = field(default_factory=list)
    invalid: List[Tuple[int, int, str]] = field(default_factory=list)


def _scan_imports(tree: ast.Module, info: _ModuleInfo) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name.split(".")[0] == "numpy":
                    info.numpy_aliases.add(bound)
                if alias.name == "time":
                    info.time_aliases.add(bound)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        info.sleep_names.add(alias.asname or alias.name)
            elif node.module == "numpy":
                for alias in node.names:
                    info.numpy_aliases.add(alias.asname or alias.name)


def _anchor_annotations(
    tree: ast.Module,
    anns: Dict[int, _Annotation],
    comment_only: FrozenSet[int],
    info: _ModuleInfo,
    report: _Report,
) -> None:
    """Attach each annotation to its statement; unanchored -> invalid."""
    by_line: Dict[int, List[ast.stmt]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            by_line.setdefault(node.lineno, []).append(node)

    for line, ann in sorted(anns.items()):
        if line in comment_only:
            candidates = by_line.get(line + 1, [])
        else:
            candidates = by_line.get(line, [])
        anchor = _choose_anchor(ann, candidates)
        if anchor is None:
            report.invalid.append(
                (
                    line,
                    0,
                    f"# {ann.kw}: annotation attaches to no "
                    f"{_ANCHOR_DESC[ann.kw]}",
                )
            )
            continue
        _register_annotation(ann, anchor, info, report)


_ANCHOR_DESC = {
    "owns": "def/class or assignment",
    "releases": "function definition",
    "transfers": "statement",
    "borrowed-resource": "assignment",
}


def _choose_anchor(
    ann: _Annotation, candidates: Sequence[ast.stmt]
) -> Optional[ast.stmt]:
    if ann.kw == "owns":
        for node in candidates:
            if isinstance(node, _DEF_STMTS):
                return node
        for node in candidates:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                return node
        return None
    if ann.kw == "releases":
        for node in candidates:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node
        return None
    if ann.kw == "borrowed-resource":
        for node in candidates:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                return node
        return None
    # transfers: any simple statement
    for node in candidates:
        if isinstance(node, _SIMPLE_STMTS):
            return node
    return None


def _register_annotation(
    ann: _Annotation,
    anchor: ast.stmt,
    info: _ModuleInfo,
    report: _Report,
) -> None:
    if ann.kw == "owns":
        kind = ann.arg or ""
        if not _KIND_RE.match(kind):
            report.invalid.append(
                (
                    ann.line,
                    0,
                    f"# owns: kind {kind!r} does not parse "
                    "(expected a lowercase-dashed token)",
                )
            )
            return
        if isinstance(anchor, _DEF_STMTS):
            info.factories[anchor.name] = kind
        else:
            info.stmt_anns[id(anchor)] = ann
        return
    if ann.kw == "releases":
        fn = anchor
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        params = tuple(
            a.arg
            for a in (
                list(getattr(fn.args, "posonlyargs", []))
                + fn.args.args
                + fn.args.kwonlyargs
            )
        )
        target = ann.arg or ""
        if target not in params:
            report.invalid.append(
                (
                    ann.line,
                    0,
                    f"# releases: {target!r} is not a parameter of "
                    f"{fn.name}()",
                )
            )
            return
        info.releasers[fn.name] = (params, target)
        return
    if ann.kw == "transfers" and ann.arg:
        names = [part.strip() for part in ann.arg.split(",")]
        if not all(_NAME_LIST_RE.match(name) for name in names):
            report.invalid.append(
                (
                    ann.line,
                    0,
                    f"# transfers: name list {ann.arg!r} does not parse",
                )
            )
            return
    info.stmt_anns[id(anchor)] = ann


# ----------------------------------------------------------------------
# The dataflow state
# ----------------------------------------------------------------------
class _State:
    """May-states per acquisition site + name -> site bindings."""

    __slots__ = ("res", "bind")

    def __init__(
        self,
        res: Optional[Dict[int, FrozenSet[str]]] = None,
        bind: Optional[Dict[str, int]] = None,
    ) -> None:
        self.res: Dict[int, FrozenSet[str]] = res if res is not None else {}
        self.bind: Dict[str, int] = bind if bind is not None else {}

    def copy(self) -> "_State":
        return _State(dict(self.res), dict(self.bind))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _State)
            and self.res == other.res
            and self.bind == other.bind
        )

    def __hash__(self) -> int:  # pragma: no cover - unused, keeps mypy calm
        return 0


def _join(a: Optional[_State], b: Optional[_State]) -> Optional[_State]:
    if a is None:
        return b.copy() if b is not None else None
    if b is None:
        return a.copy()
    res: Dict[int, FrozenSet[str]] = {}
    for site in set(a.res) | set(b.res):
        res[site] = a.res.get(site, frozenset()) | b.res.get(
            site, frozenset()
        )
    bind: Dict[str, int] = {}
    for name in set(a.bind) | set(b.bind):
        sa = a.bind.get(name)
        sb = b.bind.get(name)
        if sa is None:
            bind[name] = sb  # type: ignore[assignment]
        elif sb is None or sa == sb:
            bind[name] = sa
        # conflicting bindings: drop the name, keep both sites
    return _State(res, bind)


@dataclass
class _Result:
    normal: Optional[_State]
    exc: Optional[_State] = None
    ret: Optional[_State] = None
    brk: Optional[_State] = None
    cont: Optional[_State] = None


@dataclass
class _Site:
    line: int
    col: int
    kind: str
    name: str


_MAX_LOOP_ITERATIONS = 16


class _FunctionAnalyzer:
    """Runs the lifecycle may-analysis over one function body."""

    def __init__(self, info: _ModuleInfo, report: _Report) -> None:
        self.info = info
        self.report = report
        self.sites: Dict[int, _Site] = {}
        self._site_ids: Dict[Tuple[int, int, str, str], int] = {}
        self.escaping: Set[str] = set()  # nonlocal/global names

    # -- site/state helpers -------------------------------------------
    def _new_site(self, line: int, col: int, kind: str, name: str) -> int:
        """Site id for one acquisition statement.

        Keyed by position so loop fixpoint iterations re-executing the
        statement converge on one site instead of minting fresh ones.
        """
        key = (line, col, kind, name)
        site = self._site_ids.get(key)
        if site is None:
            site = len(self._site_ids)
            self._site_ids[key] = site
            self.sites[site] = _Site(line, col, kind, name)
        return site

    def _releases_for(self, kind: str) -> FrozenSet[str]:
        return _KIND_RELEASES.get(kind, _DEFAULT_RELEASES)

    def _release(
        self, state: _State, site: int, line: int, col: int
    ) -> None:
        states = state.res.get(site, frozenset())
        if _RELEASED in states:
            info = self.sites[site]
            self.report.doubles.append(
                (
                    line,
                    col,
                    f"possible second release of the {info.kind} acquired "
                    f"at line {info.line} ({info.name!r}): a path reaches "
                    "this release with the resource already released "
                    "(non-idempotent close())",
                )
            )
        state.res[site] = (states - {_HELD}) | {_RELEASED}

    def _transfer(self, state: _State, site: int) -> None:
        states = state.res.get(site, frozenset())
        state.res[site] = (states - {_HELD}) | {_TRANSFERRED}

    def _transfer_name(self, state: _State, name: str) -> None:
        site = state.bind.get(name)
        if site is not None:
            self._transfer(state, site)

    # -- expression classification ------------------------------------
    def _call_kind(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
            if (
                name == "load"
                and isinstance(func.value, ast.Name)
                and func.value.id in self.info.numpy_aliases
            ):
                return "npz"
        else:
            return None
        if name in _NAME_FACTORIES:
            return _NAME_FACTORIES[name]
        return self.info.factories.get(name)

    def _risky(self, node: ast.AST, state: _State) -> bool:
        """Can executing this node raise (statement exception edge)?

        Calls raise — except method calls on a tracked resource, which
        the analysis assumes complete (``close()`` failing half-way is
        out of scope; this is what keeps cleanup code analyzable).
        Nested function/lambda bodies do not execute here.
        """
        stack: List[ast.AST] = [node]
        while stack:
            cur = stack.pop()
            if isinstance(
                cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(cur, ast.Call):
                func = cur.func
                fname = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else func.id
                    if isinstance(func, ast.Name)
                    else None
                )
                benign = (
                    # a ``# releases:``-annotated helper is cleanup code:
                    # assumed to complete, like close() itself
                    fname is not None
                    and fname in self.info.releasers
                ) or (
                    isinstance(func, ast.Attribute)
                    and (
                        # method on a tracked resource (close()/unlink()/
                        # start() assumed to complete)
                        (
                            isinstance(func.value, ast.Name)
                            and func.value.id in state.bind
                        )
                        # container primitives (append/add/put) never
                        # raise in a way that loses the argument
                        or func.attr in _CONTAINER_TRANSFER_METHODS
                    )
                )
                if not benign:
                    return True
            stack.extend(ast.iter_child_nodes(cur))
        return False

    def _tracked_names_in(
        self, node: ast.AST, state: _State
    ) -> List[str]:
        out = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in state.bind:
                out.append(sub.id)
        return out

    # -- annotation effects -------------------------------------------
    def _ann_for(self, stmt: ast.stmt) -> Optional[_Annotation]:
        return self.info.stmt_anns.get(id(stmt))

    def _apply_transfers_ann(
        self, state: _State, stmt: ast.stmt, ann: Optional[_Annotation]
    ) -> None:
        if ann is None or ann.kw != "transfers":
            return
        if ann.arg:
            names = [part.strip() for part in ann.arg.split(",")]
        else:
            names = self._tracked_names_in(stmt, state)
        for name in names:
            self._transfer_name(state, name)

    def _apply_closure_escapes(
        self, state: _State, stmt: ast.stmt
    ) -> None:
        """Capture by a nested def/lambda transfers the reference."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(stmt))
        while stack:
            cur = stack.pop()
            if isinstance(
                cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                for name in self._tracked_names_in(cur, state):
                    self._transfer_name(state, name)
                continue
            stack.extend(ast.iter_child_nodes(cur))

    # -- call effects --------------------------------------------------
    def _apply_call_effects(self, call: ast.Call, state: _State) -> bool:
        """Releases/transfers triggered by one call; True if a release."""
        func = call.func
        released = False
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            site = state.bind.get(func.value.id)
            if site is not None:
                if func.attr in self._releases_for(self.sites[site].kind):
                    self._release(
                        state, site, call.lineno, call.col_offset
                    )
                    released = True
            elif func.attr in _CONTAINER_TRANSFER_METHODS:
                for arg in call.args:
                    if isinstance(arg, ast.Name):
                        self._transfer_name(state, arg.id)
        name = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id
            if isinstance(func, ast.Name)
            else None
        )
        if name is not None and name in self.info.releasers:
            params, target = self.info.releasers[name]
            offset = (
                1
                if isinstance(func, ast.Attribute)
                and params
                and params[0] in ("self", "cls")
                else 0
            )
            matched: Optional[ast.expr] = None
            for index, arg in enumerate(call.args):
                pos = index + offset
                if pos < len(params) and params[pos] == target:
                    matched = arg
                    break
            for keyword in call.keywords:
                if keyword.arg == target:
                    matched = keyword.value
            if isinstance(matched, ast.Name):
                site = state.bind.get(matched.id)
                if site is not None:
                    self._release(
                        state, site, call.lineno, call.col_offset
                    )
                    released = True
        return released

    def _apply_await_release(
        self, awaited: ast.expr, state: _State
    ) -> None:
        """Awaiting a task handle consumes it."""
        for name in self._tracked_names_in(awaited, state):
            site = state.bind.get(name)
            if (
                site is not None
                and self.sites[site].kind == "asyncio-task"
            ):
                self._release(
                    state, site, awaited.lineno, awaited.col_offset
                )

    # -- branch refinement --------------------------------------------
    def _refine(
        self, state: Optional[_State], test: ast.expr, branch: bool
    ) -> Optional[_State]:
        if state is None:
            return None
        out = state.copy()
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.IsNot))
            and isinstance(test.left, ast.Name)
            and len(test.comparators) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            is_none_branch = (
                branch
                if isinstance(test.ops[0], ast.Is)
                else not branch
            )
            if is_none_branch:
                name = test.left.id
                site = out.bind.pop(name, None)
                if site is not None:
                    out.res.pop(site, None)
        return out

    # -- statement interpreter ----------------------------------------
    def exec_block(
        self, stmts: Sequence[ast.stmt], state: Optional[_State]
    ) -> _Result:
        exc = ret = brk = cont = None
        for stmt in stmts:
            if state is None:
                break
            result = self._exec_stmt(stmt, state)
            exc = _join(exc, result.exc)
            ret = _join(ret, result.ret)
            brk = _join(brk, result.brk)
            cont = _join(cont, result.cont)
            state = result.normal
        return _Result(state, exc, ret, brk, cont)

    def _exec_stmt(self, stmt: ast.stmt, state: _State) -> _Result:
        if isinstance(stmt, ast.If):
            return self._exec_if(stmt, state)
        if isinstance(stmt, ast.While):
            return self._exec_while(stmt, state)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._exec_for(stmt, state)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._exec_with(stmt, state)
        if isinstance(stmt, ast.Try):
            return self._exec_try(stmt, state)
        if isinstance(stmt, ast.Break):
            return _Result(None, brk=state)
        if isinstance(stmt, ast.Continue):
            return _Result(None, cont=state)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            post = state.copy()
            for name in self._tracked_names_in(stmt, post):
                self._transfer_name(post, name)
            post.bind.pop(stmt.name, None)
            return _Result(post)
        if isinstance(stmt, ast.ClassDef):
            post = state.copy()
            post.bind.pop(stmt.name, None)
            return _Result(post)
        return self._exec_simple(stmt, state)

    def _exec_simple(self, stmt: ast.stmt, state: _State) -> _Result:
        ann = self._ann_for(stmt)
        post = state.copy()
        exc_state: Optional[_State] = None
        risky = self._risky(stmt, state)
        if risky or isinstance(stmt, ast.Raise):
            exc_state = state.copy()
            self._apply_transfers_ann(exc_state, stmt, ann)

        self._apply_closure_escapes(post, stmt)

        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            self._exec_assign(stmt, post, ann)
        elif isinstance(stmt, ast.Expr):
            self._exec_expr(stmt, post)
        elif isinstance(stmt, ast.Return):
            self._apply_transfers_ann(post, stmt, ann)
            value = stmt.value
            if isinstance(value, ast.Name):
                self._transfer_name(post, value.id)
            elif isinstance(value, ast.Tuple):
                for elt in value.elts:
                    if isinstance(elt, ast.Name):
                        self._transfer_name(post, elt.id)
            return _Result(None, exc=exc_state, ret=post)
        elif isinstance(stmt, ast.Raise):
            self._apply_transfers_ann(post, stmt, ann)
            return _Result(None, exc=post)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    post.bind.pop(target.id, None)
        self._apply_transfers_ann(post, stmt, ann)
        return _Result(post, exc=exc_state)

    def _exec_assign(
        self,
        stmt: ast.stmt,
        post: _State,
        ann: Optional[_Annotation],
    ) -> None:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        else:
            targets = [stmt.target]  # type: ignore[attr-defined]
            value = stmt.value  # type: ignore[attr-defined]
        if isinstance(value, ast.Await):
            self._apply_await_release(value.value, post)
            value = value.value
        if isinstance(value, ast.Call):
            self._apply_call_effects(value, post)

        borrowed = ann is not None and ann.kw == "borrowed-resource"
        owns_kind = (
            ann.arg if ann is not None and ann.kw == "owns" else None
        )
        call_kind = (
            self._call_kind(value)
            if isinstance(value, ast.Call)
            else None
        )

        for target in targets:
            if isinstance(target, ast.Name):
                if borrowed:
                    post.bind.pop(target.id, None)
                    continue
                kind = owns_kind or call_kind
                if kind is not None:
                    site = self._new_site(
                        stmt.lineno, stmt.col_offset, kind, target.id
                    )
                    post.res[site] = frozenset({_HELD})
                    post.bind[target.id] = site
                    if target.id in self.escaping:
                        self._transfer(post, site)
                elif (
                    isinstance(value, ast.Name)
                    and value.id in post.bind
                ):
                    post.bind[target.id] = post.bind[value.id]
                    if target.id in self.escaping:
                        self._transfer_name(post, target.id)
                else:
                    post.bind.pop(target.id, None)
            elif isinstance(target, ast.Tuple):
                names = [
                    elt.id
                    for elt in target.elts
                    if isinstance(elt, ast.Name)
                ]
                if (
                    call_kind in _PAIR_FACTORIES
                    and len(names) == len(target.elts)
                ):
                    for name in names:
                        site = self._new_site(
                            stmt.lineno,
                            stmt.col_offset,
                            call_kind,
                            name,
                        )
                        post.res[site] = frozenset({_HELD})
                        post.bind[name] = site
                        if name in self.escaping:
                            self._transfer(post, site)
                else:
                    for name in names:
                        post.bind.pop(name, None)
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                if isinstance(value, ast.Name):
                    self._transfer_name(post, value.id)

    def _exec_expr(self, stmt: ast.Expr, post: _State) -> None:
        value = stmt.value
        if isinstance(value, ast.Await):
            self._apply_await_release(value.value, post)
            value = value.value
        if isinstance(value, (ast.Yield, ast.YieldFrom)):
            return
        if isinstance(value, ast.Call):
            handled = self._apply_call_effects(value, post)
            if not handled:
                kind = self._call_kind(value)
                if kind is not None:
                    site = self._new_site(
                        stmt.lineno, stmt.col_offset, kind, "<discarded>"
                    )
                    post.res[site] = frozenset({_HELD})

    # -- compound statements ------------------------------------------
    def _exec_if(self, stmt: ast.If, state: _State) -> _Result:
        exc = (
            state.copy() if self._risky(stmt.test, state) else None
        )
        then_r = self.exec_block(
            stmt.body, self._refine(state, stmt.test, True)
        )
        else_r = self.exec_block(
            stmt.orelse, self._refine(state, stmt.test, False)
        )
        return _Result(
            _join(then_r.normal, else_r.normal),
            exc=_join(exc, _join(then_r.exc, else_r.exc)),
            ret=_join(then_r.ret, else_r.ret),
            brk=_join(then_r.brk, else_r.brk),
            cont=_join(then_r.cont, else_r.cont),
        )

    def _exec_while(self, stmt: ast.While, state: _State) -> _Result:
        exc = (
            state.copy() if self._risky(stmt.test, state) else None
        )
        ret = brk_acc = None
        loop: Optional[_State] = state
        for _ in range(_MAX_LOOP_ITERATIONS):
            body_in = self._refine(loop, stmt.test, True)
            result = self.exec_block(stmt.body, body_in)
            exc = _join(exc, result.exc)
            ret = _join(ret, result.ret)
            brk_acc = _join(brk_acc, result.brk)
            new = _join(loop, _join(result.normal, result.cont))
            if new == loop:
                break
            loop = new
        infinite = (
            isinstance(stmt.test, ast.Constant)
            and stmt.test.value is True
        )
        test_exit = (
            None if infinite else self._refine(loop, stmt.test, False)
        )
        if stmt.orelse and test_exit is not None:
            orelse_r = self.exec_block(stmt.orelse, test_exit)
            exc = _join(exc, orelse_r.exc)
            ret = _join(ret, orelse_r.ret)
            test_exit = orelse_r.normal
        return _Result(_join(test_exit, brk_acc), exc=exc, ret=ret)

    def _exec_for(self, stmt: ast.stmt, state: _State) -> _Result:
        exc = (
            state.copy()
            if self._risky(stmt.iter, state)  # type: ignore[attr-defined]
            else None
        )
        entry = state.copy()
        for name in self._target_names(stmt.target):  # type: ignore[attr-defined]
            entry.bind.pop(name, None)
        ret = brk_acc = None
        loop: Optional[_State] = entry
        for _ in range(_MAX_LOOP_ITERATIONS):
            result = self.exec_block(stmt.body, loop)  # type: ignore[attr-defined]
            exc = _join(exc, result.exc)
            ret = _join(ret, result.ret)
            brk_acc = _join(brk_acc, result.brk)
            new = _join(loop, _join(result.normal, result.cont))
            if new == loop:
                break
            loop = new
        normal: Optional[_State] = loop
        orelse = getattr(stmt, "orelse", [])
        if orelse and normal is not None:
            orelse_r = self.exec_block(orelse, normal)
            exc = _join(exc, orelse_r.exc)
            ret = _join(ret, orelse_r.ret)
            normal = orelse_r.normal
        return _Result(_join(normal, brk_acc), exc=exc, ret=ret)

    @staticmethod
    def _target_names(target: ast.expr) -> List[str]:
        out = []
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                out.append(node.id)
        return out

    def _exec_with(self, stmt: ast.stmt, state: _State) -> _Result:
        exc = None
        post = state.copy()
        for item in stmt.items:  # type: ignore[attr-defined]
            if self._risky(item.context_expr, post):
                exc = _join(exc, post)
            if isinstance(item.optional_vars, ast.Name):
                post.bind.pop(item.optional_vars.id, None)
        body_r = self.exec_block(stmt.body, post)  # type: ignore[attr-defined]
        return _Result(
            body_r.normal,
            exc=_join(exc, body_r.exc),
            ret=body_r.ret,
            brk=body_r.brk,
            cont=body_r.cont,
        )

    def _exec_try(self, stmt: ast.Try, state: _State) -> _Result:
        body_r = self.exec_block(stmt.body, state)
        caught = body_r.exc
        normal = body_r.normal
        ret = body_r.ret
        brk = body_r.brk
        cont = body_r.cont
        handler_normal = escaping = None
        if stmt.handlers:
            for handler in stmt.handlers:
                handler_in = caught.copy() if caught is not None else None
                if handler_in is not None and handler.name:
                    handler_in.bind.pop(handler.name, None)
                handler_r = self.exec_block(handler.body, handler_in)
                handler_normal = _join(handler_normal, handler_r.normal)
                escaping = _join(escaping, handler_r.exc)
                ret = _join(ret, handler_r.ret)
                brk = _join(brk, handler_r.brk)
                cont = _join(cont, handler_r.cont)
            if not self._catches_all(stmt.handlers):
                escaping = _join(escaping, caught)
        else:
            escaping = caught
        if stmt.orelse and normal is not None:
            orelse_r = self.exec_block(stmt.orelse, normal)
            normal = orelse_r.normal
            escaping = _join(escaping, orelse_r.exc)
            ret = _join(ret, orelse_r.ret)
            brk = _join(brk, orelse_r.brk)
            cont = _join(cont, orelse_r.cont)
        pre_normal = _join(normal, handler_normal)
        if not stmt.finalbody:
            return _Result(pre_normal, escaping, ret, brk, cont)

        fin_exc: Optional[_State] = None

        def through_finally(
            continuation: Optional[_State],
        ) -> Optional[_State]:
            nonlocal fin_exc
            if continuation is None:
                return None
            fin_r = self.exec_block(stmt.finalbody, continuation)
            fin_exc = _join(fin_exc, fin_r.exc)
            return fin_r.normal

        normal_out = through_finally(pre_normal)
        exc_out = through_finally(escaping)
        ret_out = through_finally(ret)
        brk_out = through_finally(brk)
        cont_out = through_finally(cont)
        return _Result(
            normal_out,
            exc=_join(exc_out, fin_exc),
            ret=ret_out,
            brk=brk_out,
            cont=cont_out,
        )

    @staticmethod
    def _catches_all(handlers: Sequence[ast.ExceptHandler]) -> bool:
        for handler in handlers:
            if handler.type is None:
                return True
            types = (
                handler.type.elts
                if isinstance(handler.type, ast.Tuple)
                else [handler.type]
            )
            for node in types:
                name = (
                    node.attr
                    if isinstance(node, ast.Attribute)
                    else node.id
                    if isinstance(node, ast.Name)
                    else ""
                )
                if name in ("BaseException", "Exception"):
                    return True
        return False

    # -- entry point ---------------------------------------------------
    def run(self, fn: ast.stmt) -> None:
        for node in ast.walk(fn):
            if node is not fn and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if isinstance(node, ast.Nonlocal) or isinstance(
                node, ast.Global
            ):
                self.escaping.update(node.names)
        result = self.exec_block(fn.body, _State())  # type: ignore[attr-defined]
        leaking: Dict[int, Set[str]] = {}
        for exit_kind, exit_state in (
            ("normal exit", result.normal),
            ("return", result.ret),
            ("exception edge", result.exc),
        ):
            if exit_state is None:
                continue
            for site, states in exit_state.res.items():
                if _HELD in states:
                    leaking.setdefault(site, set()).add(exit_kind)
        for site, exits in sorted(leaking.items()):
            info = self.sites[site]
            via = (
                " (the leaking path is an exception edge)"
                if exits == {"exception edge"}
                else ""
            )
            self.report.leaks.append(
                (
                    info.line,
                    info.col,
                    f"{info.kind} acquired here ({info.name!r}) can reach "
                    "function exit still held — no release or ownership "
                    f"transfer on some path{via}; release it in a "
                    "finally, transfer ownership, or annotate the "
                    "contract",
                )
            )


# ----------------------------------------------------------------------
# blocking-in-async
# ----------------------------------------------------------------------
def _scan_async_blocking(
    fn: ast.AsyncFunctionDef, info: _ModuleInfo, report: _Report
) -> None:
    awaited: Set[int] = set()
    stack: List[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue  # the executor-hop exemption
        if isinstance(node, ast.Await):
            if isinstance(node.value, ast.Call):
                awaited.add(id(node.value))
        elif isinstance(node, ast.Call) and id(node) not in awaited:
            message = _blocking_call_message(node, info)
            if message is not None:
                report.blocking.append(
                    (
                        node.lineno,
                        node.col_offset,
                        f"{message} inside 'async def {fn.name}' blocks "
                        "the event loop; hop through "
                        "loop.run_in_executor (nested function bodies "
                        "are exempt) or use the asyncio equivalent",
                    )
                )
        elif isinstance(node, ast.With):
            for item in node.items:
                last = _last_segment(item.context_expr)
                if last is not None and "lock" in last.lower():
                    report.blocking.append(
                        (
                            node.lineno,
                            node.col_offset,
                            f"'with {last}:' inside 'async def "
                            f"{fn.name}' acquires a thread lock on the "
                            "event loop; hop through "
                            "loop.run_in_executor (nested function "
                            "bodies are exempt)",
                        )
                    )
        stack.extend(ast.iter_child_nodes(node))


def _last_segment(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _blocking_call_message(
    call: ast.Call, info: _ModuleInfo
) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr == "sleep" and isinstance(func.value, ast.Name):
            if func.value.id in info.time_aliases:
                return "time.sleep()"
            return None
        if func.attr in _BLOCKING_METHODS:
            return f"blocking '.{func.attr}()' call"
        if func.attr in _BLOCKING_CALLS:
            return f"blocking shm attach '{func.attr}()'"
        return None
    if isinstance(func, ast.Name):
        if func.id in info.sleep_names:
            return "time.sleep()"
        if func.id in _BLOCKING_CALLS:
            return f"blocking shm attach '{func.id}()'"
    return None


# ----------------------------------------------------------------------
# Module analysis + caching
# ----------------------------------------------------------------------
def _analyze(ctx: ModuleContext) -> _Report:
    report = _Report()
    info = _ModuleInfo()
    tree = ctx.tree
    inert = _string_lines(tree)
    comment_only = comment_only_lines(ctx.source)
    anns = _parse_annotations(ctx.source, inert)
    _scan_imports(tree, info)
    _anchor_annotations(tree, anns, comment_only, info, report)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _FunctionAnalyzer(info, report).run(node)
        if isinstance(node, ast.AsyncFunctionDef):
            _scan_async_blocking(node, info, report)
    report.leaks.sort()
    report.doubles.sort()
    report.blocking.sort()
    report.invalid.sort()
    return report


_REPORT_CACHE: Dict[int, Tuple[ModuleContext, _Report]] = {}


def _module_report(ctx: ModuleContext) -> _Report:
    cached = _REPORT_CACHE.get(id(ctx))
    if cached is not None and cached[0] is ctx:
        return cached[1]
    if len(_REPORT_CACHE) > 128:
        _REPORT_CACHE.clear()
    report = _analyze(ctx)
    _REPORT_CACHE[id(ctx)] = (ctx, report)
    return report


# ----------------------------------------------------------------------
# The rules
# ----------------------------------------------------------------------
def _in_scope(ctx: ModuleContext) -> bool:
    parts = ctx.package_parts
    if "serve" in parts or "parallel" in parts:
        return True
    if len(parts) >= 2 and parts[-2] == "index":
        return parts[-1] == "persistence.py"
    if len(parts) >= 2 and parts[-2] == "graph":
        return parts[-1] == "io.py"
    return False


class _LifecycleRule(Rule):
    """Shared scope + report plumbing for the lifecycle rules."""

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


@register
class ResourceLeakRule(_LifecycleRule):
    id = "resource-leak"
    description = (
        "an acquired resource (shm segment, worker process, pipe, file "
        "handle, pool, asyncio task) has a path to function exit — "
        "exception edges included — with no release or ownership "
        "transfer"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for line, col, message in _module_report(ctx).leaks:
            yield self.finding_at(ctx, line, col, message)


@register
class DoubleReleaseRule(_LifecycleRule):
    id = "double-release"
    description = (
        "a release reachable while the resource may already be released "
        "along the same path (non-idempotent close()/shutdown())"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for line, col, message in _module_report(ctx).doubles:
            yield self.finding_at(ctx, line, col, message)


@register
class BlockingInAsyncRule(_LifecycleRule):
    id = "blocking-in-async"
    description = (
        "a known-blocking call (lock acquire, pipe recv, time.sleep, "
        "blocking shm attach, with-lock) directly inside an async def "
        "body, outside a run_in_executor hop"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for line, col, message in _module_report(ctx).blocking:
            yield self.finding_at(ctx, line, col, message)


@register
class LifecycleInvalidRule(_LifecycleRule):
    id = "lifecycle-invalid"
    description = (
        "a lifecycle annotation that does not parse, attaches to "
        "nothing, or names a missing parameter/kind — an uncheckable "
        "contract is worse than none"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for line, col, message in _module_report(ctx).invalid:
            yield self.finding_at(ctx, line, col, message)
