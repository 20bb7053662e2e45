"""The lint engine: file discovery, parsing, suppression handling.

Suppressions are per-line comments::

    some_code()  # repro-lint: ignore[bare-assert]
    other_code() # repro-lint: ignore[rule-a,rule-b]
    anything()   # repro-lint: ignore

The bare form suppresses every rule on that line; the bracketed form
only the named rules.  A suppression applies to findings *reported on*
the commented line (multi-line statements are anchored at their first
line by the AST, which is where the comment must go).
"""

from __future__ import annotations

import ast
import os
import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import ALL_RULES, Finding, ModuleContext
from repro.analysis.rules import (
    ProjectRule,
    Rule,
    StaleSuppressionRule,
    all_rule_ids,
    make_rules,
)

_SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_*,\- ]+)\])?"
)


class LintSyntaxError(Exception):
    """A file handed to the linter does not parse."""

    def __init__(self, path: str, error: SyntaxError) -> None:
        super().__init__(f"{path}: {error}")
        self.path = path
        self.error = error


def parse_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> suppressed rule ids (``ALL_RULES`` = all)."""
    suppressions: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION_RE.search(line)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[lineno] = frozenset({ALL_RULES})
        else:
            suppressions[lineno] = frozenset(
                part.strip() for part in rules.split(",") if part.strip()
            )
    return suppressions


def string_literal_lines(tree: ast.AST) -> FrozenSet[int]:
    """Lines whose ``#`` can only be *inside* a multi-line string
    (docstrings quote suppression examples; a line-regex scan must not
    treat those as live).  The closing line is excluded: a trailing
    comment there — or after a single-line string — is real code."""
    out: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
            out.update(range(node.lineno, end))
    return frozenset(out)


def comment_only_lines(source: str) -> FrozenSet[int]:
    """Lines holding nothing but a comment (annotations on them attach
    to the anchor line directly below)."""
    out: Set[int] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        if text.lstrip().startswith("#"):
            out.add(lineno)
    return frozenset(out)


def self_attr_path(expr: ast.AST) -> Optional[Tuple[str, ...]]:
    """``self.a.b.c`` -> ``("a", "b", "c")``; None for anything else."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and parts:
        return tuple(reversed(parts))
    return None


#: callables whose result is a lock (``threading`` names plus the
#: sanitizer-aware factories of :mod:`repro.analysis.tsan`)
LOCK_FACTORIES = frozenset(
    {
        "Lock",
        "RLock",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "new_lock",
        "new_rlock",
    }
)


def is_lock_factory_call(value: ast.AST) -> bool:
    """``threading.Lock()``, ``new_lock(...)`` and the like."""
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Name):
        return func.id in LOCK_FACTORIES
    if isinstance(func, ast.Attribute):
        return func.attr in LOCK_FACTORIES
    return False


def build_context(path: str, source: str, root: Optional[str] = None) -> ModuleContext:
    """Parse ``source`` into the per-module context rules consume."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintSyntaxError(path, exc) from exc
    rel = os.path.relpath(path, root) if root else path
    parts = tuple(part for part in rel.replace(os.sep, "/").split("/") if part)
    inert = string_literal_lines(tree)
    suppressions = {
        line: rules
        for line, rules in parse_suppressions(source).items()
        if line not in inert
    }
    return ModuleContext(
        path=path,
        source=source,
        tree=tree,
        package_parts=parts,
        suppressions=suppressions,
    )


def lint_context(ctx: ModuleContext, rules: Sequence[Rule]) -> List[Finding]:
    """Run ``rules`` over one parsed module, applying suppressions."""
    findings: List[Finding] = []
    for rule in rules:
        if isinstance(rule, ProjectRule) or not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if not ctx.is_suppressed(finding):
                findings.append(finding)
    findings.sort()
    return findings


def _stale_suppression_findings(
    contexts: Sequence[ModuleContext],
    rules: Sequence[Rule],
    fired: Dict[Tuple[str, int], Set[str]],
) -> List[Finding]:
    """Audit suppressions against the *pre-suppression* finding sets.

    A named suppression is stale when a rule it names is active in this
    run but produced no finding on that line.  A bare suppression is
    stale when no rule at all fired on its line — audited only when the
    full registry is active, since a partial run cannot know what the
    missing rules would have reported.  Suppressions naming
    ``stale-suppression`` itself opt the line out of the audit; the
    audit's own findings are deliberately *not* routed through the
    normal suppression filter (a bare ignore must not hide the report
    that it is stale).
    """
    audit = next(
        (rule for rule in rules if isinstance(rule, StaleSuppressionRule)), None
    )
    if audit is None:
        return []
    active = {rule.id for rule in rules}
    full_registry = set(all_rule_ids()) <= active
    out: List[Finding] = []
    for ctx in contexts:
        for line, names in sorted(ctx.suppressions.items()):
            if audit.id in names:
                continue
            hit = fired.get((ctx.path, line), set())
            if ALL_RULES in names:
                if not full_registry or hit:
                    continue
                message = (
                    "stale suppression: bare '# repro-lint: ignore' but no "
                    "rule fires on this line; remove the comment"
                )
            else:
                auditable = names & active
                stale = sorted(auditable - hit)
                if not stale:
                    continue
                message = (
                    "stale suppression: "
                    + ", ".join(f"'{name}'" for name in stale)
                    + (" never fires" if len(stale) == 1 else " never fire")
                    + " on this line; remove it from the ignore list"
                )
            out.append(
                Finding(
                    path=ctx.path,
                    line=line,
                    col=0,
                    rule=audit.id,
                    message=message,
                    severity=audit.severity,
                )
            )
    return out


def lint_contexts(
    contexts: Sequence[ModuleContext], rules: Sequence[Rule]
) -> List[Finding]:
    """Run module rules per context, then project rules across them all.

    Project-rule findings are anchored at one (path, line) like any
    other finding, so the per-line suppression machinery applies — the
    anchor module's suppressions decide.  Pre-suppression finding sets
    feed the stale-suppression audit.
    """
    raw: List[Finding] = []
    by_path = {ctx.path: ctx for ctx in contexts}
    for ctx in contexts:
        for rule in rules:
            if isinstance(rule, ProjectRule) or not rule.applies_to(ctx):
                continue
            raw.extend(rule.check(ctx))
    for rule in rules:
        if not isinstance(rule, ProjectRule):
            continue
        applicable = [ctx for ctx in contexts if rule.applies_to(ctx)]
        if not applicable:
            continue
        raw.extend(rule.check_project(applicable))
    findings: List[Finding] = []
    fired: Dict[Tuple[str, int], Set[str]] = {}
    for finding in raw:
        fired.setdefault((finding.path, finding.line), set()).add(finding.rule)
        anchor = by_path.get(finding.path)
        if anchor is None or not anchor.is_suppressed(finding):
            findings.append(finding)
    findings.extend(_stale_suppression_findings(contexts, rules, fired))
    findings.sort()
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    only: Optional[Set[str]] = None,
    root: Optional[str] = None,
) -> List[Finding]:
    """Lint one in-memory module (the unit-test entry point)."""
    return lint_contexts(
        [build_context(path, source, root=root)], make_rules(only)
    )


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in ("__pycache__", ".git")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        out.append(os.path.join(dirpath, filename))
        else:
            out.append(path)
    return out


def collect_contexts(paths: Sequence[str]) -> List[ModuleContext]:
    """Parse every ``.py`` file under ``paths`` into module contexts.

    Each argument that is a directory becomes the lint root for the
    files below it (scoping path-based rules exactly as before).
    """
    contexts: List[ModuleContext] = []
    for path in paths:
        root = path if os.path.isdir(path) else os.path.dirname(path) or "."
        for filename in iter_python_files([path]):
            with open(filename, "r", encoding="utf-8") as handle:
                source = handle.read()
            contexts.append(build_context(filename, source, root=root))
    return contexts


def lint_paths(
    paths: Sequence[str], only: Optional[Set[str]] = None
) -> List[Finding]:
    """Lint files and directories; directory roots scope path-based rules."""
    return lint_contexts(collect_contexts(paths), make_rules(only))
