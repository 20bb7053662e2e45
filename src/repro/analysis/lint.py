"""``repro-lint`` command line interface.

Usage::

    python -m repro.analysis.lint src/repro
    python -m repro.analysis.lint --format=json src/repro/index/mst.py
    python -m repro.analysis.lint --rules bare-assert,no-recursion src

Exit status: 0 = clean, 1 = findings reported, 2 = usage / parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.analysis.concurrency import (
    CONCURRENCY_RULE_IDS,
    build_lock_order_graph,
)
from repro.analysis.engine import (
    LintSyntaxError,
    collect_contexts,
    lint_contexts,
)
from repro.analysis.lifecycle import LIFECYCLE_RULE_IDS
from repro.analysis.rules import all_rule_ids, make_rules, rule_description

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Domain-specific lint for the repro library.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (directories are walked)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="ID[,ID...]",
        help="comma-separated subset of rules to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--concurrency",
        action="store_true",
        help="run the concurrency rule set (guarded-by-*, "
        "lock-order-cycle); combines with --rules as a union",
    )
    parser.add_argument(
        "--lifecycle",
        action="store_true",
        help="run the resource-lifecycle rule set (resource-leak, "
        "double-release, blocking-in-async, lifecycle-invalid); "
        "combines with --rules as a union",
    )
    parser.add_argument(
        "--fail-on",
        choices=("warning", "error"),
        default="warning",
        help="minimum severity that affects the exit code (default: "
        "warning, i.e. any finding fails — the historical behavior); "
        "'error' still prints warnings but exits 0 on them",
    )
    parser.add_argument(
        "--lock-graph",
        default=None,
        metavar="PATH",
        help="write the lock-acquisition-order graph of the linted "
        "tree to PATH as JSON (the CI artifact)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in all_rule_ids():
            print(f"{rule_id}: {rule_description(rule_id)}")
        return EXIT_CLEAN

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro-lint: error: no paths given", file=sys.stderr)
        return EXIT_ERROR

    only = None
    if args.rules is not None:
        only = {part.strip() for part in args.rules.split(",") if part.strip()}
        unknown = only - set(all_rule_ids())
        if unknown:
            print(
                f"repro-lint: error: unknown rules {sorted(unknown)}; "
                f"available: {', '.join(all_rule_ids())}",
                file=sys.stderr,
            )
            return EXIT_ERROR
    if args.concurrency:
        only = (only or set()) | set(CONCURRENCY_RULE_IDS)
    if args.lifecycle:
        only = (only or set()) | set(LIFECYCLE_RULE_IDS)

    try:
        contexts = collect_contexts(args.paths)
        findings = lint_contexts(contexts, make_rules(only))
    except LintSyntaxError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.lock_graph is not None:
        graph = build_lock_order_graph(contexts)
        try:
            with open(args.lock_graph, "w", encoding="utf-8") as handle:
                json.dump(graph, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print(f"repro-lint: error: {exc}", file=sys.stderr)
            return EXIT_ERROR

    if args.format == "json":
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        lines: List[str] = [f.render() for f in findings]
        for line in lines:
            print(line)
        if findings:
            print(f"repro-lint: {len(findings)} finding(s)", file=sys.stderr)

    if args.fail_on == "error":
        gating = [f for f in findings if f.severity == "error"]
    else:
        gating = list(findings)
    return EXIT_FINDINGS if gating else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
