"""Command-line entry point: ``python -m repro.lint [paths]``."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .core import REGISTRY, Finding, all_rules, lint_paths

#: schema identifier for ``--format json``
_JSON_SCHEMA = "repro.lint.findings/2"


def _parse_ids(values: Sequence[str]) -> frozenset[str]:
    """Flatten repeated/comma-separated ``--select``/``--ignore``."""
    ids: set[str] = set()
    for value in values:
        ids.update(
            token.strip() for token in value.split(",") if token.strip()
        )
    unknown = ids - set(REGISTRY)
    if unknown:
        raise SystemExit(
            f"unknown rule id(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(REGISTRY))}"
        )
    return frozenset(ids)


def _findings_document(
    findings: list[Finding], errors: list[str]
) -> dict:
    return {
        "schema": _JSON_SCHEMA,
        "findings": [f.to_dict() for f in findings],
        "errors": list(errors),
    }


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.lint`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Project-specific static analysis: determinism, numerical "
            "safety, observability contract and API hygiene rules."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", action="append", default=[], metavar="IDS",
        help="comma-separated rule ids to run exclusively",
    )
    parser.add_argument(
        "--ignore", action="append", default=[], metavar="IDS",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the summary line (findings only)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json emits the stable finding schema)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the linter; returns the process exit code."""
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            sys.stdout.write(f"{rule.id}  {rule.name}\n")
            sys.stdout.write(f"       {rule.summary}\n")
            sys.stdout.write(
                f"       scope: {', '.join(rule.scopes)}\n"
            )
        return 0

    select = _parse_ids(args.select)
    ignore = _parse_ids(args.ignore)
    findings, errors = lint_paths(args.paths, select, ignore)

    for error in errors:
        sys.stderr.write(f"error: {error}\n")
    if args.format == "json":
        json.dump(_findings_document(findings, errors), sys.stdout)
        sys.stdout.write("\n")
    else:
        for finding in findings:
            sys.stdout.write(finding.format() + "\n")
        if not args.quiet:
            noun = "finding" if len(findings) == 1 else "findings"
            sys.stdout.write(
                f"repro.lint: {len(findings)} {noun} "
                f"({len(errors)} file errors)\n"
            )
    return 1 if findings or errors else 0
