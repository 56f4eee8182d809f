"""Command-line entry point: ``python -m repro.lint [paths]``."""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

from .cache import DEFAULT_CACHE_PATH, LintCache
from .core import REGISTRY, Finding, all_rules, lint_paths

#: schema identifier for ``--format json`` and baseline files
_JSON_SCHEMA = "repro.lint.findings/1"


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


def _baseline_key(finding: Finding) -> tuple[str, str, str]:
    """Identity used to match findings against a baseline.

    Line/column are deliberately excluded — unrelated edits move
    findings around; a baseline entry means "this rule firing at this
    path with this message is known", wherever it currently sits.
    """
    return (finding.rule, finding.path, finding.message)


def _load_baseline(path: str) -> Counter:
    """Multiset of baseline keys from a ``--write-baseline`` file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read baseline {path}: {exc}") from exc
    items = raw.get("findings") if isinstance(raw, dict) else None
    if not isinstance(items, list):
        raise SystemExit(
            f"baseline {path} is not a repro.lint findings document"
        )
    keys: Counter = Counter()
    for item in items:
        try:
            finding = Finding.from_dict(item)
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemExit(
                f"baseline {path} has a malformed entry: {exc}"
            ) from exc
        keys[_baseline_key(finding)] += 1
    return keys


def _apply_baseline(
    findings: list[Finding], baseline: Counter
) -> list[Finding]:
    """Findings not covered by the baseline multiset (the *new* ones)."""
    budget = Counter(baseline)
    fresh: list[Finding] = []
    for finding in findings:
        key = _baseline_key(finding)
        if budget[key] > 0:
            budget[key] -= 1
        else:
            fresh.append(finding)
    return fresh


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
            "safety, observability contract, API hygiene and "
            "whole-program determinism-taint rules."
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
    parser.add_argument(
        "--baseline", metavar="FILE",
        help=(
            "JSON findings document of known findings; only findings "
            "NOT in it are reported and fail the run"
        ),
    )
    parser.add_argument(
        "--write-baseline", metavar="FILE",
        help="write the current findings as a baseline file and exit 0",
    )
    parser.add_argument(
        "--cache", metavar="FILE", default=DEFAULT_CACHE_PATH,
        help=(
            "incremental cache file keyed by content sha256 "
            f"(default: {DEFAULT_CACHE_PATH})"
        ),
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="force a cold run: neither read nor write the cache",
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
    cache = None if args.no_cache else LintCache(args.cache)
    findings, errors = lint_paths(args.paths, select, ignore, cache)

    if args.write_baseline:
        Path(args.write_baseline).write_text(
            json.dumps(_findings_document(findings, []), indent=2)
            + "\n",
            encoding="utf-8",
        )
        if not args.quiet:
            sys.stdout.write(
                f"repro.lint: wrote baseline with {len(findings)} "
                f"finding(s) to {args.write_baseline}\n"
            )
        return 0

    suppressed = 0
    if args.baseline:
        baseline = _load_baseline(args.baseline)
        fresh = _apply_baseline(findings, baseline)
        suppressed = len(findings) - len(fresh)
        findings = fresh

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
            extra = (
                f", {suppressed} baselined" if args.baseline else ""
            )
            cached = (
                f", cache {cache.hits}/{cache.hits + cache.misses} hits"
                if cache is not None else ""
            )
            sys.stdout.write(
                f"repro.lint: {len(findings)} {noun} "
                f"({len(errors)} file errors{extra}{cached})\n"
            )
    return 1 if findings or errors else 0
