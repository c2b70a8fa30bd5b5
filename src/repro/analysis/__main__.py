"""``python -m repro.analysis`` -- the house-rule gate.

Runs every checker family over a repository tree and exits non-zero on
findings, so CI can gate on it directly::

    python -m repro.analysis                  # text report, repo root = cwd
    python -m repro.analysis --format json    # machine-readable report
    python -m repro.analysis --rules FD,WS005 # family prefixes or exact IDs
    python -m repro.analysis --list-rules     # the catalogue with rationale

Exit codes: 0 clean, 1 findings, 2 harness failure (unreadable tree,
unknown rule filter).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis import run_checks
from repro.analysis.core import REPORT_SCHEMA_VERSION, RULES, AnalysisError, Finding


def _matches(finding: Finding, filters: list[str]) -> bool:
    return any(finding.rule == f or finding.rule.startswith(f) for f in filters)


def _text_report(findings: list[Finding], files_scanned: int) -> str:
    lines = [
        f"{finding.path}:{finding.line}:{finding.col}: {finding.rule} {finding.message}"
        for finding in findings
    ]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"repro.analysis: {len(findings)} {noun} over {files_scanned} files")
    return "\n".join(lines)


def _json_report(findings: list[Finding], files_scanned: int, root: Path) -> str:
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return json.dumps(
        {
            "schema_version": REPORT_SCHEMA_VERSION,
            "root": str(root),
            "ok": not findings,
            "files_scanned": files_scanned,
            "counts": dict(sorted(counts.items())),
            "findings": [finding.to_dict() for finding in findings],
        },
        indent=2,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="house-rule static analysis: float determinism, lock "
        "discipline, wire-surface consistency",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path.cwd(),
        help="repository root (default: current directory)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule IDs or family prefixes to report (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue with rationale and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.id}  {rule.name}")
            print(f"    {rule.summary}")
            print(f"    why: {rule.rationale}")
        return 0

    filters: list[str] | None = None
    if args.rules is not None:
        filters = [token.strip() for token in args.rules.split(",") if token.strip()]
        known = {rule.id for rule in RULES}
        bad = [f for f in filters if f not in known and not any(r.startswith(f) for r in known)]
        if bad:
            print(f"repro.analysis: unknown rule filter(s) {bad}", file=sys.stderr)
            return 2

    root = args.root.resolve()
    if not (root / "src" / "repro").is_dir():
        print(
            f"repro.analysis: {root} does not look like the repository root "
            "(no src/repro); pass --root",
            file=sys.stderr,
        )
        return 2

    try:
        findings, files_scanned = run_checks(root)
    except AnalysisError as error:
        print(f"repro.analysis: {error}", file=sys.stderr)
        return 2
    if filters is not None:
        findings = [finding for finding in findings if _matches(finding, filters)]

    if args.format == "json":
        print(_json_report(findings, files_scanned, root))
    else:
        print(_text_report(findings, files_scanned))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
