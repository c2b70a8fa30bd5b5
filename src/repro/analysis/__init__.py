"""Static analysis and runtime instrumentation for the house rules.

The stack's core guarantee -- batched == sequential == cached ==
HTTP-served == materialized answers, bit-identical -- rests on
conventions (pairwise/fsum-only float folds, flat non-reentrant RWLock
sections) that this package enforces:

* :mod:`repro.analysis.floats` -- FD: float-determinism rules;
* :mod:`repro.analysis.locks` -- LD: lock-discipline rules;
* :mod:`repro.analysis.runtime` -- the runtime lock-order detector
  (what the AST cannot see: dynamic nesting and cross-lock cycles);
* ``python -m repro.analysis`` -- the CLI gate CI runs.

Suppress a finding with a *reasoned* pragma on (or directly above) the
offending line::

    # repro-lint: allow[FD001] integer partials, validated by schema
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.core import (
    RULES,
    RULES_BY_ID,
    AnalysisError,
    Finding,
    Rule,
    pragma_findings,
    sort_findings,
)


def run_checks(root: Path) -> tuple[list[Finding], int]:
    """Run every checker family over the tree at ``root``.

    Returns ``(findings, files scanned)``; findings are sorted by
    location.  Pragma hygiene (PG001) is checked over every ``src/``
    module, independent of which families scan it.
    """
    from repro.analysis import floats, locks
    from repro.analysis.core import load_source

    findings: list[Finding] = []
    findings.extend(floats.check(root))
    findings.extend(locks.check(root))
    sources = sorted((root / "src" / "repro").rglob("*.py"))
    for path in sources:
        findings.extend(pragma_findings(load_source(root, path)))
    return sort_findings(findings), len(sources)


__all__ = [
    "RULES",
    "RULES_BY_ID",
    "AnalysisError",
    "Finding",
    "Rule",
    "pragma_findings",
    "run_checks",
    "sort_findings",
]
