"""The checker framework of :mod:`repro.analysis`.

Everything the four checker families share lives here: the
:class:`Rule` catalogue (stable IDs, one-line summaries, and the house
rationale each rule enforces), the :class:`Finding` record, source-file
loading with a parse cache, and the suppression pragma.

Suppression is per line and must be *explained*::

    total = sum(partials)  # repro-lint: allow[FD001] int partials, proven upstream

A pragma on the finding's own line (or the line directly above, for
lines that are already long) silences the named rule there.  A pragma
without a reason string is itself a finding (``PG001``): the point of
the allowlist is a reviewable record of *why* each exception is safe,
not a mute button.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError

#: Bumped when the JSON report layout changes incompatibly.
REPORT_SCHEMA_VERSION = 1


class AnalysisError(ReproError):
    """A failure of the analysis harness itself (unreadable tree,
    unknown rule name, internal checker error) -- distinct from
    findings, which are ordinary results."""


@dataclass(frozen=True)
class Rule:
    """One house rule: a stable ID plus the rationale it encodes."""

    id: str
    name: str
    summary: str
    rationale: str


#: Every rule the subsystem knows, in reporting order.  The IDs are
#: grouped by family: FD* float determinism, LD* lock discipline,
#: WS* wire surface, PG* pragma hygiene.
RULES: tuple[Rule, ...] = (
    Rule(
        "FD001",
        "builtin-sum-in-fold-path",
        "builtin sum() over values not provably integral in a fold path",
        "Builtin sum() folds left-to-right in iteration order; for floats "
        "that pins a rounding sequence that silently changes when the "
        "iterable's order or grouping changes.  Float folds must use "
        "math.fsum (exact) or numpy pairwise slice sums (the engine's "
        "bit-identity contract); integer folds are exempt.",
    ),
    Rule(
        "FD002",
        "fsum-outside-allowlist",
        "math.fsum call outside the allowlisted rollup sites",
        "fsum is exact, so answers produced through it cannot be "
        "reproduced by the sequential/pairwise folds the engine gates "
        "bit-identical.  It is allowed only where every execution path "
        "folds through it (the group-by rollup), never mixed into a "
        "path that must match a plain fold.",
    ),
    Rule(
        "FD003",
        "unordered-iteration-float-fold",
        "float accumulation iterating a set (hash order)",
        "Set iteration order depends on hashes and insertion history; "
        "accumulating floats over it makes the rounding sequence "
        "run-dependent.  Fold over a sorted or insertion-ordered "
        "sequence instead.",
    ),
    Rule(
        "LD001",
        "unlocked-inner-call",
        "public method calls an *_inner twin outside an RWLock section",
        "The *_inner methods assume the dataset RWLock is already held "
        "by their public caller; calling one unlocked races appends "
        "(torn reads of in-place array mutation).",
    ),
    Rule(
        "LD002",
        "nested-lock-acquisition",
        "underscore method (or nested section) re-acquires the RWLock",
        "RWLock is not re-entrant: a reader re-acquiring while a writer "
        "waits deadlocks (writer preference queues the second read "
        "behind the writer, which waits for the first read).  All "
        "acquisition stays in the outermost public entry points; "
        "sections stay flat.",
    ),
    Rule(
        "LD003",
        "inner-access-outside-dataset",
        "server/api caller reaches a Dataset _inner method or its lock",
        "Only dataset.py knows the lock discipline its _inner twins "
        "assume; an outside caller invoking one (or touching _rwlock "
        "directly) bypasses the single-writer model the serving tier "
        "is built on.",
    ),
    Rule(
        "WS001",
        "op-unknown-to-http-tier",
        "wire op dispatched in run_dict but unknown to server/http.py",
        "The HTTP tier must route (or explicitly document as routed "
        "through /query) every op the service dispatches; an op added "
        "only to run_dict is unreachable or undocumented over HTTP.",
    ),
    Rule(
        "WS002",
        "op-readme-drift",
        "wire op set and README-documented ops disagree",
        "The README is the wire contract clients read; an op missing "
        "there (or documented but no longer dispatched) is a silent "
        "protocol change.",
    ),
    Rule(
        "WS003",
        "route-readme-drift",
        "HTTP routes and README-documented routes disagree",
        "Every live route is documented and every documented route is "
        "live, so curl examples in the README never 404.",
    ),
    Rule(
        "WS004",
        "op-key-schema-gap",
        "management op key schema missing the envelope keys",
        "Every v2 management op validates its payload against a _*_KEYS "
        "tuple; the tuple must carry the envelope keys ('v', 'op', "
        "'dataset') or strict unknown-key checking rejects legal "
        "envelopes.",
    ),
    Rule(
        "WS005",
        "error-code-status-drift",
        "ERROR_CODES and the HTTP_STATUS table disagree",
        "Every API error code needs exactly one HTTP status (the status "
        "line is derived, never a second source of truth); a code "
        "missing from the table degrades to 500 and an orphan status "
        "entry is dead configuration.",
    ),
    Rule(
        "WS006",
        "hint-readme-drift",
        "HINT_KEYS and the README's documented hints disagree",
        "Unknown hints are rejected with bad_hint, so a hint the README "
        "documents but the parser dropped breaks every client that "
        "follows the docs, and an undocumented one is invisible.",
    ),
    Rule(
        "PG001",
        "pragma-without-reason",
        "repro-lint allow pragma carries no reason string",
        "The allowlist is a reviewable record of why each exception is "
        "safe; a bare allow[...] is a mute button, not a record.",
    ),
)

RULES_BY_ID: dict[str, Rule] = {rule.id: rule for rule in RULES}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  #: repo-relative, forward slashes
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "name": RULES_BY_ID[self.rule].name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class SourceFile:
    """One parsed source file a checker walks."""

    path: Path  #: absolute
    relative: str  #: repo-relative, forward slashes
    text: str
    lines: list[str] = field(default_factory=list)
    _tree: ast.Module | None = None

    @property
    def tree(self) -> ast.Module:
        if self._tree is None:
            self._tree = ast.parse(self.text, filename=str(self.path))
        return self._tree


def load_source(root: Path, path: Path) -> SourceFile:
    """Read and wrap one file (checkers share the instance per run)."""
    text = path.read_text(encoding="utf-8")
    try:
        relative = path.relative_to(root).as_posix()
    except ValueError:
        relative = path.as_posix()
    return SourceFile(path=path, relative=relative, text=text, lines=text.splitlines())


def python_files(root: Path, package: str) -> list[Path]:
    """Sorted ``*.py`` files under ``<root>/src/repro/<package>``."""
    base = root / "src" / "repro" / package
    if not base.is_dir():
        return []
    return sorted(base.rglob("*.py"))


# -- the suppression pragma ---------------------------------------------------

_PRAGMA = re.compile(r"#\s*repro-lint:\s*allow\[([A-Za-z0-9_,\s]+)\]\s*(.*)$")


def _pragma_on(line: str) -> tuple[set[str], str] | None:
    match = _PRAGMA.search(line)
    if match is None:
        return None
    rules = {token.strip() for token in match.group(1).split(",") if token.strip()}
    return rules, match.group(2).strip()


def pragma_findings(source: SourceFile) -> list[Finding]:
    """PG001 findings: every allow pragma in ``source`` must carry a
    reason (and name only known rules -- a typo'd ID suppresses
    nothing and should not pass silently)."""
    findings: list[Finding] = []
    for number, line in enumerate(source.lines, start=1):
        parsed = _pragma_on(line)
        if parsed is None:
            continue
        rules, reason = parsed
        if not reason:
            findings.append(
                Finding(
                    "PG001",
                    source.relative,
                    number,
                    line.index("#") + 1,
                    "allow pragma needs a reason: '# repro-lint: allow[<RULE>] <why this is safe>'",
                )
            )
        unknown = sorted(rule for rule in rules if rule not in RULES_BY_ID)
        if unknown:
            findings.append(
                Finding(
                    "PG001",
                    source.relative,
                    number,
                    line.index("#") + 1,
                    f"allow pragma names unknown rule(s) {unknown}",
                )
            )
    return findings


def is_allowed(source: SourceFile, rule: str, line: int) -> bool:
    """Whether a finding of ``rule`` at ``line`` is suppressed by an
    allow pragma on that line or the line directly above."""
    for number in (line, line - 1):
        if 1 <= number <= len(source.lines):
            parsed = _pragma_on(source.lines[number - 1])
            if parsed is not None and rule in parsed[0] and parsed[1]:
                return True
    return False


def filter_allowed(source: SourceFile, findings: list[Finding]) -> list[Finding]:
    """Drop findings suppressed by a (reasoned) allow pragma."""
    return [f for f in findings if not is_allowed(source, f.rule, f.line)]


# -- AST helpers shared by the checker families -------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains (None for anything else)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def call_name(node: ast.Call) -> str | None:
    """The dotted name a call targets (``self._rwlock.read`` for
    ``self._rwlock.read()``), or None for computed callees."""
    return dotted_name(node.func)


def sort_findings(findings: list[Finding]) -> list[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
