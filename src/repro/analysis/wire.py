"""WS: the wire-surface consistency family.

The v2.1 wire surface is defined in four places that must agree: the
``op`` dispatch in :meth:`GeoService.run_dict` (``api/service.py``),
the HTTP routes in ``server/http.py``, the ``HTTP_STATUS`` table in
``api/errors.py``, and the README's protocol documentation.  Adding an
op, a route, or an error code to one without the others used to be
caught only if a test happened to anticipate it; this checker
cross-references all four on every run:

* ``WS001`` -- an op dispatched in ``run_dict`` that ``server/http.py``
  neither routes (``/<op>``) nor mentions (the unified-``/query`` ops
  are documented in its module prose);
* ``WS002`` -- op set vs README drift, both directions;
* ``WS003`` -- route set vs README drift, both directions;
* ``WS004`` -- a management-op key schema (the ``_*_KEYS`` tuples)
  missing the envelope keys, or checking an op that is not dispatched;
* ``WS005`` -- ``ERROR_CODES`` vs ``HTTP_STATUS`` drift, both
  directions;
* ``WS006`` -- ``HINT_KEYS`` (``api/request.py``) vs the hint names the
  README's hints paragraph documents, both directions.

Everything is extracted statically (AST for the modules, regex over the
README), so the checker also works against a modified copy of any one
file -- which is exactly how the regression test pins it: introduce a
fake op into a temp copy of the dispatch and assert the missing
route/doc entries surface.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.core import (
    Finding,
    SourceFile,
    call_name,
    filter_allowed,
    load_source,
    sort_findings,
)

#: The default op a versioned payload without ``"op"`` resolves to; it
#: has no dispatch literal and is documented as the ``/query`` route.
DEFAULT_OP = "query"

#: Envelope keys every management-op schema must accept.
ENVELOPE_KEYS = ("v", "op", "dataset")

_README_OP = re.compile(r"\"op\"\s*:\s*\"(\w+)\"")
_README_ROUTE = re.compile(r"\b(GET|POST)\s+(/[a-z_]+)")
#: A documented hint: a bold code span (``**`cache`**``) inside the
#: README paragraph that opens with the word "Hints".
_README_HINT = re.compile(r"\*\*`(\w+)`\*\*")


@dataclass
class WireFiles:
    """The four files the wire surface spans (override any of them to
    check a candidate copy)."""

    service: SourceFile
    http: SourceFile
    request: SourceFile
    errors: SourceFile
    readme_text: str
    readme_path: str = "README.md"

    @classmethod
    def from_root(cls, root: Path) -> "WireFiles":
        src = root / "src" / "repro"
        return cls(
            service=load_source(root, src / "api" / "service.py"),
            http=load_source(root, src / "server" / "http.py"),
            request=load_source(root, src / "api" / "request.py"),
            errors=load_source(root, src / "api" / "errors.py"),
            readme_text=(root / "README.md").read_text(encoding="utf-8"),
        )


# -- extraction ---------------------------------------------------------------


def dispatched_ops(service: SourceFile) -> dict[str, int]:
    """``op`` literals compared against in ``run_dict`` (op -> line),
    plus the implicit default op."""
    ops: dict[str, int] = {}
    for node in ast.walk(service.tree):
        if not (isinstance(node, ast.FunctionDef) and node.name == "run_dict"):
            continue
        for compare in ast.walk(node):
            if not isinstance(compare, ast.Compare):
                continue
            sides = [compare.left, *compare.comparators]
            names = {s.id for s in sides if isinstance(s, ast.Name)}
            if "op" not in names:
                continue
            for side in sides:
                if isinstance(side, ast.Constant) and isinstance(side.value, str):
                    ops.setdefault(side.value, compare.lineno)
        ops.setdefault(DEFAULT_OP, node.lineno)
    return ops


def http_routes(http: SourceFile) -> dict[tuple[str, str], int]:
    """Route literals handled in ``server/http.py``:
    ``(method, path) -> line``, taken from comparisons against the
    handler's ``path`` variable inside ``do_GET``/``do_POST``."""
    routes: dict[tuple[str, str], int] = {}
    for node in ast.walk(http.tree):
        if not isinstance(node, ast.FunctionDef) or node.name not in ("do_GET", "do_POST"):
            continue
        method = node.name.removeprefix("do_")
        for compare in ast.walk(node):
            if not isinstance(compare, ast.Compare):
                continue
            sides = [compare.left, *compare.comparators]
            if not any(isinstance(s, ast.Name) and s.id == "path" for s in sides):
                continue
            for side in sides:
                literals = (
                    list(side.elts) if isinstance(side, (ast.Tuple, ast.List)) else [side]
                )
                for literal in literals:
                    if (
                        isinstance(literal, ast.Constant)
                        and isinstance(literal.value, str)
                        and literal.value.startswith("/")
                        and len(literal.value) > 1
                    ):
                        routes.setdefault((method, literal.value), compare.lineno)
    return routes


def key_schemas(service: SourceFile) -> dict[str, tuple[int, tuple[str, ...]]]:
    """``_*_KEYS`` tuples (and ``HINT_KEYS``): name -> (line, keys)."""
    schemas: dict[str, tuple[int, tuple[str, ...]]] = {}
    for node in ast.walk(service.tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not (
            isinstance(target, ast.Name)
            and re.fullmatch(r"_[A-Z_]+_KEYS|HINT_KEYS", target.id)
        ):
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)):
            keys = tuple(
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            )
            schemas[target.id] = (node.lineno, keys)
    return schemas


def schema_checked_ops(service: SourceFile) -> list[tuple[str, str, int]]:
    """``_check_op_payload(payload, "<op>", self._X_KEYS)`` call sites:
    ``(op, schema name, line)`` triples."""
    sites: list[tuple[str, str, int]] = []
    for node in ast.walk(service.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name is None or not name.endswith("_check_op_payload"):
            continue
        if len(node.args) < 3:
            continue
        op_arg, schema_arg = node.args[1], node.args[2]
        if (
            isinstance(op_arg, ast.Constant)
            and isinstance(op_arg.value, str)
            and isinstance(schema_arg, ast.Attribute)
        ):
            sites.append((op_arg.value, schema_arg.attr, node.lineno))
    return sites


def error_tables(errors: SourceFile) -> tuple[dict[str, int], dict[str, int], int, int]:
    """``(ERROR_CODES codes -> line, HTTP_STATUS codes -> line,
    ERROR_CODES line, HTTP_STATUS line)`` from ``api/errors.py``."""
    constants: dict[str, str] = {}
    codes: dict[str, int] = {}
    statuses: dict[str, int] = {}
    codes_line = statuses_line = 1

    def resolve(node: ast.AST) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return constants.get(node.id)
        return None

    for node in errors.tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            constants[target.id] = node.value.value
        elif target.id == "ERROR_CODES" and isinstance(node.value, (ast.Tuple, ast.List)):
            codes_line = node.lineno
            for element in node.value.elts:
                code = resolve(element)
                if code is not None:
                    codes[code] = element.lineno
        elif target.id == "HTTP_STATUS" and isinstance(node.value, ast.Dict):
            statuses_line = node.lineno
            for key in node.value.keys:
                code = resolve(key) if key is not None else None
                if code is not None:
                    statuses[code] = key.lineno  # type: ignore[union-attr]
    return codes, statuses, codes_line, statuses_line


def readme_hints(text: str) -> dict[str, int]:
    """Hint names the README's hints paragraph documents (name ->
    line): the bold code spans of the paragraph opening with "Hints"."""
    hints: dict[str, int] = {}
    inside = False
    for number, line in enumerate(text.splitlines(), start=1):
        inside = bool(line.strip()) and (inside or line.startswith("Hints "))
        if inside:
            for match in _README_HINT.finditer(line):
                hints.setdefault(match.group(1), number)
    return hints


def readme_ops(text: str) -> dict[str, int]:
    ops: dict[str, int] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        for match in _README_OP.finditer(line):
            ops.setdefault(match.group(1), number)
    return ops


def readme_routes(text: str) -> dict[tuple[str, str], int]:
    routes: dict[tuple[str, str], int] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        for match in _README_ROUTE.finditer(line):
            routes.setdefault((match.group(1), match.group(2)), number)
    return routes


# -- the cross-checks ---------------------------------------------------------


def check_files(files: WireFiles) -> list[Finding]:
    findings: list[Finding] = []
    ops = dispatched_ops(files.service)
    routes = http_routes(files.http)
    route_paths = {path for _, path in routes}
    documented_ops = readme_ops(files.readme_text)
    documented_routes = readme_routes(files.readme_text)

    # WS001: every dispatched op is reachable/documented at the HTTP tier.
    for op, line in sorted(ops.items()):
        if f"/{op}" in route_paths:
            continue
        if re.search(rf"\b{re.escape(op)}\b", files.http.text):
            continue
        findings.append(
            Finding(
                "WS001",
                files.service.relative,
                line,
                1,
                f"op {op!r} is dispatched in run_dict but server/http.py "
                "neither routes /"
                f"{op} nor documents it as a unified-/query op",
            )
        )

    # WS002: op set vs README, both directions.
    for op, line in sorted(ops.items()):
        if op == DEFAULT_OP:
            continue  # the default op is the undecorated query payload
        if op not in documented_ops:
            findings.append(
                Finding(
                    "WS002",
                    files.service.relative,
                    line,
                    1,
                    f"op {op!r} is dispatched in run_dict but the README never "
                    f'documents a {{"op": "{op}"}} payload',
                )
            )
    for op, line in sorted(documented_ops.items()):
        if op not in ops:
            findings.append(
                Finding(
                    "WS002",
                    files.readme_path,
                    line,
                    1,
                    f'README documents {{"op": "{op}"}} but run_dict does not '
                    "dispatch it",
                )
            )

    # WS003: route set vs README, both directions.
    for (method, path), line in sorted(routes.items()):
        if (method, path) not in documented_routes:
            findings.append(
                Finding(
                    "WS003",
                    files.http.relative,
                    line,
                    1,
                    f"route {method} {path} is handled but the README never "
                    "documents it",
                )
            )
    for (method, path), line in sorted(documented_routes.items()):
        if (method, path) not in routes:
            findings.append(
                Finding(
                    "WS003",
                    files.readme_path,
                    line,
                    1,
                    f"README documents {method} {path} but server/http.py does "
                    "not handle it",
                )
            )

    # WS004: management-op key schemas.
    schemas = key_schemas(files.service)
    for op, schema_name, line in schema_checked_ops(files.service):
        if schema_name not in schemas:
            findings.append(
                Finding(
                    "WS004",
                    files.service.relative,
                    line,
                    1,
                    f"op {op!r} validates against {schema_name}, which is not a "
                    "class-level _*_KEYS tuple",
                )
            )
            continue
        schema_line, keys = schemas[schema_name]
        missing = [key for key in ENVELOPE_KEYS if key not in keys]
        if missing:
            findings.append(
                Finding(
                    "WS004",
                    files.service.relative,
                    schema_line,
                    1,
                    f"{schema_name} is missing envelope key(s) {missing}; strict "
                    "unknown-key checking would reject legal envelopes",
                )
            )
        if op not in ops:
            findings.append(
                Finding(
                    "WS004",
                    files.service.relative,
                    line,
                    1,
                    f"{schema_name} validates op {op!r}, which run_dict never "
                    "dispatches",
                )
            )
    request_schemas = key_schemas(files.request)
    for name, (line, keys) in sorted(request_schemas.items()):
        if name != "_REQUEST_KEYS":
            continue
        missing = [key for key in ENVELOPE_KEYS if key not in keys]
        if missing:
            findings.append(
                Finding(
                    "WS004",
                    files.request.relative,
                    line,
                    1,
                    f"_REQUEST_KEYS is missing envelope key(s) {missing}",
                )
            )

    # WS005: error-code/status drift.
    codes, statuses, _, statuses_line = error_tables(files.errors)
    for code, line in sorted(codes.items()):
        if code not in statuses:
            findings.append(
                Finding(
                    "WS005",
                    files.errors.relative,
                    line,
                    1,
                    f"error code {code!r} has no HTTP_STATUS entry (would "
                    "degrade to 500)",
                )
            )
    for code, line in sorted(statuses.items()):
        if code not in codes:
            findings.append(
                Finding(
                    "WS005",
                    files.errors.relative,
                    line if line else statuses_line,
                    1,
                    f"HTTP_STATUS maps {code!r}, which is not in ERROR_CODES",
                )
            )

    # WS006: hint names vs the README's hints paragraph, both directions.
    hints_line, hints = request_schemas.get("HINT_KEYS", (1, ()))
    documented_hints = readme_hints(files.readme_text)
    for hint in hints:
        if hint not in documented_hints:
            findings.append(
                Finding(
                    "WS006",
                    files.request.relative,
                    hints_line,
                    1,
                    f"hint {hint!r} is in HINT_KEYS but the README's hints "
                    "paragraph never documents it",
                )
            )
    for hint, line in sorted(documented_hints.items()):
        if hint not in hints:
            findings.append(
                Finding(
                    "WS006",
                    files.readme_path,
                    line,
                    1,
                    f"README's hints paragraph documents {hint!r}, which is "
                    "not in HINT_KEYS (requests carrying it get bad_hint)",
                )
            )

    for source in (files.service, files.http, files.request, files.errors):
        findings = [
            f
            for f in findings
            if f.path != source.relative
            or f in filter_allowed(source, [f])
        ]
    return sort_findings(findings)


def check(root: Path) -> list[Finding]:
    """Run the WS family against the live tree under ``root``."""
    return check_files(WireFiles.from_root(root))
