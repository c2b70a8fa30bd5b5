"""WS family: wire-surface cross-checks, including the fake-op
regression (inject an op into a temp copy of the dispatch and assert
the missing route/doc entries surface)."""

from __future__ import annotations

import dataclasses

from repro.analysis import wire
from repro.analysis.core import load_source
from repro.analysis.wire import WireFiles

from tests.analysis.conftest import source


def rules(findings):
    return [finding.rule for finding in findings]


SERVICE = """
class GeoService:
    _VIEWS_KEYS = ("v", "op", "dataset")

    def run_dict(self, payload):
        op = payload.get("op")
        if op == "views":
            self._check_op_payload(payload, "views", self._VIEWS_KEYS)
            return {}
        return {}
"""

HTTP = """
class Handler:
    def do_GET(self):
        path = self.path
        if path == "/healthz":
            return 200
        return 404

    def do_POST(self):
        path = self.path
        if path in ("/query", "/views"):
            return 200
        return 404
"""

REQUEST = '_REQUEST_KEYS = ("v", "op", "dataset", "polygon")\n'

ERRORS = """
BAD_REQUEST = "bad_request"
ERROR_CODES = (BAD_REQUEST,)
HTTP_STATUS = {BAD_REQUEST: 400}
"""

README = """
Send POST /query payloads; management ops ride the same route with
{"op": "views"} envelopes.  Liveness is GET /healthz.  Views also
answer on POST /views.
"""


def make_files(
    service: str = SERVICE,
    http: str = HTTP,
    request: str = REQUEST,
    errors: str = ERRORS,
    readme: str = README,
) -> WireFiles:
    return WireFiles(
        service=source(service, relative="src/repro/api/service.py"),
        http=source(http, relative="src/repro/server/http.py"),
        request=source(request, relative="src/repro/api/request.py"),
        errors=source(errors, relative="src/repro/api/errors.py"),
        readme_text=readme,
    )


def test_consistent_surface_is_clean():
    assert wire.check_files(make_files()) == []


# -- WS001/WS002: op drift ----------------------------------------------------


def test_undocumented_unrouted_op_raises_ws001_and_ws002():
    ghost = SERVICE.replace(
        'if op == "views":',
        'if op == "ghost":\n            return {}\n        if op == "views":',
    )
    findings = wire.check_files(make_files(service=ghost))
    assert rules(findings) == ["WS001", "WS002"]
    assert all("ghost" in f.message for f in findings)


def test_documented_but_undispatched_op_raises_ws002():
    readme = README + '\nAlso accepts {"op": "compact"} payloads.\n'
    findings = wire.check_files(make_files(readme=readme))
    assert rules(findings) == ["WS002"]
    assert findings[0].path == "README.md"
    assert "compact" in findings[0].message


# -- WS003: route drift -------------------------------------------------------


def test_undocumented_route_raises_ws003():
    readme = README.replace("GET /healthz", "the health endpoint")
    findings = wire.check_files(make_files(readme=readme))
    assert rules(findings) == ["WS003"]
    assert "GET /healthz" in findings[0].message


def test_documented_dead_route_raises_ws003():
    readme = README + "\nDatasets are dropped with POST /drop.\n"
    findings = wire.check_files(make_files(readme=readme))
    assert rules(findings) == ["WS003"]
    assert findings[0].path == "README.md"
    assert "POST /drop" in findings[0].message


# -- WS004: key-schema gaps ---------------------------------------------------


def test_schema_missing_envelope_key_raises_ws004():
    service = SERVICE.replace(
        '_VIEWS_KEYS = ("v", "op", "dataset")', '_VIEWS_KEYS = ("v", "op")'
    )
    findings = wire.check_files(make_files(service=service))
    assert rules(findings) == ["WS004"]
    assert "dataset" in findings[0].message


def test_schema_for_undispatched_op_raises_ws004():
    service = SERVICE.replace(
        'self._check_op_payload(payload, "views", self._VIEWS_KEYS)',
        'self._check_op_payload(payload, "nope", self._VIEWS_KEYS)',
    )
    findings = wire.check_files(make_files(service=service))
    assert rules(findings) == ["WS004"]
    assert "'nope'" in findings[0].message


def test_request_keys_missing_envelope_raises_ws004():
    findings = wire.check_files(make_files(request='_REQUEST_KEYS = ("v", "polygon")\n'))
    assert rules(findings) == ["WS004"]
    assert findings[0].path == "src/repro/api/request.py"


# -- WS005: error-code/status drift -------------------------------------------


def test_code_without_status_raises_ws005():
    errors = ERRORS.replace(
        "ERROR_CODES = (BAD_REQUEST,)",
        'NOT_FOUND = "not_found"\nERROR_CODES = (BAD_REQUEST, NOT_FOUND)',
    )
    findings = wire.check_files(make_files(errors=errors))
    assert rules(findings) == ["WS005"]
    assert "'not_found'" in findings[0].message
    assert "500" in findings[0].message


def test_orphan_status_raises_ws005():
    errors = ERRORS.replace(
        "HTTP_STATUS = {BAD_REQUEST: 400}",
        'HTTP_STATUS = {BAD_REQUEST: 400, "gone": 410}',
    )
    findings = wire.check_files(make_files(errors=errors))
    assert rules(findings) == ["WS005"]
    assert "'gone'" in findings[0].message


# -- WS006: hint drift --------------------------------------------------------

HINT_REQUEST = REQUEST + 'HINT_KEYS = ("cache", "count_only")\n'

HINT_README = README + """
Hints tune execution: **`cache`** toggles the trie probes and
**`count_only`** takes the count path.

Elsewhere a bold **`where`** is not a hint.
"""


def test_documented_hints_match_is_clean():
    assert wire.check_files(make_files(request=HINT_REQUEST, readme=HINT_README)) == []


def test_undocumented_hint_raises_ws006():
    request = HINT_REQUEST.replace('"count_only")', '"count_only", "turbo")')
    findings = wire.check_files(make_files(request=request, readme=HINT_README))
    assert rules(findings) == ["WS006"]
    assert findings[0].path == "src/repro/api/request.py"
    assert "'turbo'" in findings[0].message


def test_documented_but_unparsed_hint_raises_ws006():
    request = HINT_REQUEST.replace('("cache", "count_only")', '("cache",)')
    findings = wire.check_files(make_files(request=request, readme=HINT_README))
    assert rules(findings) == ["WS006"]
    assert findings[0].path == "README.md"
    assert "'count_only'" in findings[0].message


def test_fake_hint_in_live_request_copy_is_caught(repo_root, tmp_path):
    """Add a hint to a temp copy of the real ``request.py`` and assert
    the README drift surfaces -- and nothing else."""
    live = WireFiles.from_root(repo_root)
    marker = 'HINT_KEYS = ("cache", "count_only")'
    assert marker in live.request.text
    copy = tmp_path / "request.py"
    copy.write_text(
        live.request.text.replace(marker, 'HINT_KEYS = ("cache", "count_only", "fake_hint")', 1),
        encoding="utf-8",
    )
    files = dataclasses.replace(live, request=load_source(tmp_path, copy))

    findings = wire.check_files(files)
    assert rules(findings) == ["WS006"]
    assert "fake_hint" in findings[0].message


# -- the fake-op regression ---------------------------------------------------


def test_fake_op_in_live_dispatch_copy_is_caught(repo_root, tmp_path):
    """Register an op in a temp copy of the real dispatch table and
    assert the checker reports the missing route and doc entries."""
    live = WireFiles.from_root(repo_root)
    marker = 'if op == "append":'
    assert marker in live.service.text
    injected = live.service.text.replace(
        marker,
        'if op == "fake_op":\n                return {"ok": True}\n            ' + marker,
        1,
    )
    copy = tmp_path / "service.py"
    copy.write_text(injected, encoding="utf-8")
    candidate = load_source(tmp_path, copy)
    files = dataclasses.replace(live, service=candidate)

    findings = wire.check_files(files)
    fake = [f for f in findings if "fake_op" in f.message]
    assert sorted({f.rule for f in fake}) == ["WS001", "WS002"]
    # Nothing else regresses: the only findings are about the fake op.
    assert fake == findings


# -- the live tree ------------------------------------------------------------


def test_live_tree_is_clean(repo_root):
    assert wire.check(repo_root) == []
