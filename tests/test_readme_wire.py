"""The README is the wire contract clients read: it documents every
op, route and hint the code declares, and names none that do not
exist."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.api import request, service
from repro.server import http

README = Path(__file__).resolve().parents[1] / "README.md"

FAMILIES = ("op", "route", "hint")


def declared(family: str) -> set[str]:
    """What the code serves: the table's ops, every route, the hints."""
    if family == "op":
        return set(service.WIRE_OPS)
    if family == "route":
        routes = {wire_op.route for wire_op in service.WIRE_OPS.values() if wire_op.route}
        return routes | {f"POST {http.QUERY_PATH}"} | {
            f"GET {path}" for path in http.SERVER_ROUTES
        }
    return set(request.HINT_KEYS)


def documented(family: str, text: str) -> set[str]:
    """What the README names: ``{"op": ...}`` payloads (the default
    query op is every undecorated example), ``GET``/``POST`` routes,
    and the bold names of the paragraph opening with "Hints"."""
    if family == "op":
        return set(re.findall(r'"op"\s*:\s*"(\w+)"', text)) | {service.QUERY_OP.name}
    if family == "route":
        return {" ".join(match) for match in re.findall(r"\b(GET|POST)\s+(/[a-z_]+)", text)}
    paragraph = text.split("\nHints ", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"\*\*`(\w+)`\*\*", paragraph))


@pytest.mark.parametrize("family", FAMILIES)
def test_readme_documents_exactly_what_the_code_declares(family):
    text = README.read_text(encoding="utf-8")
    have, docs = declared(family), documented(family, text)
    assert sorted(have - docs) == [], f"{family}s the README never documents"
    assert sorted(docs - have) == [], f"{family}s the README documents that do not exist"


# -- the check can fail --------------------------------------------------------


def _ghost(service_: service.GeoService, payload: dict) -> dict:
    return {}


#: A row the README has never heard of, with its own route.
GHOST = service.WireOp("compact", (), _ghost, "POST /compact")


@pytest.mark.parametrize(
    ("family", "patch"),
    [
        ("op", lambda mp: mp.setitem(service.WIRE_OPS, GHOST.name, GHOST)),
        ("route", lambda mp: mp.setitem(service.WIRE_OPS, GHOST.name, GHOST)),
        ("route", lambda mp: mp.setitem(http.SERVER_ROUTES, "/metrics", lambda server: {})),
        ("hint", lambda mp: mp.setattr(request, "HINT_KEYS", (*request.HINT_KEYS, "ghost"))),
    ],
)
def test_an_undocumented_declaration_fails(family, patch, monkeypatch):
    patch(monkeypatch)
    with pytest.raises(AssertionError, match="never documents"):
        test_readme_documents_exactly_what_the_code_declares(family)


@pytest.mark.parametrize(
    ("family", "old", "new"),
    [
        ("op", "## Serving over HTTP", '{"op": "compact"}\n\n## Serving over HTTP'),
        ("route", "## Serving over HTTP", "POST /drop\n\n## Serving over HTTP"),
        ("hint", "**`cache`** is", "**`cache`** (or **`ghost`**) is"),
    ],
)
def test_a_documented_name_that_does_not_exist_fails(
    family, old, new, monkeypatch, tmp_path
):
    text = README.read_text(encoding="utf-8")
    assert old in text
    doctored = tmp_path / "README.md"
    doctored.write_text(text.replace(old, new, 1), encoding="utf-8")
    monkeypatch.setattr(f"{__name__}.README", doctored)
    with pytest.raises(AssertionError, match="do not exist"):
        test_readme_documents_exactly_what_the_code_declares(family)
