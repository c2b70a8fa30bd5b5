"""The ``python -m repro.analysis`` gate: exit codes, reports, filters."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from repro.analysis.core import REPORT_SCHEMA_VERSION, RULES
from repro.analysis.__main__ import main


@pytest.fixture()
def violating_root(repo_root, tmp_path):
    """A full copy of the tree with one injected FD001 violation."""
    shutil.copytree(repo_root / "src", tmp_path / "src")
    shutil.copy(repo_root / "README.md", tmp_path / "README.md")
    bad = tmp_path / "src" / "repro" / "engine" / "_bad_fold.py"
    bad.write_text("def fold(parts):\n    return sum(parts)\n", encoding="utf-8")
    return tmp_path


def test_clean_root_exits_zero(repo_root, capsys):
    assert main(["--root", str(repo_root)]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_json_report_schema(repo_root, capsys):
    assert main(["--root", str(repo_root), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == REPORT_SCHEMA_VERSION
    assert report["ok"] is True
    assert report["findings"] == []
    assert report["counts"] == {}
    assert report["files_scanned"] > 100


def test_violation_exits_one_with_location(violating_root, capsys):
    assert main(["--root", str(violating_root)]) == 1
    out = capsys.readouterr().out
    assert "FD001" in out
    assert "_bad_fold.py:2:" in out


def test_violation_json_report(violating_root, capsys):
    assert main(["--root", str(violating_root), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["counts"] == {"FD001": 1}
    (finding,) = report["findings"]
    assert finding["rule"] == "FD001"
    assert finding["name"] == "builtin-sum-in-fold-path"
    assert finding["path"] == "src/repro/engine/_bad_fold.py"
    assert finding["line"] == 2


def test_rules_filter_scopes_the_gate(violating_root, capsys):
    assert main(["--root", str(violating_root), "--rules", "WS,LD"]) == 0
    assert main(["--root", str(violating_root), "--rules", "FD"]) == 1
    assert main(["--root", str(violating_root), "--rules", "FD001"]) == 1
    capsys.readouterr()


def test_unknown_rule_filter_exits_two(repo_root, capsys):
    assert main(["--root", str(repo_root), "--rules", "ZZ999"]) == 2
    assert "unknown rule filter" in capsys.readouterr().err


def test_bad_root_exits_two(tmp_path, capsys):
    assert main(["--root", str(tmp_path)]) == 2
    assert "src/repro" in capsys.readouterr().err


def test_list_rules_covers_the_catalogue(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.id in out
        assert rule.name in out
    assert "why:" in out
    assert {rule.id[:2] for rule in RULES} == {"FD", "LD", "WS", "PG"}


def test_module_entry_point(repo_root):
    """The real ``python -m repro.analysis`` process gate exits 0."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--root", str(repo_root)],
        capture_output=True,
        text=True,
        cwd=repo_root,
        env={"PYTHONPATH": str(repo_root / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout
