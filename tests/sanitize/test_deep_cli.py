"""CLI contract of ``python -m repro lint --deep``.

Exit codes, JSON and SARIF report shapes, and the LVM007
dead-suppression pass — all through the real subprocess entry point,
because CI consumes exactly that surface.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

VIOLATION = textwrap.dedent(
    """
    class Disk:
        def write(self, rec):
            pass
        def flush(self):
            pass

    class Srv:
        def __init__(self):
            self.disk = Disk()
        def commit_ack(self, rec, fut):
            self.disk.write(rec)
            fut.set_result(True)
    """
)

CLEAN = VIOLATION.replace(
    "self.disk.write(rec)", "self.disk.write(rec)\n        self.disk.flush()"
)


def lint(*argv, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=180,
    )


@pytest.fixture
def violation_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(VIOLATION)
    return path


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "good.py"
    path.write_text(CLEAN)
    return path


class TestExitCodes:
    def test_violation_exits_one(self, tmp_path, violation_file):
        result = lint("--deep", violation_file.name, cwd=tmp_path)
        assert result.returncode == 1
        assert "LVM101" in result.stdout

    def test_clean_exits_zero_and_reports_facts(self, tmp_path, clean_file):
        result = lint("--deep", "--facts", clean_file.name, cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "fact: lvm101 ack-clean" in result.stdout
        assert "clean" in result.stderr

    def test_format_json_requires_deep(self, tmp_path, clean_file):
        result = lint("--format", "json", clean_file.name, cwd=tmp_path)
        assert result.returncode == 2
        assert "requires --deep" in result.stderr


class TestReports:
    def test_json_report(self, tmp_path, violation_file):
        result = lint("--deep", "--format", "json", violation_file.name, cwd=tmp_path)
        assert result.returncode == 1
        doc = json.loads(result.stdout)
        assert doc["version"] == 1
        assert doc["counts"] == {"LVM101": 1}
        (finding,) = doc["findings"]
        assert finding["rule_id"] == "LVM101"
        assert finding["path"] == "bad.py"
        assert finding["line"] > 0

    def test_sarif_report(self, tmp_path, violation_file):
        out = tmp_path / "report.sarif"
        result = lint(
            "--deep",
            "--format",
            "sarif",
            "--out",
            out.name,
            violation_file.name,
            cwd=tmp_path,
        )
        assert result.returncode == 1
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "lvm-san-deep"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"LVM101", "LVM007"} <= rule_ids
        (res,) = run["results"]
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "bad.py"
        assert loc["region"]["startLine"] > 0


class TestDeadSuppressions:
    def test_dead_suppression_fails_deep_lint(self, tmp_path):
        path = tmp_path / "sup.py"
        path.write_text("x = 1  # lvm-san: ignore[LVM001]\n")
        result = lint("--deep", path.name, cwd=tmp_path)
        assert result.returncode == 1
        assert "LVM007" in result.stdout
        assert "dead suppression" in result.stdout

    def test_live_suppression_is_not_flagged(self, tmp_path, violation_file):
        source = VIOLATION.replace(
            "fut.set_result(True)",
            "fut.set_result(True)  # lvm-san: ignore[LVM101]",
        )
        violation_file.write_text(source)
        result = lint("--deep", violation_file.name, cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_select_skips_dead_suppression_check(self, tmp_path):
        path = tmp_path / "sup.py"
        path.write_text("x = 1  # lvm-san: ignore[LVM002]\n")
        result = lint("--deep", "--select", "LVM001", path.name, cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_list_rules_documents_lvm007(self, tmp_path):
        result = lint("--list-rules", cwd=tmp_path)
        assert result.returncode == 0
        assert "LVM007" in result.stdout


FIXTURES = REPO_ROOT / "tests" / "sanitize" / "fixtures" / "deep"
MUST_FAIL = sorted((FIXTURES / "must_fail").glob("*.py"))
MUST_PASS = sorted((FIXTURES / "must_pass").glob("*.py"))


class TestFixtureCorpus:
    """The committed fixture corpus CI's must-fail matrix loops over.

    Each must-fail file is named ``lvmNNN_<what>.py`` and must produce
    at least one finding of exactly that rule; each must-pass file must
    be completely clean.  This is the inertness check: a deep linter
    that stops seeing violations fails here, not silently in
    production.
    """

    @pytest.mark.parametrize("path", MUST_FAIL, ids=lambda p: p.stem)
    def test_must_fail(self, path, tmp_path):
        expected = path.stem.split("_")[0].upper()
        result = lint("--deep", str(path), cwd=tmp_path)
        assert result.returncode == 1, result.stdout + result.stderr
        assert expected in result.stdout

    @pytest.mark.parametrize("path", MUST_PASS, ids=lambda p: p.stem)
    def test_must_pass(self, path, tmp_path):
        result = lint("--deep", str(path), cwd=tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_corpus_is_populated(self):
        # LVM101 and the dead-suppression check each have a must-fail
        # fixture; losing one quietly would hollow out CI.
        prefixes = {p.stem.split("_")[0] for p in MUST_FAIL}
        assert {"lvm101", "lvm007"} <= prefixes
        assert MUST_PASS
