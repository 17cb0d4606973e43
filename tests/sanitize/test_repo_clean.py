"""The repo itself must satisfy its own invariants.

This is the teeth of the linter: ``python -m repro lint src/repro``
exits 0 on every commit, and the seeded-violation tests prove that a
regression would actually be caught (an inert linter also exits 0).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sanitize.engine import lint_paths, lint_source
from repro.sanitize.rules import all_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


class TestRepoClean:
    def test_lint_api_reports_no_findings(self):
        findings = lint_paths([SRC_REPRO], all_rules())
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_lint_cli_exits_zero(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(SRC_REPRO)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_lint_cli_list_rules(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0
        for rule_id in ("LVM001", "LVM002", "LVM005", "LVM007"):
            assert rule_id in result.stdout

    def test_lint_cli_select_unknown_rule_errors(self):
        from repro.sanitize.cli import lint_main

        with pytest.raises(SystemExit):
            lint_main(["--select", "LVM777", str(SRC_REPRO)])


class TestSeededViolations:
    """Re-lint real repo files with one violation spliced in.

    Each seeded violation must be caught by exactly the intended rule
    — over the *real* module, not a synthetic fixture, so rule scoping
    (cycle-domain paths, registry contents) is exercised for real.
    """

    def test_seeded_wall_clock_caught_by_lvm001(self):
        source = (SRC_REPRO / "hw" / "clock.py").read_text()
        source += "\n\nimport time\n\ndef _wall():\n    return time.time()\n"
        findings = lint_source(source, "repro/hw/clock.py", all_rules())
        assert [f.rule_id for f in findings] == ["LVM001"]

    def test_seeded_unregistered_site_caught_by_lvm005(self):
        source = (SRC_REPRO / "rvm" / "wal.py").read_text()
        source += (
            "\n\ndef _bad(cycle):\n"
            '    faultplan.hit("wal.bogus_site", cycle=cycle)\n'
        )
        findings = lint_source(source, "repro/rvm/wal.py", all_rules())
        assert [f.rule_id for f in findings] == ["LVM005"]
        assert "wal.bogus_site" in findings[0].message


def _tool(name):
    return shutil.which(name)


class TestExternalLinters:
    """ruff/mypy run clean when available (CI installs them; the
    sandbox image may not have them, so these skip rather than fail)."""

    @pytest.mark.skipif(_tool("ruff") is None, reason="ruff not installed")
    def test_ruff_clean(self):
        result = subprocess.run(
            ["ruff", "check", "src", "tests"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    @pytest.mark.skipif(_tool("mypy") is None, reason="mypy not installed")
    def test_mypy_clean(self):
        result = subprocess.run(
            ["mypy", "src/repro/sanitize", "src/repro/faults"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
