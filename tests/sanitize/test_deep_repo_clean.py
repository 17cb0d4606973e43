"""The repo must satisfy its own *whole-program* invariants.

The flat repo-clean test (``test_repo_clean.py``) proves every file is
locally well-formed; this one proves the interprocedural obligations
hold — and, more importantly, that the clean verdict is backed by
positive facts: the server's sync-commit, group-commit, and crash
paths were each actually walked and verified, with zero suppressions.
"""

from __future__ import annotations

from pathlib import Path

from repro.sanitize.deep.runner import run_deep

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"

# One deep run for the whole module (it costs a few seconds).
_RESULT = None


def _result():
    global _RESULT
    if _RESULT is None:
        _RESULT = run_deep([SRC_REPRO])
    return _RESULT


class TestDeepRepoClean:
    def test_no_findings(self):
        result = _result()
        assert result.findings == [], "\n".join(str(f) for f in result.findings)

    def test_analysis_actually_covered_the_tree(self):
        result = _result()
        assert result.files > 100
        assert result.functions > 1000
        # Every fact is LVM101's; 43 at the time of writing.
        assert all(f.startswith("lvm101 ") for f in result.facts)
        assert len(result.facts) >= 40

    def test_no_deep_suppressions_anywhere(self):
        # LVM101 holds with zero suppressions.  Scan the tree's
        # suppression comments for deep rule ids.
        import re

        pattern = re.compile(r"lvm-san\s*:\s*ignore\[([^\]]*)\]")
        offenders = []
        for path in sorted(SRC_REPRO.rglob("*.py")):
            for match in pattern.finditer(path.read_text()):
                if any(rid.strip().startswith("LVM1") for rid in match.group(1).split(",")):
                    offenders.append(str(path))
        assert offenders == []


def _ack_clean(fn):
    """The LVM101 ack-clean facts for ``TxnServer.<fn>``, at any line."""
    prefix = f"lvm101 ack-clean repro/serve/server.py::TxnServer.{fn}:"
    return [f for f in _result().facts if f.startswith(prefix)]


class TestDurabilityFacts:
    """LVM101 must have verified the three serving paths by name."""

    def test_sync_commit_ack_verified(self):
        assert len(_ack_clean("_commit")) == 1

    def test_group_commit_ack_verified(self):
        assert len(_ack_clean("_flush_batch")) == 1

    def test_ack_helper_verified(self):
        assert len(_ack_clean("_ack")) == 1

    def test_crash_paths_ack_free(self):
        facts = _result().facts
        crash_facts = [
            f
            for f in facts
            if f.startswith("lvm101 crash-ack-free repro/serve/server.py::TxnServer.serve:")
        ]
        # Both ServeCrashed handlers in TxnServer.serve.
        assert len(crash_facts) == 2
