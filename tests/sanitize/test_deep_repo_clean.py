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
        assert len(result.facts) > 50

    def test_no_deep_suppressions_anywhere(self):
        # Acceptance: LVM101-104 hold with zero suppressions.  Scan the
        # tree's suppression comments for deep rule ids.
        import re

        pattern = re.compile(r"lvm-san\s*:\s*ignore\[([^\]]*)\]")
        offenders = []
        for path in sorted(SRC_REPRO.rglob("*.py")):
            for match in pattern.finditer(path.read_text()):
                if any(rid.strip().startswith("LVM1") for rid in match.group(1).split(",")):
                    offenders.append(str(path))
        assert offenders == []


class TestDurabilityFacts:
    """LVM101 must have verified the three serving paths by name."""

    def test_sync_commit_ack_verified(self):
        assert (
            "lvm101 ack-clean repro/serve/server.py::TxnServer._commit:232"
            in _result().facts
        )

    def test_group_commit_ack_verified(self):
        assert (
            "lvm101 ack-clean repro/serve/server.py::TxnServer._flush_batch:264"
            in _result().facts
        )

    def test_ack_helper_verified(self):
        assert (
            "lvm101 ack-clean repro/serve/server.py::TxnServer._ack:290"
            in _result().facts
        )

    def test_crash_paths_ack_free(self):
        facts = _result().facts
        crash_facts = [
            f
            for f in facts
            if f.startswith("lvm101 crash-ack-free repro/serve/server.py::TxnServer.serve:")
        ]
        # Both ServeCrashed handlers in TxnServer.serve.
        assert len(crash_facts) == 2


class TestOtherFamilies:
    def test_span_facts_cover_the_server_dispatch(self):
        # A dispatched commit's stages: WAL append, then the device
        # write and flush it drives (sync and group-commit devices).
        facts = _result().facts
        for stage in (
            "repro/rvm/wal.py::WriteAheadLog._append",
            "repro/rvm/wal.py::WriteAheadLog._group_write",
            "repro/backends/base.py::LogDevice.write",
            "repro/backends/group_commit.py::GroupCommit.flush",
        ):
            assert f"lvm103 span-balanced {stage}" in facts

    def test_every_registered_site_proved_reachable(self):
        import ast

        registry = SRC_REPRO / "faults" / "sites.py"
        from repro.sanitize.sitegen import registered_sites

        sites = registered_sites(ast.parse(registry.read_text()))
        assert sites, "registry parse failed"
        facts = set(_result().facts)
        missing = [
            s for s in sorted(sites) if f"lvm104 site-reachable {s}" not in facts
        ]
        assert missing == []
