"""Must-pass / must-fail fixtures for the interprocedural rule families.

Every deep rule gets both directions: a seeded violation it *must*
report (an inert analysis silently passes everything) and a
conforming twin it *must not* report (a paranoid analysis is unusable).
Fixtures run through the same :class:`Project`/:class:`CallGraph`
machinery as the real ``--deep`` run, just over in-memory modules.
"""

from __future__ import annotations

import textwrap
from typing import Sequence, Tuple

from repro.sanitize.deep import durability, reach, spans, units
from repro.sanitize.deep.callgraph import CallGraph
from repro.sanitize.deep.project import Project
from repro.sanitize.engine import make_context


def _project(*sources: str, module: str = "repro/serve/fix{}.py"):
    contexts = [
        make_context(textwrap.dedent(src), module.format(i))
        for i, src in enumerate(sources)
    ]
    project = Project.from_contexts(contexts)
    return project, CallGraph(project)


def _rule_ids(findings) -> list:
    return [f.rule_id for f in findings]


DEVICE = """
class Disk:
    def write(self, rec):
        pass
    def flush(self):
        pass
"""


class TestLVM101Durability:
    def test_ack_after_flush_is_clean_and_proved(self):
        project, graph = _project(
            DEVICE
            + textwrap.dedent("""
        class Srv:
            def __init__(self):
                self.disk = Disk()
            def commit_ack(self, rec, fut):
                self.disk.write(rec)
                self.disk.flush()
                fut.set_result(True)
        """)
        )
        findings, facts = durability.check(project, graph)
        assert findings == []
        assert any("ack-clean" in f and "commit_ack" in f for f in facts)

    def test_ack_before_flush_is_reported(self):
        project, graph = _project(
            DEVICE
            + textwrap.dedent("""
        class Srv:
            def __init__(self):
                self.disk = Disk()
            def commit_ack(self, rec, fut):
                self.disk.write(rec)
                fut.set_result(True)
        """)
        )
        findings, _ = durability.check(project, graph)
        assert _rule_ids(findings) == ["LVM101"]
        assert "buffered" in findings[0].message

    def test_interprocedural_dirty_state_crosses_calls(self):
        # The write happens in a helper; the ack in the caller.  Only a
        # summary-based analysis connects them.
        project, graph = _project(
            DEVICE
            + textwrap.dedent("""
        class Srv:
            def __init__(self):
                self.disk = Disk()
            def _append(self, rec):
                self.disk.write(rec)
            def commit_ack(self, rec, fut):
                self._append(rec)
                fut.set_result(True)
        """)
        )
        findings, _ = durability.check(project, graph)
        assert _rule_ids(findings) == ["LVM101"]

    def test_flush_in_callee_discharges_caller_obligation(self):
        project, graph = _project(
            DEVICE
            + textwrap.dedent("""
        class Srv:
            def __init__(self):
                self.disk = Disk()
            def _append_durable(self, rec):
                self.disk.write(rec)
                self.disk.flush()
            def commit_ack(self, rec, fut):
                self._append_durable(rec)
                fut.set_result(True)
        """)
        )
        findings, _ = durability.check(project, graph)
        assert findings == []

    def test_unsound_flush_impl_is_reported(self):
        # A flush() that leaves its own buffered write behind betrays
        # every caller that trusted it.
        project, graph = _project(
            """
        class Dev:
            def write(self, rec):
                pass

        class Wrapper:
            def __init__(self):
                self.device = Dev()
            def flush(self):
                self.device.write(b"tail")
        """
        )
        findings, _ = durability.check(project, graph)
        assert _rule_ids(findings) == ["LVM101"]
        assert "flush" in findings[0].message

    def test_crash_handler_must_not_ack(self):
        project, graph = _project(
            """
        class CrashPoint(Exception):
            pass

        class Srv:
            def _ack(self, fut):
                fut.set_result(True)
            def step(self):
                pass
            def serve(self, fut):
                try:
                    self.step()
                except CrashPoint:
                    self._ack(fut)
        """
        )
        findings, _ = durability.check(project, graph)
        assert "LVM101" in _rule_ids(findings)
        assert any("Crash" in f.message or "crash" in f.message for f in findings)

    def test_crash_handler_without_ack_is_proved_free(self):
        project, graph = _project(
            """
        class CrashPoint(Exception):
            pass

        class Srv:
            def _log(self, why):
                pass
            def step(self):
                pass
            def serve(self):
                try:
                    self.step()
                except CrashPoint:
                    self._log("crashed")
        """
        )
        findings, facts = durability.check(project, graph)
        assert findings == []
        assert any("crash-ack-free" in f for f in facts)

    def test_flush_flag_false_path_keeps_obligation_alive(self):
        # The flush=False branch skips the flush but still reaches the
        # ack — the analysis must not let the flush=True branch excuse it.
        project, graph = _project(
            DEVICE
            + textwrap.dedent("""
        class Srv:
            def __init__(self):
                self.disk = Disk()
            def _ack(self, fut):
                fut.set_result(True)
            def _commit(self, rec, fut, flush=True):
                self.disk.write(rec)
                if flush:
                    self.disk.flush()
                self._ack(fut)
            def fast_path(self, rec, fut):
                self._commit(rec, fut, flush=False)
        """)
        )
        findings, _ = durability.check(project, graph)
        assert "LVM101" in _rule_ids(findings)
        assert any("_commit" in f.message for f in findings)

    def test_flush_flag_ack_only_on_flushed_branch_is_clean(self):
        # rvm.Transaction.commit's real shape: the unflushed branch
        # defers the ack, so specializing on the flag proves both
        # callers clean.
        project, graph = _project(
            DEVICE
            + textwrap.dedent("""
        class Srv:
            def __init__(self):
                self.disk = Disk()
            def _ack(self, fut):
                fut.set_result(True)
            def _commit(self, rec, fut, flush=True):
                self.disk.write(rec)
                if flush:
                    self.disk.flush()
                    self._ack(fut)
            def fast_path(self, rec, fut):
                self._commit(rec, fut, flush=False)
        """)
        )
        findings, _ = durability.check(project, graph)
        assert findings == []


class TestLVM102Units:
    def test_wall_minus_cycles_is_reported(self):
        project, graph = _project(
            """
        import time

        def elapsed(start_cycles):
            wall = time.time()
            return wall - start_cycles
        """
        )
        findings, _ = units.check(project, graph)
        assert _rule_ids(findings) == ["LVM102"]

    def test_cycles_per_second_rate_is_legal(self):
        project, graph = _project(
            """
        def rate(total_cycles, wall_secs):
            return total_cycles / wall_secs
        """
        )
        findings, _ = units.check(project, graph)
        assert findings == []

    def test_bytes_into_cycle_named_variable_is_reported(self):
        project, graph = _project(
            """
        def budget(nbytes):
            cycles_needed = nbytes
            return cycles_needed
        """
        )
        findings, _ = units.check(project, graph)
        assert _rule_ids(findings) == ["LVM102"]

    def test_interprocedural_wall_return_added_to_cycles(self):
        project, graph = _project(
            """
        import time

        def wall_now():
            return time.time()

        def deadline(cycle_count):
            return cycle_count + wall_now()
        """
        )
        findings, _ = units.check(project, graph)
        assert _rule_ids(findings) == ["LVM102"]

    def test_cycles_plus_cycles_is_legal(self):
        project, graph = _project(
            """
        def total(cycles_a, cycles_b):
            return cycles_a + cycles_b
        """
        )
        findings, _ = units.check(project, graph)
        assert findings == []


class TestLVM103Spans:
    # The CFG-level span verdicts live in test_cfg.py; here: gate purity.
    def test_impure_gate_store_is_reported(self):
        ctx = make_context(
            textwrap.dedent(
                """
            def traced(probe, obj):
                sp = probe._ACTIVE
                if sp is not None:
                    obj.count += 1
            """
            ),
            "repro/serve/fix0.py",
        )
        findings, _ = spans.check(Project.from_contexts([ctx]))
        assert _rule_ids(findings) == ["LVM103"]
        assert "mutation" in findings[0].message

    def test_gate_control_flow_is_reported(self):
        ctx = make_context(
            textwrap.dedent(
                """
            def traced(probe, req):
                sp = probe._ACTIVE
                if sp is not None:
                    sp.inc("requests")
                    raise RuntimeError("tracing broke the bare path")
            """
            ),
            "repro/serve/fix0.py",
        )
        findings, _ = spans.check(Project.from_contexts([ctx]))
        assert _rule_ids(findings) == ["LVM103"]
        assert "control flow" in findings[0].message

    def test_pure_gate_body_is_legal(self):
        ctx = make_context(
            textwrap.dedent(
                """
            def traced(probe, req):
                sp = probe._ACTIVE
                if sp is not None:
                    size = len(req)
                    sp.observe("request_bytes", size)
            """
            ),
            "repro/serve/fix0.py",
        )
        findings, _ = spans.check(Project.from_contexts([ctx]))
        assert findings == []

    def test_fused_fallback_single_return_is_legal(self):
        ctx = make_context(
            textwrap.dedent(
                """
            def fast_path(faultplan, data):
                if faultplan._ACTIVE is not None:
                    return False
                return _do_fast(data)
            """
            ),
            "repro/serve/fix0.py",
        )
        findings, _ = spans.check(Project.from_contexts([ctx]))
        assert findings == []


class TestLVM104Reachability:
    REGISTRY = {"srv.commit", "srv.orphan"}

    SOURCE = """
    SITE_COMMIT = "srv.commit"

    def _hidden(plan):
        plan.hit("srv.orphan")

    class Srv:
        def commit(self, plan):
            plan.hit(SITE_COMMIT)
    """

    def test_unreachable_site_is_reported_and_live_site_proved(self):
        project, graph = _project(self.SOURCE)
        findings, facts = reach.check(project, graph, set(self.REGISTRY))
        assert _rule_ids(findings) == ["LVM104"]
        assert "srv.orphan" in findings[0].message
        assert facts == ["lvm104 site-reachable srv.commit"]

    def test_stale_registry_entry_is_reported(self):
        project, graph = _project(self.SOURCE)
        findings, _ = reach.check(
            project, graph, {"srv.commit", "srv.gone_from_code"}
        )
        assert _rule_ids(findings) == ["LVM104"]
        assert "stale" in findings[0].message

    def test_site_behind_public_caller_chain_is_live(self):
        project, graph = _project(
            """
        def _helper(plan):
            plan.hit("srv.deep_site")

        def entry(plan):
            _helper(plan)
        """
        )
        findings, facts = reach.check(project, graph, {"srv.deep_site"})
        assert findings == []
        assert facts == ["lvm104 site-reachable srv.deep_site"]
