"""Unit tests for the FaultPlan machinery, plus the mutation guards:
deliberately broken recoveries that the consistency checker must catch.
"""

import pytest

from repro import probe
from repro.errors import ConfigError
from repro.faults import CrashPoint, CrashSpec, FaultPlan, installed
from repro.faults import plan as faultplan
from repro.faults.checker import (
    DURABLE,
    CrashCheckFailure,
    CrashConsistencyChecker,
    RecoveredState,
    recover,
)
from repro.faults.sweep import DEFAULT_SCRIPT, check_run, run_script
from repro.backends.ramdisk import RamDisk
from repro.rvm.rlvm import RLVM
from repro.rvm.rvm import RVM


class TestTriggers:
    def test_before_mode_leaves_nothing_durable(self, machine, proc):
        disk = RamDisk(1024)
        with installed(FaultPlan.at_disk_write(nth=2)):
            disk.write(proc.cpu, 0, b"AAAA")
            with pytest.raises(CrashPoint) as exc:
                disk.write(proc.cpu, 8, b"BBBB")
        assert disk.peek(0, 4) == b"AAAA"
        assert disk.peek(8, 4) == bytes(4)
        assert exc.value.site == "ramdisk.write"
        assert exc.value.seq == 2

    def test_after_mode_makes_the_write_durable_first(self, machine, proc):
        disk = RamDisk(1024)
        with installed(FaultPlan.at_disk_write(nth=1, mode="after")):
            with pytest.raises(CrashPoint):
                disk.write(proc.cpu, 0, b"AAAA")
        assert disk.peek(0, 4) == b"AAAA"

    def test_torn_mode_leaves_a_strict_prefix(self, machine, proc):
        def run(seed):
            disk = RamDisk(1024)
            plan = FaultPlan.at_disk_write(nth=1, mode="torn", seed=seed)
            with installed(plan):
                with pytest.raises(CrashPoint):
                    disk.write(proc.cpu, 0, b"ABCDEFGH")
            return disk.peek(0, 8)

        got = run(7)
        assert got == run(7), "torn cut must be seed-deterministic"
        cuts = [k for k in range(1, 8) if got == b"ABCDEFGH"[:k] + bytes(8 - k)]
        assert cuts, f"not a strict prefix: {got!r}"

    def test_cycle_trigger_fires_once_time_passes(self, machine, proc):
        disk = RamDisk(1024)
        with installed(FaultPlan.at_cycle(proc.cpu.now + 1)):
            # Hooks observe the cycle *before* the write is charged, so
            # the first write (at cycle 0) survives and becomes durable.
            disk.write(proc.cpu, 0, b"AAAA")
            with pytest.raises(CrashPoint):
                disk.write(proc.cpu, 8, b"BBBB")
        assert disk.peek(0, 4) == b"AAAA"
        assert disk.peek(8, 4) == bytes(4)

    def test_counts_and_fired_latch(self, machine, proc):
        disk = RamDisk(1024)
        plan = FaultPlan()  # no trigger: pure counting
        with installed(plan):
            for i in range(5):
                disk.write(proc.cpu, 16 * i, b"xx")
        assert plan.counts[faultplan.SITE_DISK_WRITE] == 5
        assert not plan.fired

    def test_double_install_rejected(self):
        with installed(FaultPlan()):
            with pytest.raises(ConfigError):
                faultplan.install(FaultPlan())

    def test_module_hit_is_noop_without_plan(self):
        probe.hit("any.site", cycle=123)  # must not raise

    def test_repr_replays_the_plan(self):
        plan = FaultPlan(seed=9, crash=CrashSpec("wal.append", 3, "torn"))
        clone = eval(repr(plan), {"FaultPlan": FaultPlan, "CrashSpec": CrashSpec})
        assert clone.seed == plan.seed
        assert clone.crash == plan.crash
        assert clone.reorder_window == plan.reorder_window

    def test_snapshot_rides_the_exception(self, machine, proc):
        disk = RamDisk(1024)
        plan = FaultPlan.at_disk_write(nth=1)
        plan.snapshot_source(lambda: "durable-state")
        with installed(plan):
            with pytest.raises(CrashPoint) as exc:
                disk.write(proc.cpu, 0, b"AAAA")
        assert exc.value.snapshot == "durable-state"
        assert "CrashSpec" in exc.value.plan_repr


class TestReorderWindow:
    def _run(self, proc, seed):
        disk = RamDisk(64)
        plan = FaultPlan(
            seed=seed, crash=CrashSpec("ramdisk.write", 4), reorder_window=2
        )
        with installed(plan):
            disk.write(proc.cpu, 0, b"AAAA")
            disk.write(proc.cpu, 8, b"BBBB")
            disk.write(proc.cpu, 16, b"CCCC")
            with pytest.raises(CrashPoint):
                disk.write(proc.cpu, 24, b"DDDD")
        return disk.peek(0, 32)

    def test_window_is_deterministic_and_atomic(self, machine, proc):
        got = self._run(proc, 11)
        assert got == self._run(proc, 11)
        # Write 1 left the two-deep window before the crash: durable.
        assert got[0:4] == b"AAAA"
        # Windowed writes are lost or kept whole, never shredded.
        assert got[8:12] in (b"BBBB", bytes(4))
        assert got[16:20] in (b"CCCC", bytes(4))
        # The crashing write itself (mode "before") never lands.
        assert got[24:28] == bytes(4)

    def test_reordering_actually_happens(self, machine, proc):
        outcomes = {self._run(proc, seed) for seed in range(8)}
        assert len(outcomes) > 1, "no seed ever lost a windowed write"


class TestMutationGuards:
    """Deliberately broken recoveries must be caught by the checker."""

    def _crashed_rvm_run(self):
        plan = FaultPlan.at_site("rvm.commit.durable", nth=2)
        result = run_script(RVM, DEFAULT_SCRIPT, plan)
        assert result.crash is not None
        return result

    def test_honest_recovery_passes(self):
        result = self._crashed_rvm_run()
        check_run(result)  # must not raise

    def test_flipped_byte_is_caught(self):
        result = self._crashed_rvm_run()
        recovered = recover(result.crash.snapshot)
        name, image = next(iter(recovered.images.items()))
        broken = dict(recovered.images)
        broken[name] = image[:3] + bytes([image[3] ^ 0xFF]) + image[4:]
        bad = RecoveredState(
            images=broken,
            committed_tids=recovered.committed_tids,
            valid_log_bytes=recovered.valid_log_bytes,
        )
        with pytest.raises(CrashCheckFailure, match="diverges"):
            CrashConsistencyChecker(result.oracle).check(bad)

    def test_resurrected_unknown_tid_is_caught(self):
        result = self._crashed_rvm_run()
        recovered = recover(result.crash.snapshot)
        bad = RecoveredState(
            images=recovered.images,
            committed_tids=frozenset(recovered.committed_tids | {9999}),
            valid_log_bytes=recovered.valid_log_bytes,
        )
        with pytest.raises(CrashCheckFailure, match="unknown tids"):
            CrashConsistencyChecker(result.oracle).check(bad)

    def test_lost_durable_commit_is_caught(self):
        plan = FaultPlan.at_site("rvm.commit.durable", nth=3)
        result = run_script(RVM, DEFAULT_SCRIPT, plan)
        recovered = recover(result.crash.snapshot)
        durable = {
            t for t, m in result.oracle.txns.items() if m.status == DURABLE
        }
        victim = sorted(durable & set(recovered.committed_tids))[0]
        bad = RecoveredState(
            images=recovered.images,
            committed_tids=frozenset(recovered.committed_tids - {victim}),
            valid_log_bytes=recovered.valid_log_bytes,
        )
        with pytest.raises(CrashCheckFailure):
            CrashConsistencyChecker(result.oracle).check(bad)

    def test_forced_fifo_drop_corrupts_rlvm_and_is_caught(self):
        """The deliberately-broken durability stack: drop one hardware
        log record (txn 3's write of word 1, which nothing later
        overwrites) as an overflow would.  RLVM then commits a partial
        transaction — real corruption the checker must flag as a
        divergence from the oracle."""
        plan = FaultPlan.at_fifo_push(nth=10, mode="drop")
        result = run_script(RLVM, DEFAULT_SCRIPT, plan)
        assert result.crash is None  # a drop is silent, not a crash
        assert result.plan.fired
        with pytest.raises(CrashCheckFailure, match="diverges"):
            check_run(result)

    @pytest.mark.no_lvm_san
    def test_dropped_begin_marker_is_self_detected(self):
        """Losing a transaction's control-word marker record is caught
        by RLVM itself at commit: records without a begin marker."""
        from repro.errors import TransactionError

        plan = FaultPlan.at_fifo_push(nth=1, mode="drop")
        with pytest.raises(TransactionError, match="begin marker"):
            run_script(RLVM, DEFAULT_SCRIPT, plan)
