"""Unit tests: copy-based and LVM state savers in isolation."""

from contextlib import nullcontext
from functools import partial

import pytest

from conftest import TEST_CONFIG, TEST_CONFIG_ONCHIP
from repro.errors import LoggingError, RollbackError
from repro.core.context import boot, set_current_machine, use_machine
from repro.core.log_segment import LogSegment
from repro.faults import FaultPlan, installed
from repro.timewarp import state_saving
from repro.timewarp.cult import CultPolicy
from repro.timewarp.kernel import TimeWarpSimulation
from repro.timewarp.state_saving import (
    CopyStateSaver,
    LVMStateSaver,
)
from repro.timewarp.workloads import SyntheticModel


def make_scheduler(machine, saver, num_objects=4, s=64):
    """A single-scheduler simulation for driving the saver directly."""
    model = SyntheticModel(c=10, s=s, w=2, num_objects=num_objects, seed=1)
    sim = TimeWarpSimulation(
        model, end_time=10**9, saver=None, n_schedulers=1,
        machine=machine, saver_factory=lambda: saver,
    )
    return sim.schedulers[0]


def write_obj(sched, local, offset, value, vt):
    """Emulate an event write at virtual time vt."""
    sched.lvt = vt
    sched.saver.on_lvt_change(vt)
    sched.saver.before_event(vt, local)
    sched.proc.write(sched.saver.object_va(local) + offset, value)


class TestLvmStateSaver:
    def test_rollback_restores_checkpoint(self, machine):
        with use_machine(machine):
            saver = LVMStateSaver()
            sched = make_scheduler(machine, saver)
            write_obj(sched, 0, 0, 111, vt=5)
            write_obj(sched, 1, 4, 222, vt=7)
            saver.rollback(5)
            assert saver.working.read(saver.object_offset(0), 4) == 0
            assert saver.working.read(saver.object_offset(1) + 4, 4) == 0

    def test_rollback_replays_prefix(self, machine):
        with use_machine(machine):
            saver = LVMStateSaver()
            sched = make_scheduler(machine, saver)
            write_obj(sched, 0, 0, 111, vt=5)
            write_obj(sched, 0, 4, 222, vt=8)
            saver.rollback(8)  # undo vt>=8, keep vt=5
            assert saver.working.read(saver.object_offset(0), 4) == 111
            assert saver.working.read(saver.object_offset(0) + 4, 4) == 0

    def test_rollback_rewinds_log(self, machine):
        with use_machine(machine):
            saver = LVMStateSaver()
            sched = make_scheduler(machine, saver)
            write_obj(sched, 0, 0, 1, vt=5)
            write_obj(sched, 0, 0, 2, vt=8)
            machine.quiesce()
            before = saver.log.append_offset
            saver.rollback(8)
            assert saver.log.append_offset < before
            # New writes continue from the rewound point.
            write_obj(sched, 0, 0, 3, vt=8)
            machine.quiesce()
            values = [r.value for r in saver.log.records()]
            assert values == [5, 1, 8, 3]  # marker, data, marker, data

    def test_rollback_before_checkpoint_rejected(self, machine):
        with use_machine(machine):
            saver = LVMStateSaver()
            sched = make_scheduler(machine, saver)
            write_obj(sched, 0, 0, 1, vt=5)
            saver.advance_checkpoint(6)
            with pytest.raises(RollbackError):
                saver.rollback(3)

    def test_cult_applies_and_truncates(self, machine):
        with use_machine(machine):
            saver = LVMStateSaver()
            sched = make_scheduler(machine, saver)
            write_obj(sched, 0, 0, 10, vt=5)
            write_obj(sched, 0, 4, 20, vt=9)
            saver.advance_checkpoint(7)
            # Checkpoint now holds the vt-5 write but not the vt-9 one.
            assert saver.checkpoint.read(saver.object_offset(0), 4) == 10
            assert saver.checkpoint.read(saver.object_offset(0) + 4, 4) == 0
            assert saver.checkpoint_time == 7
            # The log retains only records at vt >= 7.
            values = [r.value for r in saver.log.records()]
            assert values == [9, 20]

    def test_rollback_after_cult(self, machine):
        with use_machine(machine):
            saver = LVMStateSaver()
            sched = make_scheduler(machine, saver)
            write_obj(sched, 0, 0, 10, vt=5)
            saver.advance_checkpoint(6)
            write_obj(sched, 0, 0, 99, vt=8)
            saver.rollback(7)
            assert saver.working.read(saver.object_offset(0), 4) == 10

    def test_cult_policy_defers_when_bottleneck(self, machine):
        with use_machine(machine):
            policy = CultPolicy(lead_margin=100, log_budget_bytes=1 << 30)
            saver = LVMStateSaver(cult_policy=policy)
            sched = make_scheduler(machine, saver)
            write_obj(sched, 0, 0, 10, vt=5)
            sched.lvt = 6  # barely ahead of GVT: the bottleneck
            saver.advance_checkpoint(6)
            assert saver.checkpoint_time == 0  # deferred

    def test_cult_policy_forced_by_log_budget(self, machine):
        with use_machine(machine):
            policy = CultPolicy(lead_margin=100, log_budget_bytes=16)
            saver = LVMStateSaver(cult_policy=policy)
            sched = make_scheduler(machine, saver)
            write_obj(sched, 0, 0, 10, vt=5)
            machine.quiesce()
            sched.lvt = 6
            saver.advance_checkpoint(6)  # log over budget: must run
            assert saver.checkpoint_time == 6

    def test_no_copies_ever_made(self, machine):
        with use_machine(machine):
            saver = LVMStateSaver()
            sched = make_scheduler(machine, saver)
            for vt in range(5, 50):
                write_obj(sched, 0, 0, vt, vt=vt)
            assert saver.state_bytes_saved == 0


class TestBatchedRollForward:
    """The batched roll-forward against the per-record path that runs
    while a fault plan is attached: the same cut, records applied,
    bytes, dirty lines and cycles, wherever the cut marker falls."""

    LOGGERS = {
        "prototype": (TEST_CONFIG, False),
        "on-chip": (TEST_CONFIG_ONCHIP, False),
        "on-chip-extended": (TEST_CONFIG_ONCHIP, True),
    }

    @staticmethod
    def _rollback(config, extended, records_before_cut, plan, monkeypatch):
        if extended:
            monkeypatch.setattr(state_saving, "LogSegment", partial(LogSegment, extended_records=True))
        machine = boot(config)
        try:
            saver = LVMStateSaver()
            sched = make_scheduler(machine, saver)
            # The vt-5 marker and data write, then more vt-5 writes to
            # repeated words until the vt-8 marker is record
            # ``records_before_cut``, then vt-8 writes to undo, some of
            # them in lines that vt-5 writes too.
            write_obj(sched, 0, 0, 1, vt=5)
            for i in range(records_before_cut - 2):
                write_obj(sched, i % 3, 4 * (i % 7), 1000 + i, vt=5)
            for i in range(20):
                write_obj(sched, 1, 28 + 4 * (i % 5), 5000 + i, vt=8)
            checkpoint = saver.checkpoint.snapshot()
            with installed(plan) if plan is not None else nullcontext():
                saver.rollback(8)
            assert saver.checkpoint.snapshot() == checkpoint
            return (
                saver.log.append_offset,
                saver.rollforward_records,
                sched.proc.now,
                saver.working.snapshot(),
                [(p.index, p.dc_dirty_mask) for p in saver.working.pages()],
            )
        finally:
            set_current_machine(None)

    @pytest.mark.parametrize("logger", sorted(LOGGERS))
    @pytest.mark.parametrize("where", ["first-in-span", "mid-span"])
    def test_matches_per_record_path(self, logger, where, monkeypatch):
        config, extended = self.LOGGERS[logger]
        stride = 24 if extended else 16
        per_page = 4096 // stride
        index = per_page if where == "first-in-span" else per_page // 2 + 3
        plan = FaultPlan()
        per_record = self._rollback(config, extended, index, plan, monkeypatch)
        batched = self._rollback(config, extended, index, None, monkeypatch)
        assert batched == per_record
        assert plan.counts["timewarp.rollback.restore"] == index - 1
        # The cut is the vt-8 marker: the first record of the second log
        # page, or a record in the middle of the first.
        assert batched[0] == (4096 if where == "first-in-span" else index * stride)
        assert batched[1] == index - 1

    @pytest.mark.parametrize("detail", [False, True], ids=["batched", "per-record"])
    def test_untranslatable_record_raises_only_before_the_cut(self, machine, detail):
        with use_machine(machine):
            saver = LVMStateSaver()
            sched = make_scheduler(machine, saver, num_objects=80)
            far = 70  # this object's slot is on the working segment's page 1
            assert saver.object_offset(far) >= 4096
            write_obj(sched, 0, 0, 1, vt=5)
            write_obj(sched, far, 0, 2, vt=8)
            machine.quiesce()
            # Page 1 moves to a fresh frame: the vt-8 record no longer
            # translates, and it lies after the vt-8 marker.
            saver.working.page(1).frame = machine.memory.allocate_frame()
            with installed(FaultPlan()) if detail else nullcontext():
                saver.rollback(8)
                assert saver.working.read(saver.object_offset(0), 4) == 1
                write_obj(sched, far, 0, 3, vt=8)
                machine.quiesce()
                saver.working.page(1).frame = machine.memory.allocate_frame()
                with pytest.raises(LoggingError):
                    saver.rollback(9)


class TestCopyStateSaver:
    def test_rollback_restores_saved_copies(self, machine):
        with use_machine(machine):
            saver = CopyStateSaver()
            sched = make_scheduler(machine, saver)
            write_obj(sched, 0, 0, 111, vt=5)
            write_obj(sched, 0, 0, 222, vt=8)
            saver.rollback(8)
            assert saver.working.read(saver.object_offset(0), 4) == 111

    def test_saves_object_bytes_per_event(self, machine):
        with use_machine(machine):
            saver = CopyStateSaver()
            sched = make_scheduler(machine, saver, s=64)
            write_obj(sched, 0, 0, 1, vt=5)
            write_obj(sched, 1, 0, 2, vt=6)
            assert saver.state_bytes_saved == 2 * saver.slot_size

    def test_save_cost_scales_with_object_size(self, machine):
        with use_machine(machine):
            small = CopyStateSaver()
            s_sched = make_scheduler(machine, small, s=32)
            t0 = s_sched.proc.now
            write_obj(s_sched, 0, 0, 1, vt=5)
            small_cost = s_sched.proc.now - t0
        with use_machine(machine):
            big = CopyStateSaver()
            b_sched = make_scheduler(machine, big, s=2048)
            t0 = b_sched.proc.now
            write_obj(b_sched, 0, 0, 1, vt=5)
            big_cost = b_sched.proc.now - t0
        assert big_cost > small_cost

    def test_fossil_collection_drops_old_copies(self, machine):
        with use_machine(machine):
            saver = CopyStateSaver()
            sched = make_scheduler(machine, saver)
            write_obj(sched, 0, 0, 1, vt=5)
            write_obj(sched, 0, 0, 2, vt=9)
            saver.advance_checkpoint(7)
            assert len(saver._saved) == 1
