"""Fault injection meets Time Warp: crash in the middle of a rollback's
state restoration, then prove the harness did not poison determinism —
a fresh run of the identical configuration still matches the sequential
reference exactly.
"""

import pytest

from repro.core.context import boot, set_current_machine
from repro.faults import CrashPoint, FaultPlan, installed
from repro.hw.params import MachineConfig
from repro.timewarp import PholdModel, SequentialSimulation, TimeWarpSimulation
from repro.timewarp.state_saving import LVMStateSaver

MODEL_ARGS = dict(num_objects=6, population=6, max_delay=5, seed=42)
END_TIME = 60
#: High message latency forces deep optimism and therefore rollbacks.
LATENCY = 1500
CONFIG = MachineConfig(num_cpus=2, memory_bytes=128 * 1024 * 1024)


def _run_with_plan(saver, plan):
    machine = boot(CONFIG)
    try:
        sim = TimeWarpSimulation(
            PholdModel(**MODEL_ARGS),
            end_time=END_TIME,
            saver=saver,
            n_schedulers=2,
            machine=machine,
            latency_cycles=LATENCY,
        )
        if plan is None:
            return sim, sim.run()
        with installed(plan):
            return sim, sim.run()
    finally:
        set_current_machine(None)


@pytest.mark.parametrize("saver", ["copy", "lvm", "lvm-snap"])
def test_crash_during_rollback_restore_then_clean_rerun(saver):
    # Count pass: how many per-object restore steps does this
    # configuration perform?  The latency is chosen to guarantee some.
    counting = FaultPlan()
    _run_with_plan(saver, counting)
    restores = counting.counts["timewarp.rollback.restore"]
    assert restores > 0, "configuration never rolled back; raise LATENCY"

    # Crash pass: power fails mid-restore, half-way through the run's
    # rollback work.  The CrashPoint must surface out of sim.run().
    crash = FaultPlan.at_site("timewarp.rollback.restore", nth=(restores + 1) // 2)
    with pytest.raises(CrashPoint) as exc:
        _run_with_plan(saver, crash)
    assert exc.value.site == "timewarp.rollback.restore"

    # Clean re-run on a fresh machine: the injected crash left nothing
    # behind that could skew the optimistic execution — it still equals
    # the sequential reference event-for-event and state-for-state.
    seq = SequentialSimulation(PholdModel(**MODEL_ARGS), END_TIME).run()
    _, res = _run_with_plan(saver, None)
    assert res.events_committed == seq.events_processed
    assert res.final_state == seq.final_state


def test_snapshot_rollforward_hits_restore_site_per_record(monkeypatch):
    # The snapshot saver falls back to the plain saver's rollback when no
    # snapshot is usable; the restore hits outside those calls come from
    # the snapshot roll-forward, which must also hit once per record.
    plan = FaultPlan()
    plain_hits = []
    plain = LVMStateSaver.rollback

    def counting(self, vt):
        before = plan.counts["timewarp.rollback.restore"]
        plain(self, vt)
        plain_hits.append(plan.counts["timewarp.rollback.restore"] - before)

    monkeypatch.setattr(LVMStateSaver, "rollback", counting)
    sim, _ = _run_with_plan("lvm-snap", plan)
    replayed = sum(sched.saver.rollforward_records for sched in sim.schedulers)
    assert plan.counts["timewarp.rollback.restore"] == replayed
    assert replayed > sum(plain_hits) > 0
