"""Golden cycles for the snapshot roll-forward and charged CULT.

``tests/test_probe_exactness.py`` pins the plain LVM saver only.  These
rows pin the two other log-reading loops of
:mod:`repro.timewarp.state_saving`: the roll-forward from a snapshot
(``CheckpointedLVMSaver`` / ``AdaptiveLVMSaver``) and CULT charged to
the scheduler's CPU (``charge_cult=True``).  A short two-scheduler
``PhasedModel`` run with rollback storms drives both.

A change to how those loops read the log or charge cycles must leave
every value here unchanged; a deliberate timing-model change
regenerates the table and says so in CHANGES.md.
"""

import hashlib

import pytest

from repro.core.context import boot, set_current_machine
from repro.faults import FaultPlan, installed
from repro.hw.params import MachineConfig
from repro.timewarp import TimeWarpSimulation
from repro.timewarp.state_saving import (
    AdaptiveLVMSaver,
    CheckpointedLVMSaver,
    LVMStateSaver,
)
from repro.timewarp.workloads import PhasedModel

END_TIME = 240
GVT_INTERVAL = 64

SAVERS = {
    "lvm-snap": lambda charge: CheckpointedLVMSaver(interval=8, charge_cult=charge),
    "lvm-adaptive": lambda charge: AdaptiveLVMSaver(charge_cult=charge),
}

#: saver -> (elapsed_cycles, rollforward_records, snapshot_count,
#: sha256 prefix of the final state), with charged CULT.
GOLDEN = {
    "lvm-snap": (2392326, 1746, 108, "6518f757e701fa83"),
    "lvm-adaptive": (671557, 3904, 6, "6518f757e701fa83"),
}


def _run(saver, charge=True, plan=None):
    machine = boot(MachineConfig(num_cpus=2, memory_bytes=64 * 1024 * 1024))
    try:
        sim = TimeWarpSimulation(
            PhasedModel(period=80, storm_len=7, seed=3),
            end_time=END_TIME,
            n_schedulers=2,
            machine=machine,
            gvt_interval=GVT_INTERVAL,
            saver_factory=lambda: SAVERS[saver](charge),
        )
        if plan is None:
            result = sim.run()
        else:
            with installed(plan):
                result = sim.run()
        savers = [sched.saver for sched in sim.schedulers]
        digest = hashlib.sha256()
        for obj in sorted(result.final_state):
            digest.update(obj.to_bytes(4, "little"))
            digest.update(result.final_state[obj])
        return result, savers, (
            result.elapsed_cycles,
            sum(s.rollforward_records for s in savers),
            sum(s.snapshot_count for s in savers),
            digest.hexdigest()[:16],
        )
    finally:
        set_current_machine(None)


@pytest.mark.parametrize("saver", sorted(GOLDEN))
def test_snapshot_rollforward_and_charged_cult_pinned(saver, monkeypatch):
    plain_rollbacks = []
    plain = LVMStateSaver.rollback

    def counting(self, vt):
        plain_rollbacks.append(vt)
        plain(self, vt)

    monkeypatch.setattr(LVMStateSaver, "rollback", counting)
    result, savers, pinned = _run(saver)
    assert pinned == GOLDEN[saver]

    # The pin covers the snapshot roll-forward: some rollbacks restored
    # a snapshot instead of taking the plain reset + full replay path.
    assert sum(s.rollback_count for s in savers) > len(plain_rollbacks)
    # ... and charged CULT: it advanced and truncated every log, and its
    # per-record charge shows in the elapsed cycles.
    assert all(s.checkpoint_time > 0 and s.log.start_offset > 0 for s in savers)
    _, _, uncharged = _run(saver, charge=False)
    assert uncharged[0] < pinned[0]
    assert uncharged[3] == pinned[3]


@pytest.mark.parametrize("saver", sorted(GOLDEN))
def test_fault_plan_path_is_cycle_identical(saver):
    # With a plan installed the roll-forward hits the restore site once
    # per applied record; that per-record path must cost exactly the
    # cycles of the bare run.
    plan = FaultPlan()
    _, _, pinned = _run(saver, plan=plan)
    assert pinned == GOLDEN[saver]
    assert plan.counts["timewarp.rollback.restore"] == pinned[1]
