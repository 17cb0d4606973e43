"""The always-on flight recorder: ring semantics and crash capture.

The recorder is a bounded deque of cycle-stamped events; the tests pin
the ring arithmetic (capacity, eviction, ``seen``/``dropped``), the
LVM004 install gate, and the contract that matters: an injected
:class:`CrashPoint` carries the recorder tail, ending in the
``fault.crash`` event for the site that fired.
"""

import pytest

from repro import probe
from repro.errors import ConfigError
from repro.faults import plan as faultplan
from repro.faults.plan import CrashPoint, CrashSpec, FaultPlan
from repro.faults.sweep import DEFAULT_SCRIPT, run_script
from repro.obs import flight as obsflight
from repro.obs.flight import FlightRecorder
from repro.rvm.rlvm import RLVM


class TestRing:
    def test_records_in_order_oldest_first(self):
        fr = FlightRecorder(capacity=8)
        for i in range(5):
            fr.record(100 + i, "k", i)
        assert len(fr) == 5
        assert fr.seen == 5
        assert fr.dropped == 0
        assert fr.tail() == [(100 + i, "k", i, None) for i in range(5)]

    def test_ring_evicts_oldest_and_counts_drops(self):
        fr = FlightRecorder(capacity=4)
        for i in range(10):
            fr.record(i, "k", i)
        assert len(fr) == 4
        assert fr.seen == 10
        assert fr.dropped == 6
        assert [event[0] for event in fr.tail()] == [6, 7, 8, 9]

    def test_tail_limit_takes_newest(self):
        fr = FlightRecorder(capacity=8)
        for i in range(6):
            fr.record(i, "k")
        assert [event[0] for event in fr.tail(2)] == [4, 5]

    def test_clear_keeps_seen(self):
        fr = FlightRecorder(capacity=4)
        fr.record(1, "k")
        fr.clear()
        assert len(fr) == 0
        assert fr.seen == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError):
            FlightRecorder(capacity=0)


class TestGate:
    def test_install_uninstall(self):
        assert obsflight.active() is None
        with obsflight.installed() as fr:
            assert obsflight.active() is fr
            with pytest.raises(ConfigError):
                obsflight.install(FlightRecorder())
        assert obsflight.active() is None

    def test_tail_if_active(self):
        # The crash report carries the ring tail only while a recorder
        # is attached to the spine.
        assert obsflight.active() is None
        with obsflight.installed() as fr:
            fr.record(7, "k", "a", "b")
            assert probe._ACTIVE.crash_state()["flight"] == [(7, "k", "a", "b")]
        sp = probe._ACTIVE
        assert sp is None or "flight" not in sp.crash_state()


class TestCrashCapture:
    def test_crashpoint_carries_recorder_tail(self):
        plan = FaultPlan(seed=3, crash=CrashSpec("backend.flush", 2))
        with obsflight.installed() as fr:
            result = run_script(RLVM, DEFAULT_SCRIPT, plan)
        crash = result.crash
        assert isinstance(crash, CrashPoint)
        assert crash.flight is not None
        assert crash.flight == fr.tail()
        kinds = [event[1] for event in crash.flight]
        # The run logged WAL/device activity before dying...
        assert "wal.append" in kinds
        assert "device.write" in kinds
        # ...site hits are recorded while the plan is installed...
        assert "fault.hit" in kinds
        # ...and the terminal event is the crash itself, at the site.
        assert crash.flight[-1][1] == "fault.crash"
        assert crash.flight[-1][2] == "backend.flush"

    def test_crashpoint_flight_none_when_recorder_off(self):
        plan = FaultPlan(seed=3, crash=CrashSpec("backend.flush", 2))
        result = run_script(RLVM, DEFAULT_SCRIPT, plan)
        assert result.crash is not None
        assert result.crash.flight is None

    def test_fault_hits_recorded_only_under_a_plan(self):
        with obsflight.installed() as fr:
            # No plan installed: hit() is a no-op and records nothing.
            assert faultplan._ACTIVE is None
            faultplan.hit("backend.flush", cycle=1)
            assert len(fr) == 0
