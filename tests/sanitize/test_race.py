"""Log-race sanitizer tests: vector clocks, detector, machine wiring.

The acceptance bar (ISSUE 5): the sanitizer flags a seeded
unsynchronized cross-CPU same-page write, reports none on the canned
workloads, and a sanitized-off run is cycle- and log-record-identical
to seed.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.core.context import boot, set_current_machine, use_machine
from repro.core.log_segment import LogSegment
from repro.core.process import Process
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.hw.params import PAGE_SIZE, MachineConfig
from repro.sanitize import race
from repro.sanitize.race import LogRaceDetector, RaceReport
from repro.sanitize.vclock import VectorClock

#: Golden cycle/record counts for the canned workloads, captured with
#: no detector installed before the race hooks existed.  The wiring
#: must not move them by a single cycle.
COPY_GOLDEN = {"cycles": 830787, "records_logged": 16384}
TIMEWARP_GOLDEN = {"cycles": 71595, "records": 1070}


@contextmanager
def fresh_detector(**kwargs):
    """Install a private detector, shelving any ambient --lvm-san one."""
    previous = race.active()
    race.uninstall()
    detector = LogRaceDetector(**kwargs)
    race.install(detector)
    try:
        yield detector
    finally:
        race.uninstall()
        if previous is not None:
            race.install(previous)


class TestVectorClock:
    def test_tick_and_get(self):
        clock = VectorClock()
        assert clock.get(0) == 0
        assert clock.tick(0) == 1
        assert clock.tick(0) == 2
        assert clock.get(0) == 2
        assert clock.get(7) == 0

    def test_covers(self):
        clock = VectorClock({1: 3})
        assert clock.covers(1, 3)
        assert clock.covers(1, 2)
        assert not clock.covers(1, 4)
        assert not clock.covers(2, 1)
        assert clock.covers(2, 0)

    def test_join_is_componentwise_max(self):
        a = VectorClock({0: 2, 1: 5})
        b = VectorClock({1: 3, 2: 7})
        a.join(b)
        assert a == VectorClock({0: 2, 1: 5, 2: 7})

    def test_copy_is_independent(self):
        a = VectorClock({0: 1})
        b = a.copy()
        b.tick(0)
        assert a.get(0) == 1
        assert b.get(0) == 2

    def test_repr_sorted(self):
        assert repr(VectorClock({2: 1, 0: 3})) == "VectorClock({0: 3, 2: 1})"


class TestDetectorUnit:
    """Detector logic with synthetic events (no machine)."""

    def page(self, n):
        return n * PAGE_SIZE

    def test_same_cpu_never_races(self):
        det = LogRaceDetector()
        det.logged_run(0, self.page(1), 4, cycle=10)
        det.logged_run(0, self.page(1) + 8, 4, cycle=20)
        assert det.races_seen == 0

    def test_unsynchronized_cross_cpu_same_page_races(self):
        det = LogRaceDetector()
        det.logged_run(0, self.page(1), 4, cycle=10)
        det.logged_run(1, self.page(1) + 64, 4, cycle=12)
        assert det.races_seen == 1
        (report,) = det.reports
        assert isinstance(report, RaceReport)
        assert report.page == 1
        assert (report.prev_cpu, report.cpu) == (0, 1)
        assert "no happens-before edge" in str(report)

    def test_different_pages_do_not_race(self):
        det = LogRaceDetector()
        det.logged_run(0, self.page(1), 4, cycle=10)
        det.logged_run(1, self.page(2), 4, cycle=12)
        assert det.races_seen == 0

    def test_run_spanning_pages_checks_each(self):
        det = LogRaceDetector()
        det.logged_run(0, self.page(1), 4, cycle=10)
        det.logged_run(0, self.page(2), 4, cycle=11)
        # One run from cpu1 covering both pages -> two race pairs.
        det.logged_run(1, self.page(1), 2 * PAGE_SIZE, cycle=20)
        assert det.races_seen == 2
        assert {r.page for r in det.reports} == {1, 2}

    def test_message_edge_orders_writes(self):
        det = LogRaceDetector()
        det.logged_run(0, self.page(1), 4, cycle=10)
        det.msg_send(0, token=1234)
        det.msg_recv(1, token=1234)
        det.logged_run(1, self.page(1) + 32, 4, cycle=50)
        assert det.races_seen == 0

    def test_unmatched_receive_is_no_edge(self):
        det = LogRaceDetector()
        det.logged_run(0, self.page(1), 4, cycle=10)
        det.msg_recv(1, token=999)  # nothing was sent under this token
        det.logged_run(1, self.page(1) + 32, 4, cycle=50)
        assert det.races_seen == 1

    def test_global_sync_orders_writes(self):
        det = LogRaceDetector()
        det.logged_run(0, self.page(1), 4, cycle=10)
        det.global_sync()
        det.logged_run(1, self.page(1) + 32, 4, cycle=50)
        assert det.races_seen == 0

    def test_first_write_after_barrier_is_ordered(self):
        # Regression: a CPU whose first event comes after a global
        # barrier must inherit the barrier clock, not start empty.
        det = LogRaceDetector()
        det.logged_run(0, self.page(1), 4, cycle=10)
        det.global_sync()
        det.logged_run(5, self.page(1) + 16, 4, cycle=60)
        assert det.races_seen == 0

    def test_race_after_sync_still_detected(self):
        det = LogRaceDetector()
        det.logged_run(0, self.page(1), 4, cycle=10)
        det.global_sync()
        det.logged_run(0, self.page(1), 4, cycle=20)
        det.logged_run(1, self.page(1) + 8, 4, cycle=21)
        assert det.races_seen == 1

    def test_max_reports_caps_list_not_count(self):
        det = LogRaceDetector(max_reports=2)
        for i in range(5):
            det.logged_run(0, self.page(1), 4, cycle=10 + i)
            det.logged_run(1, self.page(1) + 8, 4, cycle=100 + i)
        assert len(det.reports) == 2
        assert det.races_seen > 2
        assert "more" in det.summary()

    def test_page_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            LogRaceDetector(page_size=3000)

    def test_install_is_exclusive(self):
        with fresh_detector():
            with pytest.raises(RuntimeError):
                race.install(LogRaceDetector())


@pytest.fixture
def smp_machine():
    machine = boot(MachineConfig(num_cpus=2, memory_bytes=32 * 1024 * 1024))
    yield machine
    set_current_machine(None)


def shared_logged_page(machine):
    """A logged region bound once, writable from both CPUs."""
    proc0 = machine.current_process
    seg = StdSegment(PAGE_SIZE, machine=machine)
    region = StdRegion(seg)
    log = LogSegment(machine=machine)
    region.log(log)
    va = region.bind(proc0.address_space())
    proc1 = Process(machine, cpu_index=1, address_space=proc0.address_space())
    return proc0, proc1, va, log


class TestMachineWiring:
    def test_seeded_cross_cpu_race_is_flagged(self, smp_machine):
        with use_machine(smp_machine):
            proc0, proc1, va, _ = shared_logged_page(smp_machine)
            with fresh_detector() as det:
                proc0.write(va, 0x1111)
                proc1.write(va + 8, 0x2222)
                smp_machine.quiesce()
        assert det.races_seen == 1
        (report,) = det.reports
        assert {report.prev_cpu, report.cpu} == {0, 1}

    def test_quiesce_between_writes_is_clean(self, smp_machine):
        with use_machine(smp_machine):
            proc0, proc1, va, _ = shared_logged_page(smp_machine)
            with fresh_detector() as det:
                proc0.write(va, 0x1111)
                smp_machine.quiesce()
                proc1.write(va + 8, 0x2222)
                smp_machine.quiesce()
        assert det.races_seen == 0

    def test_unlogged_writes_are_not_tracked(self, smp_machine):
        with use_machine(smp_machine):
            proc0 = smp_machine.current_process
            seg = StdSegment(PAGE_SIZE, machine=smp_machine)
            region = StdRegion(seg)  # never .log()ed
            va = region.bind(proc0.address_space())
            proc1 = Process(
                smp_machine, cpu_index=1, address_space=proc0.address_space()
            )
            with fresh_detector() as det:
                proc0.write(va, 0x1111)
                proc1.write(va + 8, 0x2222)
                smp_machine.quiesce()
        assert det.writes_checked == 0
        assert det.races_seen == 0

    def test_fused_bulk_path_reports_runs(self):
        from repro.obs.workloads import run_copy

        with fresh_detector() as det:
            run_copy()
        assert det.writes_checked > 0
        assert det.races_seen == 0


class TestCannedWorkloads:
    def test_copy_workload_is_race_free(self):
        from repro.obs.workloads import run_copy

        with fresh_detector() as det:
            summary = run_copy()
        assert det.races_seen == 0, det.summary()
        # Observing must not perturb the cycle domain.
        assert summary["cycles"] == COPY_GOLDEN["cycles"]
        assert summary["records_logged"] == COPY_GOLDEN["records_logged"]

    def test_timewarp_workload_is_race_free(self):
        from repro.obs.workloads import run_timewarp

        with fresh_detector() as det:
            summary = run_timewarp()
        assert det.races_seen == 0, det.summary()
        assert det.writes_checked > 0
        assert summary["cycles"] == TIMEWARP_GOLDEN["cycles"]
        machine = summary["machine"]
        assert (
            machine.logger.stats.records_logged == TIMEWARP_GOLDEN["records"]
        )


class TestCli:
    def test_race_cli_clean_on_canned_workloads(self, capsys):
        from repro.sanitize.cli import race_main

        # The CLI installs its own detector per workload; shelve any
        # ambient --lvm-san one for the duration of the call.
        previous = race.active()
        race.uninstall()
        try:
            assert race_main(["copy"]) == 0
        finally:
            if previous is not None:
                race.install(previous)
        out = capsys.readouterr().out
        assert "0 race(s)" in out
