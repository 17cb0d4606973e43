"""The exhaustive crash sweep over the durability stack.

Acceptance shape: the count-the-sites pass enumerates every injection
point the workload reaches, then one run per ``(site, nth, mode)``
crashes there and the recovered state must satisfy the ACID model.  The
fixed-seed sweeps pin coverage exactly (the spec totals per library
and commit mode, and RLVM's per-site hit counts), so a site that stops
reaching the plan fails here; the hypothesis sweep randomizes the
workload script itself.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import BACKENDS, make_backend
from repro.faults.plan import FaultPlan
from repro.faults.sweep import DEFAULT_SCRIPT, SWEEP_DEVICE_BYTES, run_script, sweep
from repro.rvm.rlvm import RLVM
from repro.rvm.rvm import RVM

#: Crash specs the count pass enumerates on DEFAULT_SCRIPT, per
#: (library, group commit); the same on every log device.
SPEC_TOTALS = {
    (RVM, False): 81,
    (RLVM, False): 119,
    (RVM, True): 72,
    (RLVM, True): 110,
}

#: RLVM's count pass on DEFAULT_SCRIPT over the default RAM disk: how
#: often each injection site is hit.
RLVM_SITE_COUNTS = {
    "backend.barrier": 2,
    "backend.flush": 8,
    "fifo.push": 19,
    "logger.dma": 19,
    "ramdisk.write": 9,
    "rvm.abort": 1,
    "rvm.commit.begin": 5,
    "rvm.commit.buffered": 2,
    "rvm.commit.durable": 3,
    "rvm.commit.log": 3,
    "rvm.flush": 1,
    "rvm.truncate.applied": 2,
    "rvm.truncate.apply": 9,
    "rvm.truncate.begin": 2,
    "wal.append": 3,
    "wal.append_group": 4,
    "wal.reset": 2,
}


class TestFixedSeedSweep:
    @pytest.mark.parametrize(
        "backend_cls, min_families",
        [
            (RVM, {"ramdisk", "wal", "rvm"}),
            (RLVM, {"ramdisk", "wal", "rvm", "fifo", "logger"}),
        ],
        ids=["rvm", "rlvm"],
    )
    def test_every_reachable_crash_point_is_acid_clean(
        self, backend_cls, min_families
    ):
        report = sweep(backend_cls, seed=1995)
        assert not report.failures, report.failures
        assert not report.not_fired, report.not_fired
        assert report.families >= min_families
        # >= 30 distinct injection points (site, nth), not just modes.
        assert len({(s.site, s.nth) for s in report.fired}) >= 30
        assert len(report.specs) == len(report.fired) == SPEC_TOTALS[backend_cls, False]

    def test_count_pass_hits_every_site_exactly(self):
        plan = FaultPlan(seed=1995)
        result = run_script(RLVM, DEFAULT_SCRIPT, plan)
        assert result.crash is None
        assert dict(plan.counts) == RLVM_SITE_COUNTS
        assert plan.torn_capable == {"wal.append", "wal.append_group"}

    @pytest.mark.parametrize("device", sorted(BACKENDS))
    def test_backend_matrix_every_device_is_acid_clean(self, device):
        """Satellite matrix: each log device, synchronous and
        group-committed, under both libraries — every reachable crash
        point recovers clean, and the per-device total clears the
        acceptance floor of 180 crash points, and each run enumerates
        exactly its pinned spec total."""
        fired_points = 0
        for backend_cls in (RVM, RLVM):
            for group_commit in (False, True):
                label = device + ("+group" if group_commit else "")
                report = sweep(
                    backend_cls,
                    seed=1995,
                    device_factory=lambda d=device, g=group_commit: make_backend(
                        d, SWEEP_DEVICE_BYTES, group_commit=g
                    ),
                    device_label=label,
                )
                assert not report.failures, (label, report.failures)
                assert not report.not_fired, (label, report.not_fired)
                # The explicit flush/barrier calls put the backend
                # family on every sweep path.
                assert "backend" in report.families
                assert len(report.specs) == SPEC_TOTALS[backend_cls, group_commit]
                fired_points += len(report.fired)
        assert fired_points >= 180
        assert fired_points == sum(SPEC_TOTALS.values())

    def test_sweep_with_write_reordering(self):
        """A two-deep unflushed device window: recovery stays atomic
        even when the crash loses recent writes out of order."""
        for backend_cls in (RVM, RLVM):
            report = sweep(backend_cls, seed=7, reorder_window=2)
            assert not report.failures, report.failures
            assert not report.not_fired


# Script ops over a 4 KiB segment: word indices stay in range, values
# are arbitrary 32-bit patterns.
_writes = st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, 2**32 - 1)),
    min_size=1,
    max_size=3,
).map(tuple)
_txn = st.tuples(
    st.just("txn"), st.sampled_from(["commit", "abort", "noflush"]), _writes
)
_op = st.one_of(_txn, st.just(("flush",)), st.just(("truncate",)))
_script = st.lists(_op, min_size=1, max_size=5).map(tuple)


class TestRandomizedSweep:
    @settings(max_examples=6, deadline=None)
    @given(
        script=_script,
        backend=st.sampled_from(["rvm", "rlvm"]),
        seed=st.integers(0, 2**16),
    )
    def test_property_random_scripts_sweep_clean(self, script, backend, seed):
        backend_cls = {"rvm": RVM, "rlvm": RLVM}[backend]
        report = sweep(backend_cls, script=script, seed=seed)
        assert not report.failures, report.failures
        # The count pass is exact: every enumerated spec must fire.
        assert not report.not_fired, report.not_fired
