"""Pins on log truncation and the committed-writes filter.

* A run with a non-crashing fault plan installed is cycle- and
  byte-identical to the bare run, and hits ``rvm.truncate.apply`` once
  per applied entry — the per-entry charge and the batched charge must
  agree.
* ``committed_writes()`` equals a reference two-pass filter over the
  appended operations, for any interleaving of BEGIN / WRITE / COMMIT /
  ABORT, including a tail whose transactions never commit.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import TEST_CONFIG
from repro.backends import make_backend
from repro.backends.ramdisk import RamDisk
from repro.core.context import boot, set_current_machine
from repro.faults import FaultPlan, installed
from repro.rvm.rlvm import RLVM
from repro.rvm.rvm import RVM
from repro.rvm.tpca import TPCABenchmark, TPCAConfig
from repro.rvm.wal import EntryKind, WriteAheadLog

SMALL = TPCAConfig(n_branches=2, tellers_per_branch=3, accounts_per_branch=50)
TRANSACTIONS = 100
TRUNCATE_EVERY = 16

#: (library, device, group size; 0 = synchronous commit)
CONFIGS = (("rvm", "ram", 0), ("rlvm", "ram", 0), ("rvm", "disk", 8))


def _run(library: str, device: str, group: int) -> dict:
    """TPC-A with periodic truncation; the final state and the entry
    count every truncation applied."""
    machine = boot(TEST_CONFIG)
    try:
        proc = machine.current_process
        disk = make_backend(device, 1 << 20, group_commit=bool(group))
        lib = (RVM if library == "rvm" else RLVM)(proc, disk=disk)
        bench = TPCABenchmark(lib, SMALL)
        known = {r.seg_id for r in lib.segments.values()}
        applied = 0
        for i in range(1, TRANSACTIONS + 1):
            bench.run_transaction(flush=not group)
            if group and i % group == 0:
                lib.flush()
            if i % TRUNCATE_EVERY == 0:
                lib.flush()
                applied += sum(1 for e in lib.wal.committed_writes() if e.seg_id in known)
                lib.truncate()
        lib.flush()
        machine.quiesce()
        return {
            "cycles": machine.time(),
            "disk": disk.durable_bytes(),
            "images": {r.name: bytes(r.disk_image) for r in lib.segments.values()},
            "tail": lib.wal.tail,
            "applied": applied,
        }
    finally:
        set_current_machine(None)


@pytest.mark.parametrize("library,device,group", CONFIGS)
class TestTruncationUnderFaultPlan:
    def test_fault_plan_run_is_identical_to_bare(self, library, device, group):
        bare = _run(library, device, group)
        with installed(FaultPlan()) as plan:
            planned = _run(library, device, group)
        assert not plan.fired
        assert planned == bare
        assert bare["applied"] > 0

    def test_apply_site_hit_once_per_applied_entry(self, library, device, group):
        with installed(FaultPlan()) as plan:
            result = _run(library, device, group)
        assert plan.counts["rvm.truncate.apply"] == result["applied"]


_TIDS = st.integers(1, 6)
_OPS = st.one_of(
    st.tuples(st.just(EntryKind.BEGIN), _TIDS),
    st.tuples(
        st.just(EntryKind.WRITE),
        _TIDS,
        st.integers(0, 3),
        st.integers(0, 4000),
        st.binary(min_size=1, max_size=24),
    ),
    st.tuples(st.just(EntryKind.COMMIT), _TIDS),
    st.tuples(st.just(EntryKind.ABORT), _TIDS),
)
#: writes of a transaction that never commits, left at the log's end
_TAIL = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 4000), st.binary(min_size=1, max_size=24)),
    max_size=4,
)
_UNCOMMITTED_TID = 99


class TestCommittedWritesFilter:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(_OPS, max_size=40), tail=_TAIL)
    def test_matches_reference_two_pass_filter(self, ops, tail):
        machine = boot(TEST_CONFIG)
        try:
            cpu = machine.cpu(0)
            wal = WriteAheadLog(RamDisk(1 << 18))
            for op in ops:
                kind, tid = op[0], op[1]
                if kind is EntryKind.WRITE:
                    wal.append_write(cpu, tid, *op[2:])
                elif kind is EntryKind.BEGIN:
                    wal.append_begin(cpu, tid)
                elif kind is EntryKind.COMMIT:
                    wal.append_commit(cpu, tid)
                else:
                    wal.append_abort(cpu, tid)
            for seg_id, offset, data in tail:
                wal.append_write(cpu, _UNCOMMITTED_TID, seg_id, offset, data)

            committed = {op[1] for op in ops if op[0] is EntryKind.COMMIT}
            expected = [
                (op[1], op[2], op[3], op[4])
                for op in ops
                if op[0] is EntryKind.WRITE and op[1] in committed
            ]
            got = [(e.tid, e.seg_id, e.offset, e.data) for e in wal.committed_writes()]
            assert got == expected
            assert set(wal.committed_tids()) == committed
        finally:
            set_current_machine(None)
