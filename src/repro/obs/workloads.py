"""Canned workloads for ``python -m repro trace`` and the CI obs job.

Each workload boots its own small machine, runs a short deterministic
scenario exercising one subsystem, and returns a summary dict.  The
caller decides what observability (if any) is installed around the
call; the workloads themselves only *use* the machine.

The returned summary always contains ``machine`` (for snapshots and
cycle reconciliation) and, where a hardware log was produced, ``log``
(for reconciliation with :class:`repro.analytics.core.StatsFold`).
"""

from __future__ import annotations

from repro.core.context import boot, set_current_machine, use_machine
from repro.core.log_segment import LogSegment
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.hw.params import MachineConfig

#: Size of the logged copy workload.
COPY_BYTES = 64 * 1024

#: Transactions run by the rvm/rlvm workloads.
TXN_COUNT = 8


def _boot(**overrides) -> object:
    defaults = dict(memory_bytes=64 * 1024 * 1024)
    defaults.update(overrides)
    return boot(MachineConfig(**defaults))


def run_copy() -> dict:
    """A 64 KiB block write into a logged region, then quiesce."""
    machine = _boot()
    with use_machine(machine):
        proc = machine.current_process
        seg = StdSegment(COPY_BYTES, machine=machine)
        region = StdRegion(seg)
        log = LogSegment(size=4 * 1024 * 1024, machine=machine)
        region.log(log)
        va = region.bind(proc.address_space())
        pattern = bytes(range(256)) * (COPY_BYTES // 256)
        proc.write_block(va, pattern)
        machine.quiesce()
    return {
        "workload": "copy",
        "machine": machine,
        "log": log,
        "bytes_written": COPY_BYTES,
        "records_logged": machine.logger.stats.records_logged,
        "cycles": machine.time(),
    }


def _run_txn_library(kind: str) -> dict:
    from repro.rvm.rlvm import RLVM
    from repro.rvm.rvm import RVM

    machine = _boot()
    with use_machine(machine):
        proc = machine.current_process
        lib = (RVM if kind == "rvm" else RLVM)(proc)
        base = lib.map("bank", 16 * 1024)
        for i in range(TXN_COUNT):
            txn = lib.begin()
            va = base + 64 * i
            if kind == "rvm":
                txn.set_range(va, 16)
            txn.write(va, 0xBEEF0000 + i)
            txn.write(va + 4, i)
            if i % 4 == 3:
                txn.abort()
            else:
                txn.commit(flush=(i % 2 == 0))
        lib.flush()
        lib.truncate()
        machine.quiesce()
    return {
        "workload": kind,
        "machine": machine,
        "log": None,
        "committed": lib.committed_count,
        "aborted": lib.aborted_count,
        "wal_appends": lib.wal.appends,
        "cycles": machine.time(),
    }


def run_rvm() -> dict:
    """Coda-style RVM transactions: set_range/commit/abort + truncate."""
    return _run_txn_library("rvm")


def run_rlvm() -> dict:
    """RLVM transactions over logged segments + truncate."""
    return _run_txn_library("rlvm")


def run_timewarp() -> dict:
    """A short optimistic simulation (synthetic model, LVM saver)."""
    from repro.timewarp.kernel import TimeWarpSimulation
    from repro.timewarp.workloads import SyntheticModel

    machine = _boot(num_cpus=2)
    model = SyntheticModel(c=400, s=256, w=8, num_objects=8)
    sim = TimeWarpSimulation(
        model, end_time=60, saver="lvm", n_schedulers=2, machine=machine
    )
    result = sim.run()
    return {
        "workload": "timewarp",
        "machine": machine,
        "log": None,
        "events_processed": result.events_processed,
        "events_rolled_back": result.events_rolled_back,
        "rollbacks": result.rollbacks,
        "gvt": result.gvt,
        "cycles": machine.time(),
    }


WORKLOADS = {
    "copy": run_copy,
    "rvm": run_rvm,
    "rlvm": run_rlvm,
    "timewarp": run_timewarp,
}


def run_workload(name: str) -> dict:
    """Run a canned workload by name; always detaches the machine."""
    try:
        fn = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r} (choose from {sorted(WORKLOADS)})"
        ) from None
    try:
        return fn()
    finally:
        set_current_machine(None)
