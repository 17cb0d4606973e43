"""Claims of the simulator beyond the paper, pinned like the paper's.

Neither entry reproduces a table or figure; both are subsystems the
paper motivates (log-driven state-saving policy, log devices other than
its RAM disk).  They share the registry's machinery: simulated cycles
on fresh machines, a digest in ``PAPER_RESULTS.json`` and a generated
block under "Extensions (not in the paper)" in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import hashlib

from repro.backends import BACKENDS, make_backend
from repro.faults.checker import capture_snapshot, recover
from repro.paper.harness import MB, Entry, machine
from repro.rvm import RVM, TPCABenchmark
from repro.timewarp import TimeWarpSimulation
from repro.timewarp.state_saving import AdaptiveLVMSaver, CheckpointedLVMSaver
from repro.timewarp.workloads import PhasedModel

# ---------------------------------------------------------------------
# Adaptive versus fixed checkpoint intervals (analytics subsystem).

FIXED_INTERVALS = (2, 4, 8, 16, 32, 64, 128)
PHASED_END_TIME = 2000
PHASED_GVT_INTERVAL = 1024
#: the acceptance bar: adaptive over the best fixed interval
REQUIRED_SPEEDUP = 1.2
#: saver name -> factory, in table order
SAVERS = {
    **{f"fixed-{interval}": lambda interval=interval: CheckpointedLVMSaver(interval=interval)
       for interval in FIXED_INTERVALS},
    "adaptive": AdaptiveLVMSaver,
}


def _phased(saver_factory):
    sim = TimeWarpSimulation(
        PhasedModel(),
        end_time=PHASED_END_TIME,
        n_schedulers=2,
        machine=machine(num_cpus=2),
        gvt_interval=PHASED_GVT_INTERVAL,
        saver_factory=saver_factory,
    )
    result = sim.run()
    savers = [s.saver for s in sim.schedulers]
    state = hashlib.sha256()
    for obj in sorted(result.final_state):
        state.update(obj.to_bytes(8, "little"))
        state.update(result.final_state[obj])
    return {
        "events_committed": result.events_committed,
        "elapsed_cycles": result.elapsed_cycles,
        "events_per_mcycle": 1e6 * result.events_committed / result.elapsed_cycles,
        "snapshots": sum(getattr(s, "snapshot_count", 0) for s in savers),
        "rollbacks": sum(s.rollback_count for s in savers),
        "rollforward_records": sum(s.rollforward_records for s in savers),
        "final_state_sha256": state.hexdigest(),
    }


def adaptive_run():
    """Committed events per simulated Mcycle of the PhasedModel under
    each fixed snapshot interval and under the adaptive saver.  The
    workload alternates rollback storms with quiet compute phases, so
    no fixed interval suits the whole run; the adaptive saver retunes
    from the observed log stream and beats every one of them."""
    return {name: _phased(factory) for name, factory in SAVERS.items()}


def _best_fixed(s):
    fixed = {name: run for name, run in s.items() if name.startswith("fixed-")}
    return max(fixed, key=lambda name: fixed[name]["events_per_mcycle"])


def adaptive_check(s):
    # The saver must never change what the simulation computes.
    states = {name: run["final_state_sha256"] for name, run in s.items()}
    reference = states["adaptive"]
    for name, state in states.items():
        assert state == reference, f"{name} diverged from the adaptive run"

    adaptive = s["adaptive"]
    best_name = _best_fixed(s)
    best = s[best_name]
    speedup = adaptive["events_per_mcycle"] / best["events_per_mcycle"]
    assert adaptive["events_committed"] == best["events_committed"]
    assert speedup >= REQUIRED_SPEEDUP, (
        f"adaptive saver only {speedup:.3f}x the best fixed interval "
        f"({best_name}); the log-driven tuner regressed"
    )


def adaptive_table(s):
    best = s[_best_fixed(s)]["events_per_mcycle"]
    rows = [["saver", "events/Mcycle", "x best fixed", "cycles", "snapshots",
             "rollbacks", "records replayed"]]
    for name in SAVERS:
        run = s[name]
        rows.append([name, run["events_per_mcycle"], f"{run['events_per_mcycle'] / best:.3f}",
                     run["elapsed_cycles"], run["snapshots"], run["rollbacks"],
                     run["rollforward_records"]])
    return rows


# ---------------------------------------------------------------------
# TPC-A on every log device, synchronous vs group commit (backends).

DEVICE_BYTES = 8 * MB
GROUP_SIZE = 8
#: Same truncation interval in both modes — truncation flushes the log
#: regardless, so truncating every transaction would silently cap the
#: batch size at 1 and the comparison would measure nothing.
TRUNCATE_EVERY = 16
#: Five truncation intervals plus one whole group: the run stops
#: between truncations right after a group flush, so the WAL still
#: holds GROUP_SIZE committed transactions for recovery to replay.
TRANSACTIONS = 5 * TRUNCATE_EVERY + GROUP_SIZE


def _tpca(device_name, grouped):
    m = machine(memory_bytes=512 * MB)
    device = make_backend(device_name, DEVICE_BYTES, group_commit=grouped)
    bench = TPCABenchmark(RVM(m.current_process, disk=device))
    result = bench.run(
        TRANSACTIONS,
        truncate_every=TRUNCATE_EVERY,
        group_commit=GROUP_SIZE if grouped else 0,
    )
    recovered = recover(capture_snapshot(bench.backend))
    digest = hashlib.sha256()
    for name in sorted(recovered.images):
        digest.update(name.encode())
        digest.update(recovered.images[name])
    return {
        "device": device_name,
        "group_commit": grouped,
        "tps": result.tps,
        "cycles_per_txn": result.cycles_per_txn,
        "total_cycles": result.total_cycles,
        "recovered_sha256": digest.hexdigest(),
        "committed_txns": len(recovered.committed_tids),
    }


def backends_run():
    """TPC-A throughput with the log on each device (the paper's RAM
    disk, a rotating disk, DRAM and NVRAM tmpfs), synchronous and with
    group commit.  Backend choice changes *when* a transaction is
    durable, never *what* recovery rebuilds; batching is why anyone
    would log to the rotating disk."""
    return {"configs": [
        _tpca(name, grouped) for name in sorted(BACKENDS) for grouped in (False, True)
    ]}


def _speedups(by_key):
    return {
        name: by_key[(name, True)]["tps"] / by_key[(name, False)]["tps"]
        for name in sorted(BACKENDS)
    }


def backends_check(s):
    rows = s["configs"]
    by_key = {(r["device"], r["group_commit"]): r for r in rows}
    speedups = _speedups(by_key)
    # Backend choice never changes the recovered bytes.
    hashes = {r["recovered_sha256"] for r in rows}
    assert len(hashes) == 1, "recovered state diverged across backends"
    assert all(r["committed_txns"] == rows[0]["committed_txns"] for r in rows)
    # ... and that state came through WAL replay on every row.
    assert all(r["committed_txns"] > 0 for r in rows), (
        "the WAL was empty at the end of the run; recovery replayed nothing"
    )
    # Group commit is why you would ever log to the slow disk.
    assert speedups["disk"] >= 2.0, (
        f"group commit speedup on disk {speedups['disk']:.2f}x below 2x"
    )
    # The RAM disk stays the fastest synchronous device (the paper's
    # choice), and every device gains from batching.
    assert by_key[("ram", False)]["tps"] == max(
        by_key[(n, False)]["tps"] for n in BACKENDS
    )
    assert all(s > 1.0 for s in speedups.values())


def backends_table(s):
    by_key = {(r["device"], r["group_commit"]): r for r in s["configs"]}
    speedups = _speedups(by_key)
    return [["log device", "sync tps", "group tps", "speedup", "recovered txns"]] + [
        [name, by_key[(name, False)]["tps"], by_key[(name, True)]["tps"],
         f"{speedups[name]:.2f}x", by_key[(name, True)]["committed_txns"]]
        for name in sorted(BACKENDS)
    ]


ENTRIES = [
    Entry("adaptive_checkpointing", adaptive_run, adaptive_check, adaptive_table),
    Entry("log_backends", backends_run, backends_check, backends_table, digits=0),
]
