"""Log-backend comparison: TPC-A across every device, sync vs group.

Not a paper figure — the paper pins its log to a RAM disk (section
4.2).  This benchmark swaps the log destination (``LOG_DEST``-style:
ram / rotating disk / dram_tmpfs / nvram_tmpfs) under the same TPC-A
workload and measures what durability costs on each medium, then adds
group commit and measures what batching buys back.

Three invariants are enforced, matching the crash tests:

* group commit must beat synchronous commit by >= 2x TPC-A throughput
  on the rotating disk (the backend it exists for);
* the final recovered state must be byte-identical across every
  backend and commit mode — backend choice changes *when*, never
  *what*;
* recovery really replays a write-ahead log: the run ends between two
  truncations with its last group flushed, so every config recovers
  committed transactions from the WAL, not only from the disk images.

Results land in ``BENCH_backends.json``.
"""

import hashlib
import pathlib

import pytest

from conftest import print_header, write_bench_json
from repro.backends import BACKENDS, make_backend
from repro.faults.checker import capture_snapshot, recover
from repro.rvm import RVM, TPCABenchmark

RESULT_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_backends.json"

DEVICE_BYTES = 8 * 1024 * 1024
GROUP_SIZE = 8

#: Same truncation interval in both modes — truncation flushes the log
#: regardless, so truncating every transaction would silently cap the
#: batch size at 1 and the comparison would measure nothing.
TRUNCATE_EVERY = 16

#: Five truncation intervals plus one whole group: the run stops
#: between truncations right after a group flush, so the WAL still
#: holds GROUP_SIZE committed transactions for recovery to replay.
TRANSACTIONS = 5 * TRUNCATE_EVERY + GROUP_SIZE


def _run_config(fresh_machine, device_name, grouped):
    machine = fresh_machine(memory_bytes=512 * 1024 * 1024)
    device = make_backend(device_name, DEVICE_BYTES, group_commit=grouped)
    bench = TPCABenchmark(RVM(machine.current_process, disk=device))
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


@pytest.mark.benchmark(group="backends")
def test_backends_tpca_sync_vs_group(benchmark, fresh_machine):
    def run():
        return [
            _run_config(fresh_machine, name, grouped)
            for name in sorted(BACKENDS)
            for grouped in (False, True)
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    by_key = {(r["device"], r["group_commit"]): r for r in rows}
    speedups = {
        name: by_key[(name, True)]["tps"] / by_key[(name, False)]["tps"]
        for name in sorted(BACKENDS)
    }

    print_header(
        "TPC-A throughput by log backend",
        "section 4.2 methodology; backends beyond the paper's RAM disk",
    )
    print(f"{'backend':<14}{'sync tps':>12}{'group tps':>12}{'speedup':>10}")
    for name in sorted(BACKENDS):
        print(
            f"{name:<14}{by_key[(name, False)]['tps']:>12.0f}"
            f"{by_key[(name, True)]['tps']:>12.0f}"
            f"{speedups[name]:>9.2f}x"
        )

    write_bench_json(
        RESULT_FILE,
        "backends",
        {
            "transactions": TRANSACTIONS,
            "group_size": GROUP_SIZE,
            "truncate_every": TRUNCATE_EVERY,
            "configs": rows,
            "group_speedup": speedups,
            "cycle_exact": True,
        },
    )

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
