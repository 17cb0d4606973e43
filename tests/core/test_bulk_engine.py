"""Cycle-exactness guard for the bulk-access engine.

Each workload runs twice, on two freshly booted, identically configured
machines: once through the word-at-a-time reference loop
(``write_bytes``/``read_bytes``) and once through the bulk engine
(``write_block``/``read_block``).  The complete observable state — memory
contents, log records, and every CPU / bus / logger cycle counter — must
be bit-identical.  The workloads are chosen to push records down every
side path: page faults, log-page boundary faults, PMT conflict misses,
FIFO overload and overflow, write-protection traps, deferred-copy
segments, special log modes, and the on-chip logger.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.baselines.bcopy import vm_copy
from repro.core import bulk
from repro.core.context import boot, set_current_machine
from repro.core.log_segment import LogSegment
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.errors import ProtectionError, SegmentError, UnmappedAddressError
from repro.hw.logger import Logger, LogMode
from repro.hw.params import NEXT_GENERATION, PAGE_SIZE, MachineConfig
from repro.obs import core as obscore
from repro.obs.core import Observability
from repro.sanitize import race

BASE = MachineConfig(memory_bytes=32 * 1024 * 1024)
ONCHIP = NEXT_GENERATION.with_changes(memory_bytes=32 * 1024 * 1024)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def machine_state(m, ctx):
    """Everything observable about a machine after a workload."""
    cpu = m.cpu(0)
    lg = m.logger
    state = {
        "cpu_now": cpu._now,
        "cpu_resume_at": cpu._resume_at,
        "cpu_stats": cpu.stats.snapshot(),
        "write_buffer": list(cpu._write_buffer),
        "l1": (cpu.l1.hits, cpu.l1.misses, dict(cpu.l1._tags)),
        "clock_now": m.clock.now,
        "bus": (m.bus.busy_until, m.bus.total_busy_cycles, m.bus.transaction_count),
        "logger_stats": lg.stats.snapshot(),
        "logger_service_free": lg._service_free,
        "fifo": (
            list(lg.write_fifo._entries),
            lg.write_fifo.high_water_mark,
            lg.write_fifo.overflow_count,
        ),
        "pmt": (lg.pmt.lookup_count, lg.pmt.miss_count, lg.pmt.eviction_count),
        "log_table": {
            idx: (entry.log_address, entry.valid)
            for idx, entry in lg.log_table._entries.items()
        },
        "absorbing": set(lg._absorbing),
        "kernel_stats": m.kernel.stats.snapshot(),
        "segments": [seg.snapshot() for seg in ctx.get("segments", ())],
        "logs": [
            (log.append_offset, log.records_appended, log.lost_records, log.snapshot())
            for log in ctx.get("logs", ())
        ],
    }
    if m.on_chip_logger is not None:
        oc = m.on_chip_logger
        state["onchip"] = (oc.records_logged, oc.records_dropped)
    return state


def run_pair(build, drive, config=BASE, order=(False, True)):
    """Run ``drive`` on two machines (slow vs bulk) and diff their state.

    ``build(machine)`` sets up regions/logs and returns a context dict
    (with optional "segments"/"logs" lists to snapshot);
    ``drive(machine, ctx, block_path)`` applies the workload through the
    reference loop when ``block_path`` is False and through the bulk
    engine when True, on the machines in ``order``.  Returns the
    (identical) final state.
    """
    states = {}
    outputs = {}
    for block_path in order:
        m = boot(config)
        try:
            ctx = build(m)
            outputs[block_path] = drive(m, ctx, block_path)
        finally:
            set_current_machine(None)
        states[block_path] = machine_state(m, ctx)
    slow, fast = states[False], states[True]
    for key in slow:
        assert fast[key] == slow[key], f"bulk path diverged in {key!r}"
    assert outputs[False] == outputs[True], "read data diverged"
    return slow


def store(m, va, data, block_path):
    aspace = m.current_process.address_space()
    cpu = m.cpu(0)
    if block_path:
        aspace.write_block(cpu, va, data)
    else:
        aspace.write_bytes(cpu, va, data)


def load(m, va, length, block_path):
    aspace = m.current_process.address_space()
    cpu = m.cpu(0)
    if block_path:
        return aspace.read_block(cpu, va, length)
    return aspace.read_bytes(cpu, va, length)


def build_region(size=4 * PAGE_SIZE, logged=True, mode=LogMode.NORMAL, **log_extra):
    def build(m):
        seg = StdSegment(size, machine=m)
        region = StdRegion(seg)
        ctx = {"region": region, "segments": [seg], "logs": []}
        if logged:
            log = LogSegment(machine=m, **log_extra)
            region.log(log, mode)
            ctx["logs"].append(log)
        ctx["va"] = region.bind(m.current_process.address_space())
        return ctx

    return build


# ----------------------------------------------------------------------
# Write exactness
# ----------------------------------------------------------------------
class TestWriteExactness:
    def test_sequential_logged(self):
        payload = random.Random(1).randbytes(2 * PAGE_SIZE + 123)

        def drive(m, ctx, bp):
            store(m, ctx["va"], payload, bp)

        state = run_pair(build_region(), drive)
        # Sanity: the workload really exercised the logger pipeline.
        assert state["logger_stats"]["records_logged"] > 0
        assert state["logger_stats"]["boundary_fault_count"] > 0

    def test_unaligned_offsets_and_tails(self):
        rng = random.Random(2)
        chunks = [
            (1, rng.randbytes(3)),
            (PAGE_SIZE - 3, rng.randbytes(7)),  # crosses a page boundary
            (2 * PAGE_SIZE + 2, rng.randbytes(2)),
            (5, rng.randbytes(257)),
            (PAGE_SIZE + 1, rng.randbytes(1)),
        ]

        def drive(m, ctx, bp):
            for off, data in chunks:
                store(m, ctx["va"] + off, data, bp)

        run_pair(build_region(), drive)

    def test_randomized_mixed_workload(self):
        rng = random.Random(3)
        size = 4 * PAGE_SIZE
        ops = []
        for _ in range(60):
            off = rng.randrange(size - 300)
            length = rng.randrange(1, 300)
            if rng.random() < 0.6:
                ops.append(("w", off, rng.randbytes(length)))
            else:
                ops.append(("r", off, length))

        def drive(m, ctx, bp):
            out = []
            for kind, off, arg in ops:
                if kind == "w":
                    store(m, ctx["va"] + off, arg, bp)
                else:
                    out.append(load(m, ctx["va"] + off, arg, bp))
            return out

        run_pair(build_region(), drive)

    def test_unlogged_region(self):
        payload = random.Random(4).randbytes(PAGE_SIZE + 77)

        def drive(m, ctx, bp):
            store(m, ctx["va"] + 3, payload, bp)
            return load(m, ctx["va"], PAGE_SIZE, bp)

        state = run_pair(build_region(logged=False), drive)
        assert state["logger_stats"]["records_logged"] == 0

    def test_indexed_log_mode_falls_back_exactly(self):
        payload = random.Random(5).randbytes(600)

        def drive(m, ctx, bp):
            store(m, ctx["va"] + 4, payload, bp)

        state = run_pair(build_region(mode=LogMode.INDEXED), drive)
        assert state["logger_stats"]["records_logged"] > 0


class TestSidePathExactness:
    def test_deferred_copy_destination(self):
        def build(m):
            src = StdSegment(2 * PAGE_SIZE, machine=m)
            src.write_bytes(0, random.Random(6).randbytes(2 * PAGE_SIZE))
            dst = StdSegment(2 * PAGE_SIZE, machine=m)
            dst.source_segment(src)
            region = StdRegion(dst)
            va = region.bind(m.current_process.address_space())
            return {"region": region, "va": va, "segments": [src, dst], "logs": []}

        rng = random.Random(7)
        writes = [(rng.randrange(2 * PAGE_SIZE - 40), rng.randbytes(rng.randrange(1, 40)))
                  for _ in range(25)]

        def drive(m, ctx, bp):
            out = []
            for off, data in writes:
                store(m, ctx["va"] + off, data, bp)
                out.append(load(m, ctx["va"] + max(0, off - 8), len(data) + 16, bp))
            out.append(load(m, ctx["va"], 2 * PAGE_SIZE, bp))
            return out

        run_pair(build, drive)

    def test_protection_trap_with_unprotect_handler(self):
        def build(m):
            ctx = build_region()(m)
            aspace = m.current_process.address_space()
            region = ctx["region"]
            va = ctx["va"]
            # Touch the pages first so PTEs exist, then protect page 1.
            aspace.write_bytes(m.cpu(0), va, b"\0" * (3 * PAGE_SIZE))
            aspace.protect_range(va + PAGE_SIZE, va + 2 * PAGE_SIZE)

            def handler(reg, vaddr):
                aspace.unprotect_range(vaddr, vaddr + 1)

            region.protection_handler = handler
            return ctx

        payload = random.Random(8).randbytes(3 * PAGE_SIZE)

        def drive(m, ctx, bp):
            store(m, ctx["va"], payload, bp)

        state = run_pair(build, drive)
        assert state["kernel_stats"]["protection_faults"] == 1

    def test_overflow_with_tight_fifo(self):
        # threshold == capacity: occupancy can never exceed the
        # threshold, so the FIFO overflows (drops) instead of raising
        # overload interrupts — both paths must drop identically.
        config = BASE.with_changes(
            logger_fifo_capacity=4, logger_overload_threshold=4
        )
        payload = random.Random(9).randbytes(2048)

        def drive(m, ctx, bp):
            store(m, ctx["va"], payload, bp)

        state = run_pair(build_region(), drive, config=config)
        assert state["fifo"][2] > 0  # overflow_count
        assert state["logger_stats"]["records_dropped"] > 0
        assert state["logger_stats"]["overload_events"] == 0

    def test_overload_with_low_threshold(self):
        config = BASE.with_changes(
            logger_fifo_capacity=32, logger_overload_threshold=4
        )
        payload = random.Random(10).randbytes(2048)

        def drive(m, ctx, bp):
            store(m, ctx["va"], payload, bp)

        state = run_pair(build_region(), drive, config=config)
        assert state["logger_stats"]["overload_events"] > 0
        assert state["cpu_stats"]["suspend_cycles"] > 0

    def test_fused_overload_reaches_subscribers(self):
        # A metrics-only Observability keeps the fused loop; each of its
        # overloads must reach the spine as the word loop's do.
        payload = random.Random(11).randbytes(16 * PAGE_SIZE)

        def drive(m, ctx, bp):
            with obscore.installed(Observability()) as obs:
                store(m, ctx["va"], payload, bp)
            drains = obs.metrics.value("hw.logger.overload_drains")
            assert drains == m.logger.stats.overload_events
            return drains

        state = run_pair(build_region(size=16 * PAGE_SIZE), drive)
        assert state["logger_stats"]["overload_events"] > 0

    def test_pmt_conflict_misses(self):
        # A 2-entry PMT with two logged pages landing on the same index:
        # alternating writes evict each other's entries, forcing PMT
        # faults inside the drain on both paths.
        config = BASE.with_changes(pmt_index_bits=1)
        rng = random.Random(11)
        # Touch order 0, 1, 2 allocates consecutive frames, so region
        # pages 0 and 2 get same-parity frame numbers — the same PMT
        # index — and then alternating writes evict each other.
        bursts = [
            (page, rng.randbytes(64)) for page in (0, 1, 2, 0, 2, 0, 2, 0, 2)
        ]

        def drive(m, ctx, bp):
            for page, data in bursts:
                store(m, ctx["va"] + page * PAGE_SIZE, data, bp)
            m.logger.flush()

        state = run_pair(build_region(), drive, config=config)
        assert state["logger_stats"]["pmt_fault_count"] > 0

    def test_onchip_logger(self):
        payload = random.Random(12).randbytes(PAGE_SIZE + 200)

        def drive(m, ctx, bp):
            store(m, ctx["va"] + 2, payload, bp)

        state = run_pair(build_region(), drive, config=ONCHIP)
        assert state["onchip"][0] > 0

    def test_onchip_extended_records(self):
        payload = random.Random(13).randbytes(PAGE_SIZE)

        def drive(m, ctx, bp):
            store(m, ctx["va"] + 6, payload, bp)
            store(m, ctx["va"] + 6, payload[::-1], bp)  # rewrite: old values differ

        state = run_pair(
            build_region(extended_records=True), drive, config=ONCHIP
        )
        assert state["onchip"][0] > 0


# ----------------------------------------------------------------------
# Scatter-store exactness: write_words against the loop of write it is
# defined as
# ----------------------------------------------------------------------
def scatter(m, writes, block_path):
    aspace = m.current_process.address_space()
    cpu = m.cpu(0)
    if block_path:
        aspace.write_words(cpu, writes)
    else:
        for va, value, size in writes:
            aspace.write(cpu, va, value, size)


def strided_writes(rng, base, span, runs=12):
    """Runs of strided, naturally aligned words over ``[base, base +
    span)``: some stay inside a page, some cross into the next, and some
    words repeat an earlier address with a new value."""
    writes = []
    for _ in range(runs):
        stride = rng.choice((4, 8, 12, 64, 200, 516))
        size = rng.choice((4, 4, 4, 2, 1))
        count = rng.randrange(1, min(40, span // stride))
        offset = rng.randrange(0, span - count * stride) & -size
        for j in range(count):
            writes.append((base + offset + j * stride, rng.getrandbits(8 * size), size))
        if writes and rng.random() < 0.5:
            va, _value, size = rng.choice(writes)
            writes.append((va, rng.getrandbits(8 * size), size))
    return writes


@pytest.fixture
def fused_runs(monkeypatch):
    """Counts the page runs the fused write-through loop took."""
    taken = []
    real = bulk._write_run_bus_logged

    def spy(*args):
        done = real(*args)
        taken.append(done)
        return done

    monkeypatch.setattr(bulk, "_write_run_bus_logged", spy)
    return taken


class TestScatterStoreExactness:
    @pytest.mark.no_lvm_san
    def test_strided_words_within_and_across_pages(self, fused_runs):
        rng = random.Random(21)
        calls = [(strided_writes(rng, 0, 4 * PAGE_SIZE), rng.randrange(50)) for _ in range(6)]

        def drive(m, ctx, bp):
            for writes, gap in calls:
                scatter(m, [(ctx["va"] + off, v, n) for off, v, n in writes], bp)
                m.cpu(0).compute(gap)
            return load(m, ctx["va"], 4 * PAGE_SIZE, bp)

        state = run_pair(build_region(), drive)
        assert state["logger_stats"]["records_logged"] > 0
        assert any(fused_runs)

    @pytest.mark.no_lvm_san
    def test_repeated_address_last_write_wins(self, fused_runs):
        def drive(m, ctx, bp):
            va = ctx["va"] + 64
            scatter(m, [(va, 0, 4)], bp)  # faults the page in
            scatter(m, [(va, 1, 4), (va + 4, 2, 4), (va, 3, 4), (va + 4, 4, 4)], bp)
            return load(m, va, 8, bp)

        run_pair(build_region(), drive)
        assert any(fused_runs)

    def test_word_spanning_a_page_raises_after_the_earlier_words(self):
        def drive(m, ctx, bp):
            va = ctx["va"] + PAGE_SIZE
            writes = [(va - 12, 1, 4), (va - 8, 2, 4), (va - 4, 3, 4), (va - 2, 4, 4)]
            with pytest.raises(SegmentError):
                scatter(m, writes, bp)
            return load(m, va - 16, 16, bp)

        run_pair(build_region(), drive)

    @pytest.mark.no_lvm_san
    def test_deferred_copy_destination_over_a_nonzero_source(self, fused_runs):
        def build(m):
            src = StdSegment(2 * PAGE_SIZE, machine=m)
            src.write_bytes(0, random.Random(22).randbytes(2 * PAGE_SIZE))
            dst = StdSegment(2 * PAGE_SIZE, machine=m)
            dst.source_segment(src)
            region = StdRegion(dst)
            log = LogSegment(machine=m)
            region.log(log)
            va = region.bind(m.current_process.address_space())
            return {"region": region, "va": va, "segments": [src, dst], "logs": [log]}

        rng = random.Random(23)
        calls = [strided_writes(rng, 0, 2 * PAGE_SIZE, runs=6) for _ in range(4)]

        def drive(m, ctx, bp):
            for writes in calls:
                scatter(m, [(ctx["va"] + off, v, n) for off, v, n in writes], bp)
            return load(m, ctx["va"], 2 * PAGE_SIZE, bp)

        run_pair(build, drive)
        assert any(fused_runs)

    @pytest.mark.no_lvm_san
    def test_overload_with_low_threshold(self, fused_runs):
        config = BASE.with_changes(logger_fifo_capacity=32, logger_overload_threshold=4)
        writes = strided_writes(random.Random(24), 0, 2 * PAGE_SIZE, runs=20)

        def drive(m, ctx, bp):
            scatter(m, [(ctx["va"] + off, v, n) for off, v, n in writes], bp)

        state = run_pair(build_region(), drive, config=config)
        assert state["logger_stats"]["overload_events"] > 0
        assert state["cpu_stats"]["suspend_cycles"] > 0
        assert any(fused_runs)

    @pytest.mark.no_lvm_san
    def test_overflow_with_tight_fifo(self, fused_runs):
        config = BASE.with_changes(logger_fifo_capacity=4, logger_overload_threshold=4)
        writes = strided_writes(random.Random(25), 0, 2 * PAGE_SIZE, runs=20)

        def drive(m, ctx, bp):
            scatter(m, [(ctx["va"] + off, v, n) for off, v, n in writes], bp)

        state = run_pair(build_region(), drive, config=config)
        assert state["logger_stats"]["records_dropped"] > 0
        assert state["logger_stats"]["overload_events"] == 0
        assert any(fused_runs)

    @pytest.mark.no_lvm_san
    def test_pmt_conflict_misses(self, fused_runs):
        # As in the block test: region pages 0 and 2 share a PMT index.
        config = BASE.with_changes(pmt_index_bits=1)
        rng = random.Random(26)
        bursts = [
            [(page * PAGE_SIZE + 8 * j, rng.getrandbits(32), 4) for j in range(16)]
            for page in (0, 1, 2, 0, 2, 0, 2, 0, 2)
        ]

        def drive(m, ctx, bp):
            for writes in bursts:
                scatter(m, [(ctx["va"] + off, v, n) for off, v, n in writes], bp)
            m.logger.flush()

        state = run_pair(build_region(), drive, config=config)
        assert state["logger_stats"]["pmt_fault_count"] > 0
        assert any(fused_runs)

    @pytest.mark.no_lvm_san
    def test_protection_trap_with_unprotect_handler(self, fused_runs):
        def build(m):
            ctx = build_region()(m)
            aspace = m.current_process.address_space()
            va = ctx["va"]
            aspace.write_bytes(m.cpu(0), va, b"\0" * (3 * PAGE_SIZE))
            aspace.protect_range(va + PAGE_SIZE, va + 2 * PAGE_SIZE)
            ctx["region"].protection_handler = lambda reg, vaddr: aspace.unprotect_range(
                vaddr, vaddr + 1
            )
            return ctx

        writes = [(off, off * 7, 4) for off in range(PAGE_SIZE - 64, 2 * PAGE_SIZE + 64, 16)]

        def drive(m, ctx, bp):
            scatter(m, [(ctx["va"] + off, v, n) for off, v, n in writes], bp)

        state = run_pair(build, drive)
        assert state["kernel_stats"]["protection_faults"] == 1
        assert any(fused_runs)

    @pytest.mark.no_lvm_san
    def test_first_touch_page_fault(self, fused_runs):
        # The first call's page runs fault their pages in on the word
        # loop; the second call's take the fused loop.
        writes = [(off, off, 4) for off in range(8, 3 * PAGE_SIZE, 100)]

        def drive(m, ctx, bp):
            for _ in range(2):
                scatter(m, [(ctx["va"] + (off & -4), v, n) for off, v, n in writes], bp)

        state = run_pair(build_region(), drive)
        assert state["kernel_stats"]["page_faults"] >= 3
        assert any(fused_runs)

    def test_unmapped_address_raises_alike(self):
        def drive(m, ctx, bp):
            with pytest.raises(UnmappedAddressError):
                scatter(m, [(ctx["va"] + 4 * j, j, 4) for j in range(4)] + [(16, 1, 4)] * 3, bp)

        run_pair(build_region(), drive)

    def test_unlogged_region_takes_the_word_loop(self, fused_runs):
        writes = strided_writes(random.Random(27), 0, 2 * PAGE_SIZE)

        def drive(m, ctx, bp):
            scatter(m, [(ctx["va"] + off, v, n) for off, v, n in writes], bp)

        run_pair(build_region(logged=False), drive)
        assert not fused_runs

    def test_onchip_logger(self, fused_runs):
        writes = strided_writes(random.Random(28), 0, 2 * PAGE_SIZE)

        def drive(m, ctx, bp):
            scatter(m, [(ctx["va"] + off, v, n) for off, v, n in writes], bp)

        state = run_pair(build_region(extended_records=True), drive, config=ONCHIP)
        assert state["onchip"][0] > 0
        assert not fused_runs

    @pytest.mark.no_lvm_san
    def test_attached_subscriber_falls_back(self, fused_runs):
        # A race detector sees one logged_run per store on the word
        # loop; the scatter store must show it exactly the same.
        writes = strided_writes(random.Random(29), 0, 2 * PAGE_SIZE)

        def drive(m, ctx, bp):
            with race.installed(race.LogRaceDetector()) as detector:
                scatter(m, [(ctx["va"] + off, v, n) for off, v, n in writes], bp)
            return detector.writes_checked, detector._shadow

        run_pair(build_region(), drive)
        assert not fused_runs


# ----------------------------------------------------------------------
# FIFO handoff: the fused loop and the word loop share one write FIFO
# ----------------------------------------------------------------------
@pytest.fixture
def handoff(monkeypatch):
    """Spies on write-FIFO entries crossing between the fused loop and
    the word loop's drain.  Entries are tracked by identity, so the
    reference machine's equal-valued entries never count."""
    seen = {"fused_backlogs": [], "fused_queued": {}, "word_drained": []}
    inside = []
    real_fused = bulk._write_run_bus_logged
    real_drain = Logger._drain_fast

    def fused(cpu, machine, *rest):
        entries = machine.logger.write_fifo._entries
        before = {id(e) for e in entries}
        seen["fused_backlogs"].append(len(entries))
        inside.append(True)
        try:
            return real_fused(cpu, machine, *rest)
        finally:
            inside.pop()
            seen["fused_queued"].update((id(e), e) for e in entries if id(e) not in before)

    def drain(self, limit):
        before = list(self.write_fifo._entries)
        real_drain(self, limit)
        if not inside:
            # A drain only pops from the head.
            seen["word_drained"] += before[: len(before) - len(self.write_fifo._entries)]

    monkeypatch.setattr(bulk, "_write_run_bus_logged", fused)
    monkeypatch.setattr(Logger, "_drain_fast", drain)
    return seen


def test_word_loop_and_fused_calls_share_a_backlogged_fifo(handoff):
    """Word-loop stores and fused calls (``write_block``, ``write_words``)
    interleave on one logged page while the FIFO holds a backlog, so
    each path drains entries the other queued.  Page 2 shares page 0's
    PMT index and evicts it, and the run logs more than a log page of
    records."""
    config = BASE.with_changes(pmt_index_bits=1)
    rng = random.Random(30)
    rounds = []
    for r in range(8):
        page = 2 * PAGE_SIZE if r % 3 == 2 else 0
        base = page + 512 * (r % 4)
        rounds.append((
            [(base + 4 * j, rng.getrandbits(32), 4) for j in range(20)],
            rng.randbytes(64),
            [(base + 96 + 8 * j, rng.getrandbits(32), 4) for j in range(6)],
            [(base + 160 + 4 * j, rng.getrandbits(32), 4) for j in range(3)],
        ))

    def build(m):
        ctx = build_region()(m)
        aspace = m.current_process.address_space()
        for page in range(3):  # fault in pages 0, 1, 2 in order
            aspace.write(m.cpu(0), ctx["va"] + page * PAGE_SIZE, 0)
        m.quiesce()
        return ctx

    def drive(m, ctx, bp):
        aspace = m.current_process.address_space()
        cpu = m.cpu(0)
        va = ctx["va"]
        for words, block, scattered, tail in rounds:
            for off, value, size in words:
                aspace.write(cpu, va + off, value, size)
            store(m, va + words[-1][0] + 4, block, bp)
            for off, value, size in tail:
                aspace.write(cpu, va + off, value, size)
            scatter(m, [(va + off, value, size) for off, value, size in scattered], bp)
        m.logger.flush()

    state = run_pair(build, drive, config=config)
    assert state["logger_stats"]["pmt_fault_count"] > 0
    assert state["logger_stats"]["boundary_fault_count"] > 0
    assert any(handoff["fused_backlogs"]), "no fused call met a backlog"
    queued = handoff["fused_queued"]
    assert any(id(e) in queued for e in handoff["word_drained"]), (
        "the word loop never drained an entry a fused call queued"
    )


class TestReadExactness:
    def test_reads_after_writes(self):
        rng = random.Random(14)
        payload = rng.randbytes(3 * PAGE_SIZE)
        reads = [(rng.randrange(3 * PAGE_SIZE - 90), rng.randrange(1, 90))
                 for _ in range(30)]

        def drive(m, ctx, bp):
            store(m, ctx["va"], payload, bp)
            return [load(m, ctx["va"] + off, n, bp) for off, n in reads]

        run_pair(build_region(), drive)

    def test_cold_reads_fault_pages_in(self):
        def drive(m, ctx, bp):
            return load(m, ctx["va"] + 5, 2 * PAGE_SIZE, bp)

        state = run_pair(build_region(logged=False), drive)
        assert state["kernel_stats"]["page_faults"] >= 2


# ----------------------------------------------------------------------
# Host-time floor: what the bulk engine is for
# ----------------------------------------------------------------------
COPY_BYTES = 256 * 1024


def test_bulk_copy_is_three_times_faster_than_the_word_loop():
    """A 256 KiB ``vm_copy`` into a logged region: the bulk engine runs
    at least 3x faster in host time than the word-at-a-time loop, and
    ``run_pair`` holds memory, log records and cycles identical.

    Three pairs run in alternating order and the best time of each side
    is compared, so neither side always runs first and one slow pass
    cannot decide the ratio."""
    walls = {False: [], True: []}

    def build(m):
        proc = m.current_process
        src_va = StdRegion(StdSegment(COPY_BYTES, machine=m)).bind(proc.address_space())
        dst_seg = StdSegment(COPY_BYTES, machine=m)
        dst_region = StdRegion(dst_seg)
        dst_region.log(LogSegment(size=32 * 1024 * 1024, machine=m))
        dst_va = dst_region.bind(proc.address_space())
        # Seeded through the timed path so both machines start alike.
        proc.write_block(src_va, bytes(range(256)) * (COPY_BYTES // 256))
        m.quiesce()
        return {"src": src_va, "dst": dst_va, "log": dst_region.log_segment,
                "segments": [dst_seg]}

    def drive(m, ctx, bp):
        t0 = time.perf_counter()
        vm_copy(m.current_process, ctx["src"], ctx["dst"], COPY_BYTES, use_blocks=bp)
        m.quiesce()
        walls[bp].append(time.perf_counter() - t0)
        log = ctx["log"]
        return log.records_appended, log.read_bytes(0, log.append_offset)

    config = BASE.with_changes(memory_bytes=256 * 1024 * 1024)
    for order in ((False, True), (True, False), (False, True)):
        run_pair(build, drive, config=config, order=order)
    speedup = min(walls[False]) / min(walls[True])
    assert speedup >= 3.0, f"bulk engine speedup {speedup:.2f}x below the 3x floor"


# ----------------------------------------------------------------------
# Access stepping (the shared slow/bulk definition)
# ----------------------------------------------------------------------
class TestAccessSteps:
    def test_halfword_step_used(self):
        assert bulk.access_steps(2, 2) == [(0, 2)]

    def test_mixed_alignment(self):
        assert bulk.access_steps(1, 7) == [(0, 1), (1, 2), (3, 4)]

    def test_aligned_run_with_halfword_tail(self):
        assert bulk.access_steps(0, 10) == [(0, 4), (4, 4), (8, 2)]

    def test_steps_cover_range_exactly(self):
        for va in range(8):
            for length in range(1, 24):
                steps = bulk.access_steps(va, length)
                pos = 0
                for off, size in steps:
                    assert off == pos
                    assert (va + off) % size == 0  # natural alignment
                    pos += size
                assert pos == length

    def test_halfword_store_is_one_access(self):
        # A 2-byte aligned store must be charged as ONE access, not two
        # byte stores: cheaper in both store count and cycles.
        m = boot(BASE)
        try:
            seg = StdSegment(PAGE_SIZE, machine=m)
            region = StdRegion(seg)
            va = region.bind(m.current_process.address_space())
            aspace = m.current_process.address_space()
            cpu = m.cpu(0)
            aspace.write_bytes(cpu, va, b"\0\0\0\0")  # fault + warm the line
            stores_before = cpu.stats.stores
            now_before = cpu.now
            aspace.write_bytes(cpu, va + 2, b"ab")
            assert cpu.stats.stores - stores_before == 1
            one_access = cpu.now - now_before
            # Two single-byte stores to the same warm line cost more.
            now_before = cpu.now
            aspace.write_bytes(cpu, va + 5, b"c")
            aspace.write_bytes(cpu, va + 6, b"d")
            assert cpu.now - now_before == 2 * one_access
        finally:
            set_current_machine(None)


# ----------------------------------------------------------------------
# Translation-cache invalidation (stale fast-path entries must never
# bypass a mapping or protection change)
# ----------------------------------------------------------------------
class TestTranslationCacheInvalidation:
    def setup_machine(self):
        m = boot(BASE)
        seg = StdSegment(2 * PAGE_SIZE, machine=m)
        region = StdRegion(seg)
        va = region.bind(m.current_process.address_space())
        return m, region, va

    def teardown_method(self, method):
        set_current_machine(None)

    def test_protect_range_defeats_cached_entry(self):
        m, region, va = self.setup_machine()
        aspace = m.current_process.address_space()
        cpu = m.cpu(0)
        aspace.write(cpu, va, 1)  # seeds the fast-path cache
        aspace.protect_range(va, va + 1)
        with pytest.raises(ProtectionError):
            aspace.write(cpu, va + 4, 2)
        assert m.kernel.stats.protection_faults == 1

    def test_write_block_sees_new_protection(self):
        m, region, va = self.setup_machine()
        aspace = m.current_process.address_space()
        cpu = m.cpu(0)
        aspace.write_block(cpu, va, b"\1\2\3\4")
        aspace.protect_range(va, va + 1)
        with pytest.raises(ProtectionError):
            aspace.write_block(cpu, va, bytes([5, 6, 7, 8]))
        assert m.kernel.stats.protection_faults == 1

    def test_unprotect_range_restores_fast_path(self):
        m, region, va = self.setup_machine()
        aspace = m.current_process.address_space()
        cpu = m.cpu(0)
        traps = []
        region.protection_handler = lambda reg, vaddr: traps.append(vaddr)
        aspace.write(cpu, va, 1)
        aspace.protect_range(va, va + 1)
        aspace.unprotect_range(va, va + 1)
        aspace.write(cpu, va + 8, 2)  # must not trap
        assert traps == []
        assert m.kernel.stats.protection_faults == 0

    def test_detach_drops_cached_entries(self):
        m, region, va = self.setup_machine()
        aspace = m.current_process.address_space()
        cpu = m.cpu(0)
        aspace.write(cpu, va, 1)
        region.unbind()
        with pytest.raises(UnmappedAddressError):
            aspace.write(cpu, va, 2)
        with pytest.raises(UnmappedAddressError):
            aspace.read(cpu, va)
