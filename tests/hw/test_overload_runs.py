"""The overload drain serves its backlog a run at a time.

``Logger._drain_runs`` times, packs and accounts a run of records (one
source page, one NORMAL-mode log, up to the end of its log page) with
numpy columns; ``Logger._drain_fast(None)``, the record-at-a-time loop,
is the reference.  Twin loggers, identically built, take the same
backlog and must end in the same state: log frames, pipeline and bus
times, every counter, the kernel callbacks and the sinks' offsets.
"""

from __future__ import annotations

import random
from functools import partial

from hypothesis import given, settings, strategies as st

from repro.hw.bus import SystemBus
from repro.hw.clock import Clock
from repro.hw.logger import Logger, LogMode
from repro.hw.memory import PhysicalMemory
from repro.hw.params import LOG_RECORD_SIZE, PAGE_SIZE, MachineConfig

MODES = [LogMode.NORMAL, LogMode.NORMAL, LogMode.INDEXED, LogMode.DIRECT_MAPPED]


class Sink:
    """A log segment's inline append accounting."""

    def __init__(self) -> None:
        self.append_offset = 0
        self.records_appended = 0


class Kernel:
    """Fault handler serving each log's pages from a list; every
    callback is recorded in order."""

    def __init__(self, logger, pmt_map, log_pages, sinks) -> None:
        self.logger = logger
        self.pmt_map = pmt_map
        self.log_pages = log_pages
        self.sinks = sinks
        self.calls: list[tuple] = []

    def pmt_miss(self, paddr):
        index = self.pmt_map.get(paddr // PAGE_SIZE)
        if index is not None:
            self.logger.pmt.load(paddr, index)
        return index, 800

    def log_boundary(self, log_index):
        pages = self.log_pages[log_index]
        return (pages.pop(0) if pages else None), 500

    def record_written(self, log_index, paddr, nbytes):
        self.calls.append(("written", log_index, paddr, nbytes))

    def record_lost(self, log_index):
        self.calls.append(("lost", log_index))

    def overload(self, drain_complete_cycle):
        self.calls.append(("overload", drain_complete_cycle))


class SinkKernel(Kernel):
    def log_segment_for(self, log_index):
        return self.sinks.get(log_index)


@st.composite
def scenarios(draw, max_threshold=512):
    logs = [
        {
            "mode": draw(st.sampled_from(MODES)),
            # 0 pages: the first record faults and the log absorbs into
            # the default page; too few: it runs out part way.
            "pages": draw(st.integers(0, 3)),
            "start": draw(st.integers(0, PAGE_SIZE // LOG_RECORD_SIZE - 1)),
        }
        for _ in range(draw(st.integers(1, 3)))
    ]
    # log index per source page; None = no log serves it (dropped)
    sources = draw(
        st.lists(st.one_of(st.none(), st.integers(0, len(logs) - 1)), min_size=1, max_size=4)
    )
    threshold = draw(st.integers(1, max_threshold))
    return {
        "handler": draw(st.sampled_from(["none", "callback", "sink"])),
        "pmt_index_bits": draw(st.sampled_from([1, 15])),  # 1 bit: conflicts
        "preload": draw(st.lists(st.booleans(), min_size=len(sources), max_size=len(sources))),
        "logs": logs,
        "sources": sources,
        "threshold": threshold,
        "capacity": threshold + draw(st.integers(0, 64)),
        "free": draw(st.integers(0, 3000)),
        "busy": draw(st.integers(0, 3000)),
        "stretches": draw(
            st.lists(
                st.tuples(st.integers(0, len(sources) - 1), st.integers(1, 300)),
                min_size=1,
                max_size=6,
            )
        ),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def backlog(sc, source_bases):
    """``(ready, paddr, value, size)`` entries, ready non-decreasing."""
    rng = random.Random(sc["seed"])
    entries = []
    ready = 100
    for source, count in sc["stretches"]:
        for _ in range(count):
            ready += rng.choice([0, 0, 0, 1, 7, 30, 400])
            size = rng.choice([4, 4, 4, 2, 1])
            offset = rng.randrange(0, PAGE_SIZE, size)
            value = rng.randrange(1 << (8 * size))
            entries.append((ready, source_bases[source] + offset, value, size))
    return entries


class Rig:
    """One logger with its memory, bus, clock and kernel."""

    def __init__(self, sc) -> None:
        config = MachineConfig(
            memory_bytes=4 * 1024 * 1024,
            pmt_index_bits=sc["pmt_index_bits"],
            logger_fifo_capacity=sc["capacity"],
            logger_overload_threshold=sc["threshold"],
        )
        self.memory = memory = PhysicalMemory(config.num_frames)
        self.bus = SystemBus()
        self.clock = Clock()
        self.logger = logger = Logger(config, memory, self.bus, self.clock)
        logger.set_default_page(memory.allocate_frame().base_addr)
        self.source_bases = [memory.allocate_frame().base_addr for _ in sc["sources"]]
        log_pages = {}
        self.sinks = {}
        for index, log in enumerate(sc["logs"]):
            logger.set_log_mode(index, log["mode"])
            pages = [memory.allocate_frame().base_addr for _ in range(log["pages"])]
            if log["mode"] is LogMode.DIRECT_MAPPED:
                dest = memory.allocate_frame().base_addr
                for base, source in zip(self.source_bases, sc["sources"]):
                    if source == index:
                        logger.load_direct_mapping(base, dest)
            elif pages:
                logger.log_table.load(index, pages.pop(0) + log["start"] * LOG_RECORD_SIZE)
            if log["mode"] is LogMode.NORMAL:
                self.sinks[index] = Sink()
            log_pages[index] = pages
        pmt_map = {}
        for base, source, preload in zip(self.source_bases, sc["sources"], sc["preload"]):
            if source is not None:
                pmt_map[base // PAGE_SIZE] = source
                if preload:
                    logger.pmt.load(base, source)
        kind = {"none": None, "callback": Kernel, "sink": SinkKernel}[sc["handler"]]
        self.kernel = None
        if kind is not None:
            self.kernel = kind(logger, pmt_map, log_pages, self.sinks)
            logger.attach_fault_handler(self.kernel)
        logger._service_free = sc["free"]
        self.bus._busy_until = sc["busy"]
        self.entries = backlog(sc, self.source_bases)

    def state(self) -> dict:
        logger = self.logger
        pmt = logger.pmt
        return {
            "frames": {fpn: bytes(f.data) for fpn, f in self.memory._frames.items()},
            "service_free": logger._service_free,
            "bus": (self.bus._busy_until, self.bus.total_busy_cycles, self.bus.transaction_count),
            "stats": logger.stats.snapshot(),
            "pmt": (pmt.lookup_count, pmt.miss_count, pmt.eviction_count),
            "log_table": {i: (e.log_address, e.valid) for i, e in logger.log_table._entries.items()},
            "absorbing": set(logger._absorbing),
            "sinks": {i: (s.append_offset, s.records_appended) for i, s in self.sinks.items()},
            "kernel": self.kernel.calls if self.kernel is not None else None,
            "fifo": (list(logger.write_fifo._entries), logger.write_fifo.high_water_mark),
            "clock": self.clock.now,
        }


def drain_twins(sc, entries=None):
    """Drain one twin record at a time and the other by runs, from the
    same backlog; returns the run-drained rig once the two agree."""
    reference, runs = Rig(sc), Rig(sc)
    for rig in (reference, runs):
        rig.logger.write_fifo._entries.extend(rig.entries if entries is None else entries)
    reference.logger._drain_fast(None)
    runs.logger._drain_runs()
    assert runs.state() == reference.state()
    assert not runs.logger.write_fifo._entries
    return runs


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_run_drain_equals_record_drain(sc):
    drain_twins(sc)


@settings(max_examples=100, deadline=None)
@given(scenarios(max_threshold=40))
def test_overload_by_runs_equals_overload_by_records(sc):
    # The same snooped writes, with the reference's overload drained
    # record at a time: overloads, suspensions and drops must agree.
    reference, runs = Rig(sc), Rig(sc)
    reference.logger._drain_runs = partial(reference.logger._drain_fast, None)
    for rig in (reference, runs):
        for ready, paddr, value, size in rig.entries:
            rig.logger.snoop_write(ready, paddr, value, size)
    assert runs.state() == reference.state()


def test_a_backlog_crossing_a_log_page_takes_one_fault():
    # 200 records from one source page, starting 10 records before the
    # end of a log page: a run of 10, the boundary fault, a run of 189.
    sc = {
        "handler": "sink", "pmt_index_bits": 15, "preload": [True],
        "logs": [{"mode": LogMode.NORMAL, "pages": 3, "start": 246}],
        "sources": [0], "threshold": 512, "capacity": 819,
        "free": 0, "busy": 0, "stretches": [(0, 200)], "seed": 5,
    }
    runs = drain_twins(sc)
    stats = runs.logger.stats
    assert (stats.records_logged, stats.boundary_fault_count) == (200, 1)
    # The faulted record is accounted by the kernel callback.
    assert runs.sinks[0].records_appended == 199
    assert [call[0] for call in runs.kernel.calls] == ["written"]


def test_a_value_past_64_bits_is_logged_by_its_low_32():
    # Segment.write masks a store's value to its size, so the FIFO can
    # hold any int; the record keeps the low 32 bits either way.
    sc = {
        "handler": "sink", "pmt_index_bits": 15, "preload": [True],
        "logs": [{"mode": LogMode.NORMAL, "pages": 1, "start": 0}],
        "sources": [0], "threshold": 512, "capacity": 819,
        "free": 0, "busy": 0, "stretches": [(0, 3)], "seed": 5,
    }
    entries = Rig(sc).entries  # every rig lays out memory alike
    ready, paddr, _value, size = entries[1]
    entries[1] = (ready, paddr, (1 << 70) | 0x1234, size)
    assert drain_twins(sc, entries).logger.stats.records_logged == 3
