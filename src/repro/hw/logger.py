"""The hardware logger (section 3.1).

"The logger is a hardware device that snoops the system bus for write
operations to logged segments and translates each such write operation
into a log record, storing it in the associated log segment."

Pipeline (Figure 5): bus snoop → write FIFO → page-mapping-table lookup
→ log-table lookup/update → log-record FIFO → DMA into memory.

The pipeline is simulated *lazily*: snooped writes are queued with the
cycle at which they appeared on the bus, and are serviced (one every
``logger_service_cycles``) whenever time is observed to advance.  This
keeps the model deterministic and fast while reproducing the two
timing behaviours the paper measures:

* the stability threshold — the logger keeps up as long as there is no
  more than one logged write per ~27 compute cycles (section 4.5.3);
* the overload penalty — crossing the 512-entry FIFO threshold raises
  an interrupt and the kernel suspends all processes that might
  generate log data until the FIFOs drain, costing >30,000 cycles.

Faults (section 3.2): a PMT miss or an invalid log-table entry (log
address crossed a page boundary) raises a *logging fault*, serviced by
the kernel through the :class:`LoggingFaultHandler` protocol.
"""

from __future__ import annotations

import enum
from itertools import chain
from typing import Protocol

import numpy as np

from repro import probe
from repro.hw.bus import SystemBus
from repro.hw.clock import Clock
from repro.hw.fifo import HardwareFifo, PushResult
from repro.hw.log_table import LogTable
from repro.hw.memory import PhysicalMemory
from repro.hw.page_mapping_table import PageMappingTable
from repro.hw.params import LOG_RECORD_SIZE, PAGE_SIZE, MachineConfig
from repro.hw.records import RECORD_STRUCT, encode_record

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_PAGE_MASK = PAGE_SIZE - 1
_UNSET = object()


class LogMode(enum.Enum):
    """Logging modes (sections 2.1 and 2.6)."""

    #: Append a 16-byte (address, value, size, timestamp) record.
    NORMAL = "normal"
    #: Write the update value to the *corresponding offset* of the log
    #: segment (mapped-I/O output, section 2.6).
    DIRECT_MAPPED = "direct_mapped"
    #: Append just the data values, without addresses — streamed output
    #: (section 2.6).  Values are stored as 4-byte little-endian words.
    INDEXED = "indexed"


#: Size of one indexed-mode log entry (a bare data value).
INDEXED_ENTRY_SIZE = 4


class LoggingFaultHandler(Protocol):
    """Kernel services invoked by the logger.

    Handler methods return the number of kernel cycles consumed; the
    logger adds that to its pipeline stall.
    """

    def pmt_miss(self, paddr: int) -> tuple[int | None, int]:
        """PMT missed for ``paddr``.

        Returns ``(log_index, cycles)``; ``log_index`` is None when no
        log serves this page (the record is dropped).
        """
        ...  # pragma: no cover - protocol

    def log_boundary(self, log_index: int) -> tuple[int | None, int]:
        """Log ``log_index`` needs its next page.

        Returns ``(log_address, cycles)``; ``log_address`` is None when
        no page is available, in which case the logger redirects records
        to the kernel's default log page and they are lost (section 3.2).
        """
        ...  # pragma: no cover - protocol

    def record_written(self, log_index: int, paddr: int, nbytes: int) -> None:
        """A record was DMA'd for log ``log_index`` at ``paddr``."""
        ...  # pragma: no cover - protocol

    def record_lost(self, log_index: int) -> None:
        """A record for log ``log_index`` was absorbed by the default page."""
        ...  # pragma: no cover - protocol

    def log_segment_for(self, log_index: int) -> object | None:
        """Optional batching hook (looked up with ``getattr``).

        Returning a log-segment object authorises the logger to account
        appended records inline (``append_offset += 16``,
        ``records_appended += 1``) instead of calling
        :meth:`record_written` once per record; return None to keep the
        per-record callback.  Only NORMAL-mode logs whose accounting is
        exactly that pair of increments may be returned.
        """
        ...  # pragma: no cover - protocol

    def overload(self, drain_complete_cycle: int) -> None:
        """The write FIFO crossed its threshold (overload interrupt)."""
        ...  # pragma: no cover - protocol


class LoggerStats:
    """Counters exposed for the evaluation benchmarks."""

    def __init__(self) -> None:
        self.records_logged = 0
        self.records_dropped = 0
        self.overload_events = 0
        self.logging_faults = 0
        self.pmt_fault_count = 0
        self.boundary_fault_count = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


class Logger:
    """Bus-snooping hardware logger."""

    def __init__(
        self,
        config: MachineConfig,
        memory: PhysicalMemory,
        bus: SystemBus,
        clock: Clock,
    ) -> None:
        self.config = config
        self.memory = memory
        self.bus = bus
        self.clock = clock
        self.pmt = PageMappingTable(config.pmt_index_bits, config.pmt_tag_bits)
        self.log_table = LogTable(config.log_table_entries)
        self.write_fifo = HardwareFifo(
            config.logger_fifo_capacity, config.logger_overload_threshold
        )
        self.stats = LoggerStats()
        self._service_free = 0
        self._modes: dict[int, LogMode] = {}
        #: direct-mapped mode: source physical page -> log dest page base
        self._direct_map: dict[int, int] = {}
        self._fault_handler: LoggingFaultHandler | None = None
        #: default page used to absorb records when a log has no next
        #: page available; records written here are lost (section 3.2).
        self._default_page_paddr: int | None = None
        #: logs currently absorbing into the default page
        self._absorbing: set[int] = set()

    # ------------------------------------------------------------------
    # Kernel-facing configuration
    # ------------------------------------------------------------------
    def attach_fault_handler(self, handler: LoggingFaultHandler) -> None:
        """Register the kernel's logging-fault / overload handler."""
        self._fault_handler = handler

    def set_default_page(self, paddr: int) -> None:
        """Set the kernel's default absorption page (section 3.2)."""
        self._default_page_paddr = paddr

    def set_log_mode(self, log_index: int, mode: LogMode) -> None:
        """Declare the logging mode for log-table slot ``log_index``."""
        self._modes[log_index] = mode

    def load_direct_mapping(self, src_paddr: int, dest_page_base: int) -> None:
        """Map a source page to its direct-mapped log destination page."""
        self._direct_map[src_paddr // PAGE_SIZE] = dest_page_base

    def is_absorbing(self, log_index: int) -> bool:
        """True while records for this log are being lost to the default page."""
        return log_index in self._absorbing

    def resume_log(self, log_index: int, log_address: int) -> None:
        """Point a log back at real storage after default-page absorption.

        Called by the kernel when the user extends a log segment that
        had run out of pages ("the kernel then can efficiently resume
        the log writing", section 3.2).
        """
        self._absorbing.discard(log_index)
        self.log_table.load(log_index, log_address)

    def unload_log(self, log_index: int) -> int | None:
        """Unload a log from the logger tables (e.g. on context switch).

        Returns the log's current append address so the kernel can
        record the log segment's true length, or None if not loaded.
        """
        self._modes.pop(log_index, None)
        self._absorbing.discard(log_index)
        self.pmt.invalidate_log(log_index)
        entry = self.log_table.unload(log_index)
        return entry.log_address if entry is not None else None

    # ------------------------------------------------------------------
    # Bus snooping (producer side)
    # ------------------------------------------------------------------
    def snoop_write(self, complete_cycle: int, paddr: int, value: int, size: int) -> None:
        """Latch a logged bus write into the write FIFO.

        The bus calls this only for writes whose page mapping asserted
        the "log" signal (section 3.1); the write is queued as
        ``(ready, paddr, value, size)``.
        """
        self.drain(complete_cycle)
        result = self.write_fifo.push(complete_cycle, paddr, value, size)
        sp = probe._ACTIVE
        if sp is not None and sp.counter_track is not None:
            sp.counter_track(
                "logger", "logger.fifo_depth", complete_cycle, len(self.write_fifo._entries)
            )
        if result is PushResult.THRESHOLD:
            self._handle_overload(complete_cycle)
        elif result is PushResult.OVERFLOW:
            # The entry was lost at hard capacity.  This is a dropped
            # record, not a fresh overload event — the overload interrupt
            # (and its suspend penalty) was already raised when occupancy
            # first crossed the threshold.
            self.stats.records_dropped += 1

    # ------------------------------------------------------------------
    # Pipeline (consumer side)
    # ------------------------------------------------------------------
    def drain(self, now: int) -> None:
        """Service every queued write whose processing completes by ``now``."""
        entries = self.write_fifo._entries
        if not entries:
            return
        ready = entries[0][0]
        start = ready if ready > self._service_free else self._service_free
        if start + self.config.logger_service_cycles > now:
            return
        self._drain_fast(now)
        sp = probe._ACTIVE
        if sp is not None and sp.log_drained is not None:
            sp.log_drained(now)

    def flush(self) -> int:
        """Service every queued write regardless of time.

        Returns the cycle at which the pipeline finished — the "FIFOs
        have drained" time used by the overload handler.
        """
        if self.write_fifo._entries:
            self._drain_fast(None)
            sp = probe._ACTIVE
            if sp is not None and sp.log_drained is not None:
                sp.log_drained(self._service_free)
        return self._service_free

    def _drain_fast(self, limit: int | None) -> None:
        """Service queued writes up to ``limit`` (None = all of them).

        This is the pipeline's hot loop.  Every entry is ``(ready, paddr,
        value, size)``, whether the bus snoop or the bulk engine queued
        it.  The NORMAL-mode, PMT-hit, valid-log-table-entry case is fully
        inlined (one dict probe for the PMT slot, the log-table bump, the
        struct pack, the DMA bus acquire, and the frame write), with
        counter updates batched and written back once.  Any deviation —
        PMT miss, boundary fault, absorbing log, non-NORMAL mode — falls
        back to the generic :meth:`_process`, which produces bit-identical
        state to the old record-at-a-time loop.

        :meth:`drain` and :meth:`flush` (``Machine.sync``/``quiesce``)
        come here, where a backlog is mostly a handful of records; an
        overload drain, hundreds of records long, is served by runs
        instead (:meth:`_drain_runs`).  The bulk engine's ``drain`` closure in
        ``core/bulk._write_run_bus_logged`` repeats the bounded form of
        this loop on purpose: sharing one loop measured ~16% slower
        ``bulk_copy`` p50, and always using :meth:`_process` here ~5%
        slower ``tw_phased`` (DESIGN.md §5.1).
        """
        entries = self.write_fifo._entries
        service = self.config.logger_service_cycles
        sp = probe._ACTIVE
        if sp is not None and sp.detail:
            # Injection sites and trace spans live on the generic path;
            # route every record through _process so "logger.dma" fires
            # per record (cycle charges are identical either way).
            while entries:
                ready, paddr, value, size = entries[0]
                start = ready if ready > self._service_free else self._service_free
                complete = start + service
                if limit is not None and complete > limit:
                    return
                entries.popleft()
                self._service_free = complete
                self._process(paddr, value, size, complete)
            return
        free = self._service_free
        pmt = self.pmt
        slots = pmt._slots
        index_mask = pmt._index_mask
        index_bits = pmt.index_bits
        lt_entries = self.log_table._entries
        modes = self._modes
        absorbing = self._absorbing
        handler = self._fault_handler
        bus = self.bus
        frames = self.memory._frames
        stats = self.stats
        divider = self.clock._timestamp_divider
        dma_cycles = self.config.log_dma_bus_cycles
        pack = RECORD_STRUCT.pack
        normal = LogMode.NORMAL
        record_size = LOG_RECORD_SIZE
        busy = bus._busy_until
        bus_busy = 0
        transactions = 0
        logged = 0
        lookups = 0
        #: per-call cache: log_index -> LogSegment (inline appends allowed)
        #: or None (route through handler.record_written).  Nothing can
        #: rebind a log while one drain call runs, so caching is safe.
        sinks: dict[int, object] = {}
        while entries:
            ready, paddr, value, size = entries[0]
            start = ready if ready > free else free
            complete = start + service
            if limit is not None and complete > limit:
                break
            entries.popleft()
            free = complete
            ppn = paddr >> _PAGE_SHIFT
            slot = slots.get(ppn & index_mask)
            if slot is None or slot.tag != ppn >> index_bits:
                # PMT miss: generic path (it performs and counts its own
                # PMT lookup, so none is counted here).
                self._service_free = free
                bus._busy_until = busy
                self._process(paddr, value, size, complete)
                free = self._service_free
                busy = bus._busy_until
                continue
            log_index = slot.log_index
            entry = lt_entries.get(log_index)
            if (
                entry is None
                or not entry.valid
                or log_index in absorbing
                or modes.get(log_index, normal) is not normal
            ):
                # Boundary fault, absorbing log, or special mode.
                self._service_free = free
                bus._busy_until = busy
                self._process(paddr, value, size, complete)
                free = self._service_free
                busy = bus._busy_until
                continue
            lookups += 1
            dest = entry.log_address
            advanced = dest + record_size
            entry.log_address = advanced
            if not advanced % PAGE_SIZE:
                entry.valid = False
            payload = pack(
                paddr & 0xFFFFFFFF,
                value & 0xFFFFFFFF,
                size,
                0,
                (complete // divider) & 0xFFFFFFFF,
            )
            dma_start = complete if complete > busy else busy
            busy = dma_start + dma_cycles
            bus_busy += dma_cycles
            transactions += 1
            frame = frames.get(dest >> _PAGE_SHIFT)
            if frame is not None:
                offset = dest % PAGE_SIZE
                frame.data[offset : offset + record_size] = payload
            else:
                self.memory.write_bytes(dest, payload)
            logged += 1
            if handler is not None:
                sink = sinks.get(log_index, _UNSET)
                if sink is _UNSET:
                    getlog = getattr(handler, "log_segment_for", None)
                    sink = getlog(log_index) if getlog is not None else None
                    sinks[log_index] = sink
                if sink is None:
                    handler.record_written(log_index, dest, record_size)
                else:
                    sink.append_offset += record_size
                    sink.records_appended += 1
        self._service_free = free
        bus._busy_until = busy
        bus.total_busy_cycles += bus_busy
        bus.transaction_count += transactions
        stats.records_logged += logged
        pmt.lookup_count += lookups

    def _handle_overload(self, now: int) -> None:
        """FIFO crossed the threshold: interrupt and drain (section 3.1.3).

        The one overload path: the bus snoop and the bulk engine's
        fused loop both raise it here, with the FIFO holding more than
        its threshold of entries.
        """
        probe.hit("logger.overload", cycle=now)
        self.stats.overload_events += 1
        sp = probe._ACTIVE
        if sp is not None and sp.detail:
            self._drain_fast(None)
        else:
            self._drain_runs()
        drain_complete = self._service_free
        if sp is not None and sp.log_drained is not None:
            sp.log_drained(drain_complete)
        if sp is not None and sp.logger_overload is not None:
            sp.logger_overload(now, drain_complete)
        if self._fault_handler is not None:
            self._fault_handler.overload(max(now, drain_complete))
        self.clock.advance_to(drain_complete)

    def _drain_runs(self) -> None:
        """Service the whole backlog a run at a time.

        A run is a stretch of consecutive entries on one source page
        whose records go to one NORMAL-mode, valid, non-absorbing
        log-table entry; it ends at the end of that entry's log page.
        Each run is timed and packed as numpy columns: with ``s`` the
        service time, entry ``i`` of a run completes at ``done_i =
        s·(i+1) + max(free, cummax(ready_j − s·j))``, the DMA tail of
        ``m`` records with ``d`` bus cycles each is ``d·m + max(busy,
        max(done_j − d·j))``, and the records are written into the log
        frame with one slice.  Counters and the sink's accounting move
        once per run.  An entry no run can take (PMT miss, boundary
        fault, absorbing log, special mode) goes through
        :meth:`_process` between runs, exactly as :meth:`_drain_fast`
        sends it there.
        """
        entries = self.write_fifo._entries
        popleft = entries.popleft
        n = len(entries)
        try:
            cols = np.fromiter(chain.from_iterable(entries), np.int64, 4 * n).reshape(n, 4)
        except OverflowError:
            # A stored value past 64 bits (records keep its low 32 bits,
            # which the record-at-a-time loop takes from any int).
            self._drain_fast(None)
            return
        ppns = cols[:, 1] >> _PAGE_SHIFT
        # End of each source-page stretch (exclusive), in entry order.
        page_ends = (np.flatnonzero(ppns[1:] != ppns[:-1]) + 1).tolist()
        page_ends.append(n)
        service = self.config.logger_service_cycles
        dma_cycles = self.config.log_dma_bus_cycles
        index = np.arange(n, dtype=np.int64)
        service_end = service * (index + 1)
        slack = cols[:, 0] - service * index
        dma_index = dma_cycles * index
        # addr, value, size (the flags half of that word is 0), timestamp
        records = np.empty((n, 4), "<u4")
        records[:, :3] = cols[:, 1:] & 0xFFFFFFFF
        divider = self.clock._timestamp_divider
        pmt = self.pmt
        slots = pmt._slots
        index_mask = pmt._index_mask
        index_bits = pmt.index_bits
        lt_entries = self.log_table._entries
        modes = self._modes
        absorbing = self._absorbing
        handler = self._fault_handler
        bus = self.bus
        frames = self.memory._frames
        stats = self.stats
        normal = LogMode.NORMAL
        sinks: dict[int, object] = {}
        i = 0
        page = 0
        while i < n:
            while page_ends[page] <= i:
                page += 1
            ppn = int(ppns[i])
            slot = slots.get(ppn & index_mask)
            entry = None
            if slot is not None and slot.tag == ppn >> index_bits:
                log_index = slot.log_index
                entry = lt_entries.get(log_index)
            if (
                entry is None
                or not entry.valid
                or log_index in absorbing
                or modes.get(log_index, normal) is not normal
            ):
                # PMT miss, boundary fault, absorbing log or special mode.
                ready, paddr, value, size = popleft()
                free = self._service_free
                complete = (ready if ready > free else free) + service
                self._service_free = complete
                self._process(paddr, value, size, complete)
                i += 1
                continue
            dest = entry.log_address
            end = min(page_ends[page], i + (PAGE_SIZE - (dest & _PAGE_MASK)) // LOG_RECORD_SIZE)
            m = end - i
            done = service_end[i:end] + np.maximum(
                np.maximum.accumulate(slack[i:end]), self._service_free - service * i
            )
            self._service_free = int(done[-1])
            tail = int((done - dma_index[i:end]).max()) + dma_cycles * i
            busy = bus._busy_until
            bus._busy_until = dma_cycles * m + (tail if tail > busy else busy)
            bus.total_busy_cycles += dma_cycles * m
            bus.transaction_count += m
            pmt.lookup_count += m
            stats.records_logged += m
            records[i:end, 3] = (done // divider) & 0xFFFFFFFF
            payload = records[i:end].tobytes()
            advanced = dest + len(payload)
            entry.log_address = advanced
            if not advanced & _PAGE_MASK:
                entry.valid = False
            frame = frames.get(dest >> _PAGE_SHIFT)
            if frame is not None:
                offset = dest & _PAGE_MASK
                frame.data[offset : offset + len(payload)] = payload
            else:
                self.memory.write_bytes(dest, payload)
            if handler is not None:
                sink = sinks.get(log_index, _UNSET)
                if sink is _UNSET:
                    getlog = getattr(handler, "log_segment_for", None)
                    sink = getlog(log_index) if getlog is not None else None
                    sinks[log_index] = sink
                if sink is None:
                    for record_dest in range(dest, advanced, LOG_RECORD_SIZE):
                        handler.record_written(log_index, record_dest, LOG_RECORD_SIZE)
                else:
                    sink.append_offset += len(payload)
                    sink.records_appended += m
            for _ in range(m):
                popleft()
            i = end

    def _process(self, paddr: int, value: int, size: int, complete_cycle: int) -> None:
        """Run one write through PMT → log table → record FIFO → DMA."""
        handler = self._fault_handler
        log_index = self.pmt.lookup(paddr)
        if log_index is None:
            # Logging fault: missing page-mapping-table entry.
            self.stats.logging_faults += 1
            self.stats.pmt_fault_count += 1
            if handler is None:
                self.stats.records_dropped += 1
                return
            log_index, cycles = handler.pmt_miss(paddr)
            self._service_free += cycles
            sp = probe._ACTIVE
            if sp is not None and sp.logging_fault is not None:
                sp.logging_fault("logger.pmt_fault", complete_cycle, cycles)
            if log_index is None:
                self.stats.records_dropped += 1
                return

        mode = self._modes.get(log_index, LogMode.NORMAL)
        if mode is LogMode.DIRECT_MAPPED:
            self._process_direct(paddr, value, size, log_index, complete_cycle)
            return

        nbytes = LOG_RECORD_SIZE if mode is LogMode.NORMAL else INDEXED_ENTRY_SIZE
        if not self.log_table.is_ready(log_index):
            # Logging fault: log address crossed a page boundary.
            self.stats.logging_faults += 1
            self.stats.boundary_fault_count += 1
            new_addr = None
            if handler is not None:
                new_addr, cycles = handler.log_boundary(log_index)
                self._service_free += cycles
                sp = probe._ACTIVE
                if sp is not None and sp.logging_fault is not None:
                    sp.logging_fault("logger.boundary_fault", complete_cycle, cycles)
            if new_addr is None:
                # Absorb into the default page; records are lost until
                # the kernel supplies a real page (section 3.2).
                if self._default_page_paddr is None:
                    self.stats.records_dropped += 1
                    return
                self._absorbing.add(log_index)
                self.log_table.load(log_index, self._default_page_paddr)
            else:
                self._absorbing.discard(log_index)
                self.log_table.load(log_index, new_addr)

        lost = log_index in self._absorbing
        dest = self.log_table.advance(log_index, nbytes)
        if lost:
            # Keep the default page reusable forever.
            self.log_table.load(log_index, self._default_page_paddr)

        if mode is LogMode.NORMAL:
            payload = encode_record(
                paddr, value, size, self.clock.timestamp(complete_cycle)
            )
        else:  # INDEXED: bare 4-byte value, no address or timestamp.
            payload = (value & 0xFFFFFFFF).to_bytes(4, "little")

        # A crash here loses a record that was latched but not yet DMA'd.
        probe.hit("logger.dma", cycle=complete_cycle)
        dma_done = self.bus.acquire(complete_cycle, self.config.log_dma_bus_cycles)
        sp = probe._ACTIVE
        if sp is not None and sp.logger_dma is not None:
            # hw_ts is the record's own timestamp field, via the one
            # Clock.timestamp definition.
            sp.logger_dma(
                complete_cycle, dma_done, dest, self.clock.timestamp(complete_cycle)
            )
        self.memory.write_bytes(dest, payload)
        if lost:
            self.stats.records_dropped += 1
            if handler is not None:
                handler.record_lost(log_index)
        else:
            self.stats.records_logged += 1
            if handler is not None:
                handler.record_written(log_index, dest, nbytes)

    def _process_direct(
        self, paddr: int, value: int, size: int, log_index: int, complete_cycle: int
    ) -> None:
        """Direct-mapped mode: mirror the value at the same page offset."""
        handler = self._fault_handler
        dest_base = self._direct_map.get(paddr // PAGE_SIZE)
        if dest_base is None:
            self.stats.records_dropped += 1
            return
        dest = dest_base + paddr % PAGE_SIZE
        self.bus.acquire(complete_cycle, self.config.log_dma_bus_cycles)
        self.memory.write(dest, value, size)
        self.stats.records_logged += 1
        if handler is not None:
            handler.record_written(log_index, dest, size)
