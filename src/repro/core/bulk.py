"""The bulk-access engine: page-run timed memory access.

Driving the simulator word-at-a-time through ``AddressSpace.write`` →
``CPU.write_through`` → ``Logger.snoop_write`` costs a dozen Python
calls per simulated store, and every headline experiment issues millions
of them.  This module provides :func:`write_block` / :func:`read_block`,
which process a whole page-run in one call while charging *bit-identical*
cycle totals: the write buffer, the L1 tag array, the bus serialisation,
and the logger's per-word snoop/drain are all advanced in the same order
and by the same amounts as the word-at-a-time loop (the cycle-exactness
guard test asserts this on randomized workloads).  :func:`write_words`
is the scatter form (a Time Warp event's state writes), one fused call
per run of writes to one page.

Structure (the rr/Virtuoso lesson — batch the common case, trap on the
rare one): the fused loops handle mapped, unprotected pages with the
default cache/logger configuration; anything else — page fault,
protection trap, PMT miss, log-page boundary, FIFO overload, absorbing
log, special log modes, a modeled L2 — falls back to the exact generic
code path at the exact point the word-at-a-time loop would have hit it.
A scatter store's page run takes the word loop when it has fewer than
three words or a word spanning a page, or when its page is not in the
translation cache, write-protected, unlogged or on-chip-logged; the
whole call does while a probe subscriber is attached.  The fused loop
queues the logger's write-FIFO entries in its one format, ``(ready,
paddr, value, size)``, so either path drains what the other queued.

The engine never changes what is simulated, only how fast the
simulation runs.
"""

from __future__ import annotations

import struct
from functools import partial
from itertools import count as _icount, groupby, repeat as _irepeat
from typing import TYPE_CHECKING

from repro import probe
from repro.errors import ProtectionError
from repro.hw.logger import LogMode
from repro.hw.params import LOG_RECORD_SIZE, PAGE_SIZE
from repro.hw.records import RECORD_STRUCT

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.cpu import CPU
    from repro.hw.machine import Machine
    from repro.core.address_space import AddressSpace

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_PAGE_MASK = PAGE_SIZE - 1
_INFINITY = float("inf")
#: Shorter scatter-store page runs take the word loop: for one or two
#: words the fused loop's set-up costs more than it saves (DESIGN.md §5.1).
_FUSED_MIN_WORDS = 3


def _access_plan(va: int, chunk: bytes, paddr_base: int):
    """``(paddr, size, value)`` triples plus the access count.

    A word-aligned run (the overwhelmingly common case) decodes every
    value with one ``struct.unpack`` and iterates a C-level ``zip``; the
    general case goes through :func:`access_steps`.
    """
    n = len(chunk)
    if not (va | n) & 3:
        values = struct.unpack("<%dI" % (n >> 2), chunk)
        return zip(_icount(paddr_base, 4), _irepeat(4), values), n >> 2
    steps = access_steps(va, n)
    return [
        (paddr_base + off, size, int.from_bytes(chunk[off : off + size], "little"))
        for off, size in steps
    ], len(steps)


def access_steps(vaddr: int, length: int) -> list[tuple[int, int]]:
    """The word-at-a-time access plan for ``length`` bytes at ``vaddr``.

    Returns ``(offset, size)`` pairs covering the range with the widest
    naturally-aligned access at each position: 4 bytes when the address
    is word aligned and at least 4 bytes remain, else 2 bytes when
    halfword aligned with at least 2 remaining, else 1 byte.  This is
    the single definition of the stepping used by both the slow
    ``write_bytes``/``read_bytes`` loops and the bulk engine, so the two
    paths always agree on the per-word charges.
    """
    steps = []
    pos = 0
    while pos < length:
        addr = vaddr + pos
        remaining = length - pos
        if not addr & 3 and remaining >= 4:
            size = 4
        elif not addr & 1 and remaining >= 2:
            size = 2
        else:
            size = 1
        steps.append((pos, size))
        pos += size
    return steps


def write_block(aspace: "AddressSpace", cpu: "CPU", vaddr: int, data: bytes) -> None:
    """Timed store of ``data`` at ``vaddr``, one call per page-run."""
    if not isinstance(data, bytes):
        data = bytes(data)
    machine = aspace.machine
    total = len(data)
    pos = 0
    while pos < total:
        va = vaddr + pos
        run = PAGE_SIZE - (va & _PAGE_MASK)
        if run > total - pos:
            run = total - pos
        _write_run(aspace, cpu, machine, va, data[pos : pos + run])
        pos += run


def write_words(aspace: "AddressSpace", cpu: "CPU", writes) -> None:
    """Timed scatter store of ``(vaddr, value, size)`` triples, charged
    exactly as ``for va, v, s in writes: aspace.write(cpu, va, v, s)``.
    With a probe subscriber attached the word loop runs, because
    ``logged_run`` reports one contiguous span per call."""
    if probe._ACTIVE is not None or len(writes) < _FUSED_MIN_WORDS:
        for va, value, size in writes:
            aspace.write(cpu, va, value, size)
        return
    machine = aspace.machine
    for vpn, run in groupby(writes, lambda triple: triple[0] >> _PAGE_SHIFT):
        group = list(run)
        page_va = vpn << _PAGE_SHIFT
        pte = aspace._tc.get(vpn)
        if (
            len(group) >= _FUSED_MIN_WORDS
            and pte is not None
            and not pte.write_protected
            and pte.logged
            and machine.on_chip_logger is None
            and max([va + size for va, _value, size in group]) <= page_va + PAGE_SIZE
        ):
            paddr = pte.base_paddr - page_va
            offset = pte.page_index * PAGE_SIZE - page_va
            items = [(paddr + va, size, value) for va, value, size in group]
            offsets = [(offset + va, value, size) for va, value, size in group]
            write = partial(pte.region.segment.write_words, offsets)
            if _write_run_bus_logged(cpu, machine, (items, len(items)), write, None):
                continue
        for va, value, size in group:
            aspace.write(cpu, va, value, size)


def read_block(aspace: "AddressSpace", cpu: "CPU", vaddr: int, length: int) -> bytes:
    """Timed load of ``length`` bytes at ``vaddr``, one call per page-run."""
    out = []
    pos = 0
    while pos < length:
        va = vaddr + pos
        run = PAGE_SIZE - (va & _PAGE_MASK)
        if run > length - pos:
            run = length - pos
        out.append(_read_run(aspace, cpu, va, run))
        pos += run
    return b"".join(out)


# ----------------------------------------------------------------------
# Per-page-run write paths
# ----------------------------------------------------------------------
def _write_run(
    aspace: "AddressSpace", cpu: "CPU", machine: "Machine", va: int, chunk: bytes
) -> None:
    vpn = va >> _PAGE_SHIFT
    pte = aspace._tc.get(vpn)
    if pte is None or pte.write_protected:
        # Same sequence (and charges) as the first word of the slow
        # loop: resolve (possibly faulting the page in), then take the
        # protection trap if the page is write-protected.
        pte = aspace._resolve(cpu, va, 1)
        if pte.write_protected:
            machine.kernel.protection_fault(cpu, aspace, va, pte)
            if pte.write_protected:
                raise ProtectionError(
                    f"store to write-protected page at {va:#x}"
                )
        aspace._tc[vpn] = pte
    in_page = va & _PAGE_MASK
    seg_offset = pte.page_index * PAGE_SIZE + in_page
    paddr_base = pte.base_paddr + in_page
    segment = pte.region.segment
    if pte.logged:
        if machine.on_chip_logger is not None:
            steps = access_steps(va, len(chunk))
            _write_run_onchip(
                cpu, machine, pte, segment, va, chunk, steps, seg_offset, paddr_base
            )
        elif _write_run_bus_logged(
            cpu, machine, _access_plan(va, chunk, paddr_base),
            partial(segment.write_bytes, seg_offset, chunk), (paddr_base, len(chunk)),
        ):
            sp = probe._ACTIVE
            if sp is not None and sp.inc is not None:
                sp.inc("core.bulk.write_runs_fast")
        else:
            # A modeled L2, an installed fault plan or a detailed
            # tracer: use the word-at-a-time path, which is always exact.
            sp = probe._ACTIVE
            if sp is not None and sp.inc is not None:
                sp.inc("core.bulk.write_runs_slow")
            for off, size in access_steps(va, len(chunk)):
                value = int.from_bytes(chunk[off : off + size], "little")
                aspace.write(cpu, va + off, value, size)
    else:
        _write_run_unlogged(cpu, segment, chunk, va, seg_offset, paddr_base)


def _write_run_unlogged(cpu, segment, chunk, va, seg_offset, paddr_base):
    """Ordinary cached stores: one functional write + fused L1 timing."""
    segment.write_bytes(seg_offset, chunk)
    _cached_run(
        cpu, va, len(chunk), paddr_base,
        cpu.config.cached_write_cycles, "stores", cpu.cached_write,
    )


def _cached_run(cpu, va, n, paddr_base, hit_cycles, counter, per_access):
    """Charge the L1 timing of a page run of ``n`` cached bytes.

    The stores of :func:`_write_run_unlogged` and the loads of
    :func:`_read_run` differ only in ``hit_cycles``, the ``cpu.stats``
    ``counter`` they add to, and ``per_access``, the ``CPU`` method
    that charges one access when an L2 is modelled.
    """
    if not (va | n) & 3:
        addrs = range(paddr_base, paddr_base + n, 4)
        count = n >> 2
    else:
        steps = access_steps(va, n)
        addrs = [paddr_base + off for off, _size in steps]
        count = len(steps)
    if cpu.l2 is not None:
        for paddr in addrs:
            per_access(paddr)
        return
    # Suspension is applied once up front: nothing in this run can move
    # _resume_at, so per-step application (what _advance does) degenerates
    # to this single catch-up.
    if cpu._resume_at > cpu._now:
        cpu.stats.suspend_cycles += cpu._resume_at - cpu._now
        cpu._now = cpu._resume_at
    l1 = cpu.l1
    tags = l1._tags
    num_lines = l1.num_lines
    line_size = l1.line_size
    fill_cycles = cpu.config.l2_hit_cycles
    now = cpu._now
    hits = 0
    misses = 0
    last_line = -1
    for paddr in addrs:
        line = paddr // line_size
        if line == last_line:
            # Same line as the previous access, and nothing between the
            # two could have evicted it: a guaranteed hit.
            hits += 1
            now += hit_cycles
            continue
        last_line = line
        index = line % num_lines
        if tags.get(index) == line:
            hits += 1
            now += hit_cycles
        else:
            misses += 1
            tags[index] = line
            now += fill_cycles
    cpu._now = now
    setattr(cpu.stats, counter, getattr(cpu.stats, counter) + count)
    l1.hits += hits
    l1.misses += misses
    cpu.clock.advance_to(now)


def _write_run_onchip(
    cpu, machine, pte, segment, va, chunk, steps, seg_offset, paddr_base
):
    """On-chip logger (section 4.6): hoist the functional access, keep
    the per-word timing calls (cache + record emission) in order."""
    on_chip = machine.on_chip_logger
    log = pte.region.log_segment
    extended = log is not None and log.extended_records
    old_values = None
    if extended:
        # The steps never overlap, so reading every pre-write value
        # before the single functional write matches reading each one
        # immediately before its word's write.
        old_values = [segment.read(seg_offset + off, size) for off, size in steps]
    segment.write_bytes(seg_offset, chunk)
    log_index = pte.log_index
    for i, (off, size) in enumerate(steps):
        value = int.from_bytes(chunk[off : off + size], "little")
        cpu.cached_write(paddr_base + off)
        on_chip.logged_write(
            cpu,
            log_index,
            va + off,
            value,
            size,
            old_values[i] if extended else 0,
        )


def _write_run_bus_logged(cpu, machine, plan, write, span):
    """Prototype bus logger: the fully fused write-through loop.

    ``plan`` is ``(items, count)`` for the run's ``(paddr, size, value)``
    stores on one logged page, ``write()`` their functional write, and
    ``span`` the ``(paddr, length)`` reported to a probe subscriber
    (None from a scatter store, which never runs with one attached).

    Inlines, per word, the exact sequence of ``CPU.write_through`` →
    ``SystemBus.write_transaction`` → ``Logger.snoop_write`` (drain then
    push), including the logger's NORMAL-mode record processing and the
    overload interrupt's FIFO flush.  Words are queued as the write
    FIFO's one entry format, ``(ready, paddr, value, size)``, so entries
    left queued when the run ends need no conversion and an older entry
    from the bus snoop drains the same way.  Any record the fused drain
    cannot handle exactly (PMT miss, invalid log-table entry, absorbing
    log, special mode) is routed through ``Logger._process`` with the
    shared state synchronised, so faults and their cycle charges land
    exactly as in the slow path.

    Returns False (without touching any state) when the configuration
    has features the fused loop does not model — the caller then uses
    the word-at-a-time path.
    """
    logger = machine.logger
    bus = cpu.bus
    if cpu.l2 is not None:
        return False
    sp = probe._ACTIVE
    if sp is not None and sp.detail:
        # The fused loop bypasses the instrumented FIFO/logger paths:
        # fault plans need every record to visit the injection sites,
        # and per-word trace spans live on the generic paths.
        return False
    if sp is not None and sp.logged_run is not None:
        # The fused loop never calls SystemBus.write_transaction, so
        # report the whole run as one logged write (same page span,
        # same writer) before taking it.
        sp.logged_run(cpu.index, span[0], span[1], cpu._now)

    write()

    config = cpu.config
    clock = cpu.clock
    stats = cpu.stats
    l1 = cpu.l1
    tags = l1._tags
    num_lines = l1.num_lines
    line_size = l1.line_size
    hit_cycles = config.cached_write_cycles
    fill_cycles = config.l2_hit_cycles
    bus_write_cycles = config.write_through_bus_cycles
    depth = config.write_buffer_depth
    buf = cpu._write_buffer

    fifo = logger.write_fifo
    entries = fifo._entries
    capacity = fifo.capacity
    threshold = fifo.threshold
    service = config.logger_service_cycles
    logger_stats = logger.stats
    pmt = logger.pmt
    slots = pmt._slots
    index_mask = pmt._index_mask
    index_bits = pmt.index_bits
    lt_entries = logger.log_table._entries
    modes = logger._modes
    absorbing = logger._absorbing
    handler = logger._fault_handler
    frames = machine.memory._frames
    memory_write = machine.memory.write_bytes
    divider = clock._timestamp_divider
    dma_cycles = config.log_dma_bus_cycles
    pack = RECORD_STRUCT.pack
    normal = LogMode.NORMAL
    record_size = LOG_RECORD_SIZE

    now = cpu._now
    resume_at = cpu._resume_at
    busy = bus._busy_until
    free = logger._service_free
    suspend_cycles = 0
    stalls = 0
    hits = 0
    misses = 0
    bus_busy = 0
    transactions = 0
    logged = 0
    lookups = 0
    high_water = fifo.high_water_mark
    last_line = -1
    # Record-processing caches.  Consecutive records come from the same
    # source page, log, and log destination page, so the PMT slot, the
    # log-table entry, the destination frame, and the accounting sink
    # are resolved once per change.  Every fallback into generic code
    # invalidates them (the kernel may reload any of these tables).
    cached_ppn = -1
    cached_log = -1
    cached_entry = None
    cached_sink = None
    cached_fpn = -1
    cached_frame_data = None
    # Cycle at which the FIFO head finishes service; the per-word drain
    # check is a single comparison against this.
    if entries:
        head_ready = entries[0][0]
        head_done = (head_ready if head_ready > free else free) + service
    else:
        head_done = _INFINITY

    def drain(limit):
        """Service queued records: ``Logger.drain``/``flush`` fused.

        ``limit`` is the bus cycle up to which service may complete
        (None = flush everything).  It repeats ``Logger._drain_fast`` on
        purpose: calling one shared loop measured ~16% slower
        ``bulk_copy`` p50 (DESIGN.md §5.1).
        """
        nonlocal free, busy, bus_busy, transactions, logged, lookups
        nonlocal cached_ppn, cached_log, cached_entry, cached_sink
        nonlocal cached_fpn, cached_frame_data, head_done
        while entries:
            ready, wpaddr, wvalue, wsize = entries[0]
            start = ready if ready > free else free
            done = start + service
            if limit is not None and done > limit:
                head_done = done
                return
            entries.popleft()
            free = done
            ppn = wpaddr >> _PAGE_SHIFT
            if ppn != cached_ppn:
                slot = slots.get(ppn & index_mask)
                if slot is not None and slot.tag == ppn >> index_bits:
                    log_index = slot.log_index
                    if log_index != cached_log:
                        entry = lt_entries.get(log_index)
                        if (
                            entry is not None
                            and log_index not in absorbing
                            and modes.get(log_index, normal) is normal
                        ):
                            cached_log = log_index
                            cached_entry = entry
                            getlog = getattr(handler, "log_segment_for", None)
                            cached_sink = getlog(log_index) if getlog is not None else None
                    if log_index == cached_log:
                        cached_ppn = ppn
            entry = cached_entry
            if ppn != cached_ppn or not entry.valid:
                # PMT miss, absorbing log, special mode, or a boundary
                # fault (the log address crossed a page): generic path
                # with the shared state synchronised.
                logger._service_free = free
                bus._busy_until = busy
                logger._process(wpaddr, wvalue, wsize, done)
                free = logger._service_free
                busy = bus._busy_until
                cached_ppn = cached_log = cached_fpn = -1
                continue
            lookups += 1
            dest = entry.log_address
            advanced = dest + record_size
            entry.log_address = advanced
            if not advanced & _PAGE_MASK:
                entry.valid = False
            payload = pack(
                wpaddr & 0xFFFFFFFF,
                wvalue & 0xFFFFFFFF,
                wsize,
                0,
                (done // divider) & 0xFFFFFFFF,
            )
            dma_start = done if done > busy else busy
            busy = dma_start + dma_cycles
            bus_busy += dma_cycles
            transactions += 1
            fpn = dest >> _PAGE_SHIFT
            if fpn != cached_fpn:
                frame = frames.get(fpn)
                if frame is not None:
                    cached_fpn = fpn
                    cached_frame_data = frame.data
            if fpn == cached_fpn:
                frame_off = dest & _PAGE_MASK
                cached_frame_data[frame_off : frame_off + record_size] = payload
            else:
                memory_write(dest, payload)
            logged += 1
            if cached_sink is not None:
                cached_sink.append_offset += record_size
                cached_sink.records_appended += 1
            elif handler is not None:
                handler.record_written(cached_log, dest, record_size)
        head_done = _INFINITY

    items, count = plan
    complete = now
    for paddr, size, value in items:
        # --- CPU.write_through front half
        if resume_at > now:
            suspend_cycles += resume_at - now
            now = resume_at
        while buf and buf[0] <= now:
            buf.popleft()
        if len(buf) >= depth:
            stalls += 1
            now = buf.popleft()
        line = paddr // line_size
        if line == last_line:
            hits += 1
            now += hit_cycles
        else:
            last_line = line
            index = line % num_lines
            if tags.get(index) == line:
                hits += 1
                now += hit_cycles
            else:
                misses += 1
                tags[index] = line
                now += fill_cycles
        # --- SystemBus.write_transaction (acquire)
        start = now if now > busy else busy
        complete = start + bus_write_cycles
        busy = complete
        bus_busy += bus_write_cycles
        transactions += 1
        # --- Logger.snoop_write: drain everything serviceable by `complete`
        if head_done <= complete:
            drain(complete)
        # --- Logger.snoop_write: push (PushResult semantics inlined)
        if len(entries) >= capacity:
            fifo.overflow_count += 1
            logger_stats.records_dropped += 1
        else:
            was_empty = not entries
            entries.append((complete, paddr, value, size))
            occupancy = len(entries)
            if was_empty:
                head_done = (complete if complete > free else free) + service
            if occupancy > high_water:
                high_water = occupancy
            if occupancy > threshold:
                # Overload interrupt: Logger._handle_overload with the
                # flush done by the fused drain, then the kernel's
                # suspension via the generic handler.
                logger_stats.overload_events += 1
                drain(None)
                drain_complete = free
                fifo.high_water_mark = high_water
                logger._service_free = free
                bus._busy_until = busy
                logger_stats.records_logged += logged
                logged = 0
                pmt.lookup_count += lookups
                lookups = 0
                bus.total_busy_cycles += bus_busy
                bus_busy = 0
                bus.transaction_count += transactions
                transactions = 0
                cpu._now = now
                clock.advance_to(complete)
                if handler is not None:
                    handler.overload(
                        drain_complete if drain_complete > complete else complete
                    )
                clock.advance_to(drain_complete)
                free = logger._service_free
                busy = bus._busy_until
                resume_at = cpu._resume_at
                high_water = fifo.high_water_mark
                last_line = -1
                cached_ppn = cached_log = cached_fpn = -1
        # --- CPU.write_through back half
        buf.append(complete)
        if resume_at > now:
            suspend_cycles += resume_at - now
            now = resume_at
    cpu._now = now
    bus._busy_until = busy
    logger._service_free = free
    stats.stores += count
    stats.write_through_stores += count
    stats.write_buffer_stalls += stalls
    stats.suspend_cycles += suspend_cycles
    l1.hits += hits
    l1.misses += misses
    bus.total_busy_cycles += bus_busy
    bus.transaction_count += transactions
    fifo.high_water_mark = high_water
    logger_stats.records_logged += logged
    pmt.lookup_count += lookups
    clock.advance_to(complete if complete > now else now)
    return True


# ----------------------------------------------------------------------
# Per-page-run read path
# ----------------------------------------------------------------------
def _read_run(aspace: "AddressSpace", cpu: "CPU", va: int, run: int) -> bytes:
    vpn = va >> _PAGE_SHIFT
    pte = aspace._tc.get(vpn)
    if pte is None:
        pte = aspace._resolve(cpu, va, 1)
        aspace._tc[vpn] = pte
    in_page = va & _PAGE_MASK
    seg_offset = pte.page_index * PAGE_SIZE + in_page
    paddr_base = pte.base_paddr + in_page
    data = pte.region.segment.read_bytes(seg_offset, run)
    _cached_run(
        cpu, va, run, paddr_base, cpu.config.l1_hit_cycles, "loads", cpu.cached_read
    )
    return data
