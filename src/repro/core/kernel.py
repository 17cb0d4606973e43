"""The virtual-memory kernel extensions (section 3.2).

This is the software half of the prototype: the V++ Cache Kernel's
virtual memory system "augmented to allow a log segment to be
associated with a virtual memory region", with the fault handling the
paper describes:

* On a page fault in a logged region, the handler runs the normal
  page-fault path, puts the page in write-through mode, and loads the
  logger's log-table and page-mapping-table entries.
* On a logging fault it either reloads a missing page-mapping-table
  entry or supplies the next page of the log segment; if the user has
  not provided one, records are absorbed into a default page and lost.
* On a logger-overload interrupt it suspends all processes that might
  generate log data until the FIFOs drain.

The logger raises these interrupts by calling :meth:`Kernel.pmt_miss`,
:meth:`Kernel.log_boundary` and :meth:`Kernel.overload` directly (the
:class:`~repro.hw.logger.LoggingFaultHandler` protocol); its
``LoggerStats`` counts each one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import probe
from repro.errors import LoggingError, UnsupportedOperationError
from repro.hw.cpu import CPU
from repro.hw.logger import LogMode
from repro.hw.params import PAGE_SIZE
from repro.core.address_space import AddressSpace, PageTableEntry
from repro.core.log_segment import LogSegment
from repro.core.region import Region

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.machine import Machine


class KernelStats:
    """Kernel-level event counters."""

    def __init__(self) -> None:
        self.page_faults = 0
        self.logged_page_faults = 0
        self.direct_mapped_updates = 0
        self.protection_faults = 0

    def snapshot(self) -> dict[str, int]:
        return dict(self.__dict__)


class Kernel:
    """OS layer booted on a :class:`~repro.hw.machine.Machine`."""

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self.config = machine.config
        self.stats = KernelStats()
        machine.kernel = self

        #: active bus-logger logs: log-table index -> (log segment, region)
        self._logs: dict[int, tuple[LogSegment, Region]] = {}
        #: physical page number -> log-table index (for PMT reloads)
        self._page_log_map: dict[int, int] = {}
        #: on-chip logger descriptor allocation
        self._next_onchip_index = 0

        # Default absorption page for logs with no next page available.
        default_frame = machine.memory.allocate_frame()
        machine.logger.set_default_page(default_frame.base_addr)
        machine.logger.attach_fault_handler(self)

    # ------------------------------------------------------------------
    # Page faults
    # ------------------------------------------------------------------
    def page_fault(self, cpu: CPU, aspace: AddressSpace, vaddr: int) -> PageTableEntry:
        """Handle a page fault at ``vaddr``; returns the installed PTE.

        "On a page fault for a page that belongs to a logged region, the
        page fault handler first executes the normal page fault handling
        code...  It then puts the on-chip data cache in write-through
        mode for the logged page...  Then, if there is no entry for the
        page's log in the logger's log table, the page fault handler
        loads an entry.  Finally, it loads an entry in the logger's page
        mapping table." (section 3.2)
        """
        self.stats.page_faults += 1
        sp = probe._ACTIVE
        fault_start = cpu.now if sp is not None else 0
        region = aspace.region_at(vaddr)
        page_index = (vaddr - region.base_va) // PAGE_SIZE
        page = region.segment.page(page_index)
        logged = region.is_logged and region.log_index is not None
        cpu.compute(self.config.page_fault_cycles)
        pte = PageTableEntry(
            vpn=vaddr // PAGE_SIZE,
            region=region,
            page_index=page_index,
            frame=page.frame,
            logged=logged,
            log_index=region.log_index,
            write_protected=page_index in region.protected_pages,
        )
        if logged:
            self.stats.logged_page_faults += 1
            cpu.compute(self.config.logged_page_fault_extra_cycles)
            self._load_logger_entries(region, pte)
        aspace.install_pte(pte)
        if sp is not None:
            sp.span(
                "kernel",
                "kernel.page_fault",
                fault_start,
                cpu.now,
                cpu.index,
                {"vaddr": vaddr, "logged": logged},
            )
        return pte

    def protection_fault(self, cpu: CPU, aspace, vaddr: int, pte) -> None:
        """Dispatch a write-protection trap to the region's handler.

        Charges the full software trap cost (section 5.1: "a write
        fault ... would take over 3,000 cycles on current processors");
        the handler typically copies the page aside and unprotects it
        (Li & Appel checkpointing).
        """
        self.stats.protection_faults += 1
        sp = probe._ACTIVE
        trap_start = cpu.now if sp is not None else 0
        cpu.compute(self.config.protection_trap_cycles)
        region = pte.region
        handler = region.protection_handler
        if handler is not None:
            handler(region, vaddr)
            if pte.page_index not in region.protected_pages:
                pte.write_protected = False
        if sp is not None:
            sp.protection_trap(trap_start, cpu.now, cpu.index, vaddr)

    def _load_logger_entries(self, region: Region, pte: PageTableEntry) -> None:
        """Load PMT (and direct-map) entries for a logged page."""
        if self.machine.on_chip_logger is not None:
            return  # the TLB entry itself carries the log index
        logger = self.machine.logger
        paddr = pte.base_paddr
        self._page_log_map[paddr // PAGE_SIZE] = region.log_index
        evicted = logger.pmt.load(paddr, region.log_index)
        if evicted is not None:
            # Direct-mapped table: the displaced page faults on next use.
            pass
        if region.log_mode is LogMode.DIRECT_MAPPED:
            log = region.log_segment
            dest = log.page(pte.page_index).frame.base_addr
            logger.load_direct_mapping(paddr, dest)
        elif not logger.log_table.is_ready(region.log_index):
            addr = region.log_segment.hw_append_paddr()
            if addr is not None:
                logger.log_table.load(region.log_index, addr)

    # ------------------------------------------------------------------
    # Region logging attach/detach (called by Region.log/unlog/bind)
    # ------------------------------------------------------------------
    def attach_region_log(self, region: Region) -> None:
        """Activate logging for a bound region."""
        log = region.log_segment
        if log is None:
            raise LoggingError("region has no log segment")
        if self.machine.on_chip_logger is not None:
            index = self._next_onchip_index
            self._next_onchip_index += 1
            region.log_index = index
            self.machine.on_chip_logger.register_log(
                index, log.make_sink(), extended=log.extended_records
            )
        else:
            if log.extended_records:
                raise UnsupportedOperationError(
                    "extended records require the on-chip logger (section 4.6)"
                )
            if region.segment.logged_binding_count > 0:
                raise UnsupportedOperationError(
                    "the prototype logger supports a single logged region "
                    "per segment (section 3.1.2); use the on-chip logger "
                    "for per-region logs"
                )
            region.segment.logged_binding_count += 1
            index = self.machine.logger.log_table.allocate_index()
            region.log_index = index
            self._logs[index] = (log, region)
            log.attached_kernel = self
            log.attached_index = index
            self.machine.logger.set_log_mode(index, region.log_mode)
            if region.log_mode is not LogMode.DIRECT_MAPPED:
                addr = log.hw_append_paddr()
                if addr is not None:
                    self.machine.logger.log_table.load(index, addr)
        # Upgrade any already-present mappings of the region.
        if region.address_space is not None:
            for pte in region.address_space.ptes_for_region(region):
                pte.logged = True
                pte.log_index = region.log_index
                self._load_logger_entries(region, pte)
        sp = probe._ACTIVE
        if sp is not None:
            sp.log_watched(log)

    def detach_region_log(self, region: Region, cpu: CPU | None = None) -> None:
        """Deactivate logging for a region (dynamic disable, unbind,
        or context-switch unload).

        The region keeps its log segment; only the hardware state (log
        table entry, PMT entries, page write-through mode) is unloaded,
        so :meth:`attach_region_log` can re-activate it later.  When
        ``cpu`` is given, that CPU pays for waiting on in-flight
        records; otherwise the machine is quiesced (setup paths).
        """
        index = region.log_index
        if index is None:
            return
        if cpu is not None:
            self.machine.sync(cpu)
        else:
            self.machine.quiesce()  # let in-flight records land first
        if self.machine.on_chip_logger is not None:
            self.machine.on_chip_logger.unregister_log(index)
        else:
            self.machine.logger.unload_log(index)
            self._logs.pop(index, None)
            region.log_segment.attached_kernel = None
            region.log_segment.attached_index = None
            stale = [p for p, i in self._page_log_map.items() if i == index]
            for ppn in stale:
                del self._page_log_map[ppn]
            region.segment.logged_binding_count -= 1
        if region.address_space is not None:
            for pte in region.address_space.ptes_for_region(region):
                pte.logged = False
                pte.log_index = None
        region.log_index = None

    # ------------------------------------------------------------------
    # Context switching (section 3.1.2)
    # ------------------------------------------------------------------
    def context_switch(self, process) -> None:
        """Switch ``process`` onto its CPU, multiplexing logger state.

        "The logger could be extended to use the processor number ...
        to provide per-processor logs.  A context switch could then
        unload logs from the logger tables as necessary to implement
        per-region logs." (section 3.1.2)  The outgoing process's
        active logs are unloaded from the logger tables and the
        incoming process's logs are loaded, so two processes can each
        log the same segment to their own log — just never at the same
        instant on the prototype hardware.
        """
        cpu = process.cpu
        old_aspace = cpu.address_space
        new_aspace = process.address_space()
        cpu.compute(self.config.context_switch_cycles)
        if old_aspace is not None and old_aspace is not new_aspace:
            for region in old_aspace.regions():
                if region.is_logged and region.log_index is not None:
                    self.detach_region_log(region, cpu=cpu)
        cpu.address_space = new_aspace
        self.machine.current_process = process
        for region in new_aspace.regions():
            if region.is_logged and region.log_index is None:
                self.attach_region_log(region)

    def log_rewound(self, log: LogSegment) -> None:
        """A log's append point moved backwards (rollback rewind).

        Reload the hardware log-table entry so the logger appends from
        the new tail.
        """
        index = log.attached_index
        if index is None:
            return
        addr = log.hw_append_paddr()
        if addr is not None:
            self.machine.logger.resume_log(index, addr)
        sp = probe._ACTIVE
        if sp is not None:
            sp.log_rewound(log)

    def log_extended(self, log: LogSegment) -> None:
        """The user extended a log; resume it if it was absorbing.

        "The kernel then can efficiently resume the log writing after
        the logger crosses a page boundary." (section 3.2)
        """
        index = log.attached_index
        if index is None:
            return
        logger = self.machine.logger
        if not logger.log_table.is_ready(index) or logger.is_absorbing(index):
            addr = log.hw_append_paddr()
            if addr is not None:
                logger.resume_log(index, addr)

    # ------------------------------------------------------------------
    # LoggingFaultHandler protocol (called by the hardware logger)
    # ------------------------------------------------------------------
    def pmt_miss(self, paddr: int) -> tuple[int | None, int]:
        """Reload a missing/evicted page-mapping-table entry."""
        index = self._page_log_map.get(paddr // PAGE_SIZE)
        if index is None:
            return None, self.config.logging_fault_cycles
        self.machine.logger.pmt.load(paddr, index)
        return index, self.config.logging_fault_cycles

    def log_boundary(self, log_index: int) -> tuple[int | None, int]:
        """Supply the next page of a log segment (or None → default page)."""
        entry = self._logs.get(log_index)
        if entry is None:
            return None, self.config.logging_fault_cycles
        return entry[0].hw_append_paddr(), self.config.logging_fault_cycles

    def overload(self, drain_complete_cycle: int) -> None:
        """Suspend all CPUs until the FIFOs have drained (section 3.1.3)."""
        resume = drain_complete_cycle + self.config.overload_suspend_cycles
        sp = probe._ACTIVE
        if sp is not None:
            sp.instant("kernel", "kernel.overload_suspend", drain_complete_cycle)
        self.machine.suspend_all_until(resume)

    def record_written(self, log_index: int, paddr: int, nbytes: int) -> None:
        entry = self._logs.get(log_index)
        if entry is None:
            return
        log, region = entry
        if region.log_mode is LogMode.DIRECT_MAPPED:
            self.stats.direct_mapped_updates += 1
        else:
            log.note_append(nbytes)

    def record_lost(self, log_index: int) -> None:
        entry = self._logs.get(log_index)
        if entry is not None:
            entry[0].note_lost()

    def log_segment_for(self, log_index: int) -> LogSegment | None:
        """Batching hook: let the logger account appends inline.

        Only NORMAL-mode logs whose ``note_append`` is the stock
        two-increment accounting qualify; anything else keeps the
        per-record :meth:`record_written` callback.
        """
        entry = self._logs.get(log_index)
        if entry is None:
            return None
        log, region = entry
        if region.log_mode is not LogMode.NORMAL:
            return None
        if type(log).note_append is not LogSegment.note_append:
            return None
        return log
