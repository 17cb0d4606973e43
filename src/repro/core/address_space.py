"""Address spaces: virtual addressing, timed access, resetDeferredCopy.

The address space owns the page table and is the *timed* access path:
simulated programs read and write virtual addresses through it, which
performs the functional access on the backing segment and charges the
CPU timing model (ordinary cached access, or write-through for pages of
logged regions, or the on-chip logging path of section 4.6).

``reset_deferred_copy`` is the Table 1 operation
``AddressSpace::resetDeferredCopy(start, end)``: "Undo all
modifications to the deferred-copy destination, i.e., for each memory
address in the given range that is mapped in deferred-copy mode, make
sure that the next read from that address returns the datum from the
deferred-copy source."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import probe
from repro.errors import (
    BindError,
    ProtectionError,
    SegmentError,
    UnmappedAddressError,
)
from repro.hw.cpu import CPU
from repro.hw.memory import Frame
from repro.hw.params import PAGE_SIZE
from repro.core import bulk
from repro.core.deferred_copy import ResetStats, reset_cost_cycles
from repro.core.region import Region

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.machine import Machine

#: Default base of the mapping area when the caller lets the address
#: space choose (bind with virtaddr=0).
DEFAULT_MAP_BASE = 0x1000_0000


@dataclass
class PageTableEntry:
    """One mapped virtual page."""

    vpn: int
    region: Region
    page_index: int
    frame: Frame
    #: the page belongs to a logged region: write-through mode on the
    #: prototype, TLB log tag with the on-chip logger (section 3.2/4.6)
    logged: bool
    log_index: int | None
    #: stores trap to the region's protection handler (section 5.1
    #: related work: page-protect checkpointing inside the VM)
    write_protected: bool = False

    @property
    def base_paddr(self) -> int:
        return self.frame.base_addr


class AddressSpace:
    """A virtual address space (Table 1: ``AddressSpace``)."""

    def __init__(self, machine: "Machine | None" = None) -> None:
        if machine is None:
            from repro.core.context import current_machine

            machine = current_machine()
        self.machine = machine
        self._page_table: dict[int, PageTableEntry] = {}
        self._bindings: list[Region] = []
        self._next_va = DEFAULT_MAP_BASE
        #: software translation cache: vpn -> PTE for pages known to be
        #: mapped, bypassing fault dispatch on the hot path.  Entries
        #: are dropped whenever the mapping or its protection changes
        #: (detach, install_pte, protect/unprotect) — and the write fast
        #: path re-checks ``write_protected`` on the shared PTE object
        #: as a second line of defence.
        self._tc: dict[int, PageTableEntry] = {}

    # ------------------------------------------------------------------
    # Binding bookkeeping (called by Region.bind/unbind)
    # ------------------------------------------------------------------
    def attach(self, region: Region, virtaddr: int = 0) -> int:
        """Reserve the virtual range for ``region``; returns its base.

        No allocator state is touched until the bind has fully
        validated: a rejected bind (alignment or overlap) must not leak
        virtual address space.  Auto-chosen bases are page-rounded so a
        region whose size is not a page multiple cannot leave
        ``_next_va`` misaligned for the next auto bind.
        """
        if virtaddr == 0:
            virtaddr = -(-self._next_va // PAGE_SIZE) * PAGE_SIZE
        if virtaddr % PAGE_SIZE:
            raise BindError("bind address must be page aligned")
        for other in self._bindings:
            if other.base_va is None:
                continue
            if virtaddr < other.base_va + other.size and other.base_va < virtaddr + region.size:
                raise BindError(
                    f"mapping at {virtaddr:#x} overlaps existing region at "
                    f"{other.base_va:#x}"
                )
        self._bindings.append(region)
        self._next_va = max(self._next_va, virtaddr + region.size)
        return virtaddr

    def detach(self, region: Region) -> None:
        """Drop ``region``'s mappings (called by ``Region.unbind``)."""
        if region not in self._bindings:
            raise BindError("region is not bound to this address space")
        self._bindings.remove(region)
        first = region.base_va // PAGE_SIZE
        last = (region.base_va + region.size - 1) // PAGE_SIZE
        for vpn in range(first, last + 1):
            pte = self._page_table.pop(vpn, None)
            self._tc.pop(vpn, None)
            if pte is not None and pte.logged:
                self.machine.logger.pmt.invalidate(pte.base_paddr)

    def regions(self) -> list[Region]:
        """Regions currently bound (in bind order)."""
        return list(self._bindings)

    def region_at(self, vaddr: int) -> Region:
        """Return the region mapped at ``vaddr``."""
        for region in self._bindings:
            if region.base_va <= vaddr < region.base_va + region.size:
                return region
        raise UnmappedAddressError(f"no region mapped at {vaddr:#x}")

    # ------------------------------------------------------------------
    # Page table (used by the kernel)
    # ------------------------------------------------------------------
    def pte(self, vpn: int) -> PageTableEntry | None:
        return self._page_table.get(vpn)

    def install_pte(self, pte: PageTableEntry) -> None:
        self._page_table[pte.vpn] = pte
        # A (re)installed PTE supersedes whatever the fast path cached.
        self._tc.pop(pte.vpn, None)

    def ptes_for_region(self, region: Region) -> list[PageTableEntry]:
        """All present mappings belonging to ``region``."""
        return [p for p in self._page_table.values() if p.region is region]

    # ------------------------------------------------------------------
    # Timed access path
    # ------------------------------------------------------------------
    def _resolve(self, cpu: CPU, vaddr: int, size: int) -> PageTableEntry:
        if vaddr % PAGE_SIZE + size > PAGE_SIZE:
            raise SegmentError("access crosses a page boundary")
        sp = probe._ACTIVE
        if sp is not None:
            # Every _resolve call is a translation-cache miss on the
            # fast access path (or a forced re-check of a protected PTE).
            sp.inc("core.tc_misses")
        vpn = vaddr // PAGE_SIZE
        pte = self._page_table.get(vpn)
        if pte is None:
            pte = self.machine.kernel.page_fault(cpu, self, vaddr)
        return pte

    def write(self, cpu: CPU, vaddr: int, value: int, size: int = 4) -> None:
        """Timed store of ``value`` at ``vaddr``."""
        pte = self._tc.get(vaddr // PAGE_SIZE)
        if pte is None or pte.write_protected:
            pte = self._resolve(cpu, vaddr, size)
            if pte.write_protected:
                # Write-protection trap: the kernel dispatches to the
                # region's protection handler, which may unprotect the
                # page; the store then continues (or faults for real).
                self.machine.kernel.protection_fault(cpu, self, vaddr, pte)
                if pte.write_protected:
                    raise ProtectionError(
                        f"store to write-protected page at {vaddr:#x}"
                    )
            self._tc[vaddr // PAGE_SIZE] = pte
        elif vaddr % PAGE_SIZE + size > PAGE_SIZE:
            raise SegmentError("access crosses a page boundary")
        region = pte.region
        offset = pte.page_index * PAGE_SIZE + vaddr % PAGE_SIZE
        segment = region.segment
        paddr = pte.base_paddr + vaddr % PAGE_SIZE

        machine = self.machine
        if pte.logged and machine.on_chip_logger is not None:
            log = region.log_segment
            old_value = segment.read(offset, size) if log.extended_records else 0
            segment.write(offset, value, size)
            cpu.cached_write(paddr)
            machine.on_chip_logger.logged_write(
                cpu, pte.log_index, vaddr, value, size, old_value
            )
        elif pte.logged:
            segment.write(offset, value, size)
            cpu.write_through(paddr, value, size, log_tag=pte.log_index)
        else:
            segment.write(offset, value, size)
            cpu.cached_write(paddr)

    def read(self, cpu: CPU, vaddr: int, size: int = 4) -> int:
        """Timed load from ``vaddr``."""
        pte = self._tc.get(vaddr // PAGE_SIZE)
        if pte is None:
            pte = self._resolve(cpu, vaddr, size)
            self._tc[vaddr // PAGE_SIZE] = pte
        elif vaddr % PAGE_SIZE + size > PAGE_SIZE:
            raise SegmentError("access crosses a page boundary")
        offset = pte.page_index * PAGE_SIZE + vaddr % PAGE_SIZE
        value = pte.region.segment.read(offset, size)
        cpu.cached_read(pte.base_paddr + vaddr % PAGE_SIZE)
        return value

    def write_bytes(self, cpu: CPU, vaddr: int, data: bytes) -> None:
        """Timed byte-string store, word at a time.

        This is the reference (slow) loop; :meth:`write_block` charges
        identical cycles in one call per page-run.
        """
        for off, size in bulk.access_steps(vaddr, len(data)):
            value = int.from_bytes(data[off : off + size], "little")
            self.write(cpu, vaddr + off, value, size)

    def write_words(self, cpu: CPU, writes) -> None:
        """Timed scatter store: exactly ``for va, v, s in writes:
        self.write(cpu, va, v, s)``, one bulk-engine call per page run."""
        bulk.write_words(self, cpu, writes)

    def read_bytes(self, cpu: CPU, vaddr: int, length: int) -> bytes:
        """Timed byte-string load, word at a time.

        This is the reference (slow) loop; :meth:`read_block` charges
        identical cycles in one call per page-run.
        """
        out = bytearray()
        for off, size in bulk.access_steps(vaddr, length):
            value = self.read(cpu, vaddr + off, size)
            out += value.to_bytes(size, "little")
        return bytes(out)

    def write_block(self, cpu: CPU, vaddr: int, data: bytes) -> None:
        """Timed byte-string store through the bulk-access engine.

        Cycle-for-cycle identical to :meth:`write_bytes`, but processes
        each page-run in one Python call.
        """
        bulk.write_block(self, cpu, vaddr, data)

    def read_block(self, cpu: CPU, vaddr: int, length: int) -> bytes:
        """Timed byte-string load through the bulk-access engine.

        Cycle-for-cycle identical to :meth:`read_bytes`, but processes
        each page-run in one Python call.
        """
        return bulk.read_block(self, cpu, vaddr, length)

    # ------------------------------------------------------------------
    # Write protection (section 5.1 related work, integrated per the
    # paper's note that extending the implementation with Li & Appel
    # style page-protect checkpointing "would be relatively
    # straightforward")
    # ------------------------------------------------------------------
    def protect_range(self, start: int, end: int, cpu: CPU | None = None) -> int:
        """Write-protect whole pages covering ``[start, end)``.

        Returns the number of pages protected.  Costs a page-table
        update per page (an mprotect-style sweep).
        """
        if cpu is None:
            cpu = self.machine.cpu(0)
        pages = 0
        for vpn in range(start // PAGE_SIZE, -(-end // PAGE_SIZE)):
            vaddr = vpn * PAGE_SIZE
            region = self.region_at(vaddr)
            page_index = (vaddr - region.base_va) // PAGE_SIZE
            region.protected_pages.add(page_index)
            pte = self._page_table.get(vpn)
            if pte is not None:
                pte.write_protected = True
            # Drop the fast-path entry so stores take the full
            # resolve-and-trap path again.
            self._tc.pop(vpn, None)
            pages += 1
        cpu.compute(20 * pages)
        return pages

    def unprotect_range(self, start: int, end: int, cpu: CPU | None = None) -> int:
        """Remove write protection from pages covering ``[start, end)``."""
        if cpu is None:
            cpu = self.machine.cpu(0)
        pages = 0
        for vpn in range(start // PAGE_SIZE, -(-end // PAGE_SIZE)):
            vaddr = vpn * PAGE_SIZE
            region = self.region_at(vaddr)
            page_index = (vaddr - region.base_va) // PAGE_SIZE
            region.protected_pages.discard(page_index)
            pte = self._page_table.get(vpn)
            if pte is not None:
                pte.write_protected = False
            self._tc.pop(vpn, None)
            pages += 1
        cpu.compute(20 * pages)
        return pages

    # ------------------------------------------------------------------
    # Deferred copy (Table 1: ``AddressSpace::resetDeferredCopy``)
    # ------------------------------------------------------------------
    def reset_deferred_copy(
        self, start: int, end: int, cpu: CPU | None = None
    ) -> ResetStats:
        """Undo modifications to deferred-copy mappings in ``[start, end)``.

        Charges the reset cost model (section 3.3) on ``cpu`` (default:
        CPU 0) and returns the work statistics.
        """
        if cpu is None:
            cpu = self.machine.cpu(0)
        start_cycle = cpu.now
        total = ResetStats()
        for region in self._bindings:
            seg = region.segment
            if seg.source is None:
                continue
            lo = max(start, region.base_va)
            hi = min(end, region.base_va + region.size)
            if lo >= hi:
                continue
            stats = seg.reset_deferred_copy(lo - region.base_va, hi - region.base_va)
            total = total + stats
        cpu.compute(reset_cost_cycles(self.machine.config, total))
        sp = probe._ACTIVE
        if sp is not None:
            sp.deferred_copy_reset(start_cycle, cpu.now, cpu.index, total)
        return total

    # Table-1-style alias.
    resetDeferredCopy = reset_deferred_copy
