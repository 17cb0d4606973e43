"""Processes (Table 1: ``thisProcess()->addressSpace()``).

A process couples an address space with the CPU it runs on.  Simulated
programs act *as* a process: they issue timed reads, writes and compute
through it, and the costs land on the process's CPU.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hw.cpu import CPU
from repro.core.address_space import AddressSpace

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.machine import Machine


class Process:
    """A simulated process."""

    _next_pid = 1

    def __init__(
        self,
        machine: "Machine | None" = None,
        cpu_index: int = 0,
        address_space: AddressSpace | None = None,
    ) -> None:
        if machine is None:
            from repro.core.context import current_machine

            machine = current_machine()
        self.machine = machine
        self.pid = Process._next_pid
        Process._next_pid += 1
        self.cpu: CPU = machine.cpu(cpu_index)
        self._address_space = address_space or AddressSpace(machine)
        self.cpu.address_space = self._address_space

    def address_space(self) -> AddressSpace:
        """The process's address space (Table 1 style accessor)."""
        return self._address_space

    # Table-1-style alias.
    addressSpace = address_space

    # ------------------------------------------------------------------
    # Program-level timed operations
    # ------------------------------------------------------------------
    def compute(self, cycles: int) -> None:
        """Run ``cycles`` of computation on this process's CPU."""
        self.cpu.compute(cycles)

    def write(self, vaddr: int, value: int, size: int = 4) -> None:
        """Timed store through this process's address space."""
        self._address_space.write(self.cpu, vaddr, value, size)

    def write_words(self, writes) -> None:
        """Timed scatter store of ``(vaddr, value, size)`` triples —
        cycle-identical to calling :meth:`write` on each in order."""
        self._address_space.write_words(self.cpu, writes)

    def read(self, vaddr: int, size: int = 4) -> int:
        """Timed load through this process's address space."""
        return self._address_space.read(self.cpu, vaddr, size)

    def write_bytes(self, vaddr: int, data: bytes) -> None:
        self._address_space.write_bytes(self.cpu, vaddr, data)

    def read_bytes(self, vaddr: int, length: int) -> bytes:
        return self._address_space.read_bytes(self.cpu, vaddr, length)

    def write_block(self, vaddr: int, data: bytes) -> None:
        """Timed bulk store — cycle-identical to :meth:`write_bytes`,
        processed one page-run per call by the bulk-access engine."""
        self._address_space.write_block(self.cpu, vaddr, data)

    def read_block(self, vaddr: int, length: int) -> bytes:
        """Timed bulk load — cycle-identical to :meth:`read_bytes`."""
        return self._address_space.read_block(self.cpu, vaddr, length)

    @property
    def now(self) -> int:
        """This process's CPU-local cycle time."""
        return self.cpu.now


def this_process() -> Process:
    """The current process on the current machine (Table 1)."""
    from repro.core.context import current_machine

    return current_machine().current_process


# Table-1-style alias.
thisProcess = this_process


def create_process(
    machine: "Machine | None" = None, cpu_index: int = 0
) -> Process:
    """Create an additional process (own address space) on ``cpu_index``."""
    if machine is None:
        from repro.core.context import current_machine

        machine = current_machine()
    proc = Process(machine, cpu_index=cpu_index)
    machine.processes.append(proc)
    return proc
