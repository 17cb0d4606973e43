"""The simulated ParaDiGM machine.

Wires together the CPUs, the shared system bus, physical memory and the
bus-snooping logger (Figure 4 of the paper): the bus hands each logged
write to the logger, and the logger calls the kernel's handlers
directly.  The operating-system layer (:mod:`repro.core.kernel`) boots
on top of a :class:`Machine` and attaches itself as those handlers.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.hw.bus import SystemBus
from repro.hw.clock import Clock
from repro.hw.cache import L2Cache
from repro.hw.cpu import CPU
from repro.hw.logger import Logger
from repro.hw.memory import PhysicalMemory
from repro.hw.params import PROTOTYPE, MachineConfig
from repro.hw.tlb_logger import OnChipLogger
from repro import probe


class Machine:
    """A configured, powered-on machine (no OS yet).

    The machine exposes :attr:`kernel` as the attachment point for the
    OS layer; hardware components call kernel services only through the
    narrow handler protocols, so this package has no dependency on the
    OS implementation.
    """

    def __init__(self, config: MachineConfig | None = None) -> None:
        self.config = config or PROTOTYPE
        self.clock = Clock(self.config.timestamp_divider)
        self.memory = PhysicalMemory(self.config.num_frames)
        self.bus = SystemBus()
        self.cpus = [
            CPU(i, self.config, self.bus, self.clock)
            for i in range(self.config.num_cpus)
        ]
        #: optional shared second-level cache model (section 4.1's 4 MB
        #: L2; by default experiments are assumed to fit it)
        self.l2: L2Cache | None = None
        if self.config.model_l2:
            self.l2 = L2Cache(size_bytes=self.config.l2_bytes)
            for cpu in self.cpus:
                cpu.l2 = self.l2
        self.logger = Logger(self.config, self.memory, self.bus, self.clock)
        self.on_chip_logger: OnChipLogger | None = None
        if self.config.on_chip_logger:
            # The next-generation design (section 4.6) logs inside the
            # CPU's VM unit; nothing snoops the bus.
            self.on_chip_logger = OnChipLogger(
                self.config, self.memory, self.bus, self.clock
            )
        else:
            # The prototype logger snoops the system bus (section 3.1).
            self.bus.logger = self.logger
        #: set by the OS layer at boot
        self.kernel = None

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def time(self) -> int:
        """Machine time: the furthest point any component has reached."""
        t = self.clock.now
        for cpu in self.cpus:
            t = max(t, cpu.now)
        return t

    def cpu(self, index: int = 0) -> CPU:
        """Return CPU ``index``."""
        if not 0 <= index < len(self.cpus):
            raise ConfigError(f"no CPU {index} (machine has {len(self.cpus)})")
        return self.cpus[index]

    def suspend_all_until(self, cycle: int) -> None:
        """Suspend every CPU until ``cycle``.

        This is the kernel's response to a logger-overload interrupt:
        "suspending all processes that might be generating log data
        until the FIFOs drain" (section 3.1.3).
        """
        for cpu in self.cpus:
            cpu.suspend_until(cycle)
        self.clock.advance_to(cycle)
        sp = probe._ACTIVE
        if sp is not None and sp.global_sync is not None:
            # Every CPU resumes from the same kernel-driven barrier:
            # writes before the suspension happen-before writes after.
            sp.global_sync()

    def sync(self, cpu: CPU) -> int:
        """Make ``cpu`` wait until the logger pipeline is idle.

        The honest mid-run synchronisation: before reading a log (for
        rollback, CULT, or transaction commit) the kernel must wait for
        in-flight records to land, and that waiting costs the caller
        real cycles — unlike :meth:`quiesce`, which settles the machine
        outside any timed measurement.  Returns the sync-complete cycle.
        """
        cpu.drain_write_buffer()
        # flush() processes the whole backlog and returns the cycle the
        # pipeline actually finishes — including stalls from logging
        # faults taken along the way, which a static estimate would
        # miss.  The CPU waits until then.
        settle = self.logger.flush()
        cpu.suspend_until(settle)
        self.clock.advance_to(max(settle, cpu.now))
        return cpu.now

    def quiesce(self) -> int:
        """Drain all write buffers and the logger pipeline.

        Returns the machine time after everything has settled.  Used at
        the end of timed experiment phases so in-flight log records are
        accounted for.
        """
        for cpu in self.cpus:
            cpu.drain_write_buffer()
        settle = self.logger.flush()
        self.clock.advance_to(settle)
        sp = probe._ACTIVE
        if sp is not None and sp.global_sync is not None:
            # Quiesce is a machine-wide barrier; everything before it
            # happens-before everything after.
            sp.global_sync()
        return self.time()
