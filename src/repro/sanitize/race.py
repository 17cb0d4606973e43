"""TSan-style happens-before detector for logged-write races.

The Logged Virtual Memory design only yields a deterministic,
replayable log if every pair of writes to the same logged page is
ordered by *explicit* synchronization — the bus serializes the cycle in
which each write lands, but if two CPUs race to the same page the
serialization order is an accident of scheduler interleaving, and the
log-record order (hence recovery) stops being a function of the
workload.  This module flags exactly those accidents.

Mechanics (classic vector-clock happens-before, per page rather than
per byte):

* each CPU carries a :class:`~repro.sanitize.vclock.VectorClock`;
  every logged write run ticks the writer's own component;
* each touched page keeps a shadow cell per CPU: the epoch (plus cycle
  and address, for reporting) of that CPU's last write to the page;
* a write races iff some *other* CPU's shadow epoch on the page is not
  covered by the writer's clock — no release/acquire chain ordered the
  two writes;
* happens-before edges come from the machine model: a timewarp message
  send/receive is a release/acquire pair, and a global quiesce (or
  ``suspend_all_until``) joins every clock.

The detector is a :mod:`repro.probe` subscriber (kind ``race``): the
bus, the bulk engine, the machine and the Time Warp kernel emit
``bus_write``/``logged_run``/``global_sync``/``msg_send``/``msg_recv``
behind the spine's one gate, so a run without it pays a single
``is None`` check per site and stays cycle- and log-record-identical
(guarded by ``tests/test_probe_exactness.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import probe
from repro.sanitize.vclock import VectorClock


@dataclass(frozen=True)
class RaceReport:
    """One unsynchronized same-page write pair, oldest conflict first."""

    page: int
    #: (cpu_index, cycle, paddr) of the earlier, un-ordered write
    prev_cpu: int
    prev_cycle: int
    prev_paddr: int
    #: (cpu_index, cycle, paddr) of the racing write
    cpu: int
    cycle: int
    paddr: int

    def __str__(self) -> str:
        return (
            f"log race on page {self.page:#x}: cpu{self.cpu} wrote "
            f"{self.paddr:#x} at cycle {self.cycle} with no "
            f"happens-before edge from cpu{self.prev_cpu}'s write of "
            f"{self.prev_paddr:#x} at cycle {self.prev_cycle}"
        )


class LogRaceDetector:
    """Vector-clock race detector over logged page writes.

    ``page_size`` defaults to the machine's
    :data:`repro.hw.params.PAGE_SIZE`; it is resolved lazily at
    construction so importing this module never drags in the hardware
    package (the hardware package imports *us*).
    """

    def __init__(self, page_size: int | None = None, max_reports: int = 64) -> None:
        if page_size is None:
            from repro.hw.params import PAGE_SIZE

            page_size = PAGE_SIZE
        if page_size & (page_size - 1):
            raise ValueError(f"page_size must be a power of two, got {page_size}")
        self.page_size = page_size
        self._page_shift = page_size.bit_length() - 1
        self.max_reports = max_reports
        #: per-CPU vector clocks
        self._clocks: Dict[int, VectorClock] = {}
        #: running join of every global barrier; a CPU whose first
        #: write happens after a barrier starts from here, so the
        #: barrier orders it after everything the barrier drained.
        self._global: VectorClock = VectorClock()
        #: page -> cpu -> (epoch, cycle, paddr) of that CPU's last write
        self._shadow: Dict[int, Dict[int, Tuple[int, int, int]]] = {}
        #: in-flight release/acquire tokens (message identity -> clock)
        self._messages: Dict[int, VectorClock] = {}
        self.reports: List[RaceReport] = []
        #: total race pairs seen, including ones dropped past max_reports
        self.races_seen = 0
        self.writes_checked = 0

    def _clock(self, cpu: int) -> VectorClock:
        clock = self._clocks.get(cpu)
        if clock is None:
            clock = self._clocks[cpu] = self._global.copy()
        return clock

    # ------------------------------------------------------------------
    # event hooks (spine events from hw/core/timewarp)

    def probes(self) -> dict:
        return {
            "bus_write": self._bus_write,
            "logged_run": self.logged_run,
            "global_sync": self.global_sync,
            "msg_send": self.msg_send,
            "msg_recv": self.msg_recv,
        }

    def _bus_write(self, complete: int, write) -> None:
        if write.log_tag is not None:
            self.logged_run(write.cpu_index, write.paddr, write.size, complete)

    def logged_run(self, cpu: int, paddr: int, nbytes: int, cycle: int) -> None:
        """A CPU wrote ``nbytes`` starting at ``paddr`` on a logged page."""
        if nbytes <= 0:
            return
        self.writes_checked += 1
        clock = self._clock(cpu)
        epoch = clock.tick(cpu)
        first_page = paddr >> self._page_shift
        last_page = (paddr + nbytes - 1) >> self._page_shift
        for page in range(first_page, last_page + 1):
            cells = self._shadow.get(page)
            if cells is None:
                cells = self._shadow[page] = {}
            else:
                for prev_cpu, (prev_epoch, prev_cycle, prev_paddr) in cells.items():
                    if prev_cpu == cpu or clock.covers(prev_cpu, prev_epoch):
                        continue
                    self.races_seen += 1
                    if len(self.reports) < self.max_reports:
                        self.reports.append(
                            RaceReport(
                                page=page,
                                prev_cpu=prev_cpu,
                                prev_cycle=prev_cycle,
                                prev_paddr=prev_paddr,
                                cpu=cpu,
                                cycle=cycle,
                                paddr=paddr,
                            )
                        )
            cells[cpu] = (epoch, cycle, paddr)

    def msg_send(self, cpu: int, token: int) -> None:
        """Release edge: snapshot the sender's clock under ``token``."""
        clock = self._clock(cpu)
        clock.tick(cpu)
        self._messages[token] = clock.copy()

    def msg_recv(self, cpu: int, token: int) -> None:
        """Acquire edge: join the matching send's clock, if any."""
        sent = self._messages.pop(token, None)
        if sent is not None:
            self._clock(cpu).join(sent)

    def global_sync(self) -> None:
        """A machine-wide barrier: every clock joins every other."""
        merged = self._global
        for clock in self._clocks.values():
            merged.join(clock)
        for cpu in self._clocks:
            self._clocks[cpu] = merged.copy()

    # ------------------------------------------------------------------

    def summary(self) -> str:
        head = (
            f"lvm-san race: {self.races_seen} race(s) in "
            f"{self.writes_checked} logged write run(s)"
        )
        lines = [head] + [f"  {report}" for report in self.reports]
        if self.races_seen > len(self.reports):
            lines.append(f"  ... {self.races_seen - len(self.reports)} more")
        return "\n".join(lines)


active, install, uninstall, installed = probe.registry(
    "race", LogRaceDetector, error=RuntimeError
)
