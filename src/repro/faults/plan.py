"""Deterministic fault injection for the durability stack.

The paper's headline application (RLVM, section 2.5) is *recoverable*
virtual memory: committed state must survive crashes at any instant.
This module provides the crash instants.  A :class:`FaultPlan` is a
deterministic, seed-reproducible description of exactly one injected
fault: a crash keyed on a named injection site's Nth hit, the Nth RAM
disk write, the Nth hardware-FIFO push, or a cycle count — plus
optional torn-write and write-reordering behaviour for the durable
store, in the spirit of rr's chaos mode (deterministic schedules that
*look* adversarial but replay exactly).

A plan is the ``faults`` subscriber of the probe spine
(:mod:`repro.probe`): instrumented modules reach it only through spine
events (``probe.hit(site, ...)`` at the named sites, ``disk_write``,
``disk_barrier`` and ``fifo_push`` on the device and FIFO paths), so an
unfaulted, uninstrumented run pays the spine's one ``is None`` check.
A plan sets the spine's ``detail`` flag: every record takes the generic
paths, where the sites are.

A triggered fault raises :class:`CrashPoint`.  The exception carries a
snapshot of *durable* state only (RAM disk bytes, segment disk images)
taken at the instant of the crash; everything volatile — mapped
segments, the hardware log, buffered no-flush commits, the in-memory
WAL tail — is deliberately absent, exactly as a power failure would
leave it.  Recovery must rebuild from the snapshot alone (see
:mod:`repro.faults.checker`).
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable

from repro import probe
from repro.errors import ConfigError

#: Site hit once per durable RAM disk write (supports modes
#: ``before`` / ``torn`` / ``after``).
SITE_DISK_WRITE = "ramdisk.write"

#: Site hit once per hardware-FIFO push (supports ``before`` and the
#: non-crashing ``drop`` mode, which loses the pushed record the way a
#: FIFO overflow would).
SITE_FIFO_PUSH = "fifo.push"


class CrashPoint(Exception):
    """A simulated power failure injected by a :class:`FaultPlan`.

    Attributes:
        site: injection-site name where the crash fired.
        seq: 1-based hit count of that site when it fired.
        snapshot: durable-state snapshot captured at the instant of the
            crash (whatever the plan's snapshot source returned), or
            None when no source was registered.
        plan_repr: ``repr`` of the firing plan — paste it back into a
            test to replay the exact same crash.
        metrics: metrics snapshot at the crash cycle when an
            :mod:`repro.obs` Observability was installed, else None —
            the machine's counters as of the instant the power failed.
        flight: the tail of the :mod:`repro.obs.flight` recorder ring
            (cycle-stamped ``(cycle, kind, a, b)`` events leading up to
            the crash) when one was installed, else None.
    """

    def __init__(
        self,
        site: str,
        seq: int,
        snapshot=None,
        plan_repr: str = "",
        metrics=None,
        flight=None,
    ):
        super().__init__(f"injected crash at site {site!r}, hit #{seq}")
        self.site = site
        self.seq = seq
        self.snapshot = snapshot
        self.plan_repr = plan_repr
        self.metrics = metrics
        self.flight = flight


@dataclass(frozen=True)
class CrashSpec:
    """One deterministic trigger: crash at the ``nth`` hit of ``site``.

    ``mode`` refines what the crash leaves behind:

    * ``"before"`` — crash before the site's effect (nothing durable).
    * ``"torn"`` — the site's *partial* effect becomes durable first: a
      seed-chosen prefix of a RAM disk write, or a WAL entry's header
      without its payload.
    * ``"after"`` — the site's full effect becomes durable, then crash
      (RAM disk writes only).
    * ``"drop"`` — no crash; the FIFO push is dropped as an overflow
      would drop it (``fifo.push`` only).  Used to prove the checker
      catches real corruption.
    """

    site: str
    nth: int = 1
    mode: str = "before"


class FaultPlan:
    """A deterministic, replayable fault-injection plan.

    At most one fault fires per plan (``fired`` latches); the same plan
    object run over the same deterministic workload produces the same
    crash, byte for byte.  ``repr(plan)`` reconstructs the plan.
    """

    #: Every record must visit the injection sites on the generic
    #: paths, so the fused fast loops stand aside while a plan is on.
    detail = True

    def __init__(
        self,
        seed: int = 0,
        crash: CrashSpec | None = None,
        crash_at_cycle: int | None = None,
        reorder_window: int = 0,
    ) -> None:
        if crash is not None and crash.nth < 1:
            raise ConfigError("CrashSpec.nth is 1-based")
        self.seed = seed
        self.crash = crash
        self.crash_at_cycle = crash_at_cycle
        self.reorder_window = reorder_window
        #: per-site hit counts (the count-the-sites pass reads these)
        self.counts: Counter[str] = Counter()
        #: sites observed with a torn-capable partial effect
        self.torn_capable: set[str] = set()
        self.fired = False
        self._rng = random.Random(seed)
        #: unflushed-window entries: (disk, offset, pre-write bytes)
        self._window: deque = deque()
        self._snapshot_fn: Callable[[], object] | None = None
        self._observers: list[Callable[[str, int], None]] = []

    def __repr__(self) -> str:  # replayable: eval() with this module's names
        return (
            f"FaultPlan(seed={self.seed}, crash={self.crash!r}, "
            f"crash_at_cycle={self.crash_at_cycle!r}, "
            f"reorder_window={self.reorder_window})"
        )

    @classmethod
    def from_repr(cls, plan_repr: str) -> "FaultPlan":
        """Reconstruct a *fresh* plan from a replayable ``repr(plan)``.

        The inverse of :meth:`__repr__`: sweep failure artifacts and
        :attr:`CrashPoint.plan_repr` carry these strings so any crash
        can be re-driven later (``repro.replay.crashpoint``).  The plan
        comes back unfired with zeroed hit counts — replaying needs a
        plan that has not latched.  Evaluation resolves only the two
        plan constructors, so an artifact line cannot run arbitrary
        code.
        """
        namespace = {"FaultPlan": cls, "CrashSpec": CrashSpec}
        try:
            plan = eval(plan_repr, {"__builtins__": {}}, namespace)
        except Exception as exc:
            raise ConfigError(
                f"unparseable FaultPlan repr: {plan_repr!r}"
            ) from exc
        if not isinstance(plan, cls):
            raise ConfigError(
                f"repr did not evaluate to a FaultPlan: {plan_repr!r}"
            )
        return plan

    # ------------------------------------------------------------------
    # Constructors for the four trigger kinds
    # ------------------------------------------------------------------
    @classmethod
    def at_site(cls, site: str, nth: int = 1, mode: str = "before", **kw) -> "FaultPlan":
        return cls(crash=CrashSpec(site, nth, mode), **kw)

    @classmethod
    def at_disk_write(cls, nth: int = 1, mode: str = "before", **kw) -> "FaultPlan":
        return cls(crash=CrashSpec(SITE_DISK_WRITE, nth, mode), **kw)

    @classmethod
    def at_fifo_push(cls, nth: int = 1, mode: str = "before", **kw) -> "FaultPlan":
        return cls(crash=CrashSpec(SITE_FIFO_PUSH, nth, mode), **kw)

    @classmethod
    def at_cycle(cls, cycle: int, **kw) -> "FaultPlan":
        return cls(crash_at_cycle=cycle, **kw)

    # ------------------------------------------------------------------
    # Harness configuration
    # ------------------------------------------------------------------
    def snapshot_source(self, fn: Callable[[], object]) -> None:
        """Register the durable-state capture run at the crash instant."""
        self._snapshot_fn = fn

    def add_observer(self, fn: Callable[[str, int], None]) -> None:
        """Register ``fn(site, hit_count)`` called on every site hit
        (before any crash decision — observers see the hit that fires)."""
        self._observers.append(fn)

    # ------------------------------------------------------------------
    # Instrumentation entry points (probe-spine events)
    # ------------------------------------------------------------------
    def probes(self) -> dict:
        return {
            "hit": self.hit,
            "disk_write": self.disk_write,
            "disk_barrier": self.disk_barrier,
            "fifo_push": self.fifo_push,
        }

    def hit(
        self,
        site: str,
        cycle: int | None = None,
        partial: Callable[[], None] | None = None,
    ) -> None:
        """Record a hit of a named site; crash if the plan says so.

        ``partial`` makes the site torn-capable: when a ``torn``-mode
        crash fires here, ``partial()`` runs first to make the site's
        half-done effect durable (e.g. a WAL entry header without its
        payload).
        """
        n = self._note(site)
        sp = probe._ACTIVE
        if sp is not None:
            sp.fault_hit(cycle if cycle is not None else 0, site, n)
        if partial is not None:
            self.torn_capable.add(site)
        if self.fired:
            return
        spec = self.crash
        if spec is not None and spec.site == site and spec.nth == n:
            if spec.mode == "torn" and partial is not None:
                # The partial effect reached stable storage, so every
                # older write in the device window must have too.
                self._window.clear()
                partial()
            self._crash(site, n)
        self._check_cycle(site, n, cycle)

    def disk_write(self, disk, cpu, offset: int, data: bytes) -> None:
        """Hook called by :meth:`RamDisk.write` before applying bytes.

        Handles the three disk-write crash modes and the unflushed
        reorder window.  Returns normally when the write should proceed.
        """
        n = self._note(SITE_DISK_WRITE)
        if not self.fired:
            spec = self.crash
            if spec is not None and spec.site == SITE_DISK_WRITE and spec.nth == n:
                if spec.mode == "torn" and len(data) > 1:
                    # A seed-chosen strict prefix reaches the platter —
                    # and since this newest write did, every older write
                    # still in the device window must have as well.
                    self._window.clear()
                    cut = self._rng.randrange(1, len(data))
                    disk._data[offset : offset + cut] = data[:cut]
                elif spec.mode == "after":
                    self._window.clear()
                    disk._data[offset : offset + len(data)] = data
                self._crash(SITE_DISK_WRITE, n)
            self._check_cycle(
                SITE_DISK_WRITE, n, cpu.now if cpu is not None else None
            )
        if self.reorder_window > 0:
            old = bytes(disk._data[offset : offset + len(data)])
            self._window.append((disk, offset, old))
            while len(self._window) > self.reorder_window:
                self._window.popleft()  # flushed: can no longer be lost

    def disk_barrier(self, disk) -> None:
        """Hook called by :meth:`LogDevice.barrier` and by every timed
        :meth:`LogDevice.read`: every write ``disk`` has already
        accepted becomes stable — its entries leave the unflushed
        reorder window, so a later crash can no longer revert them.

        A timed read is a barrier because otherwise truncation could
        ingest log entries via its read-back, apply them to the segment
        images, and then have the very same entries reverted out of the
        device window at the crash, leaving recovery to replay a
        *partial* old log over newer images.  Requiring reads to
        stabilise the bytes they return is the weakest device
        assumption under which the libraries' read-then-apply-then-reset
        protocol stays sound.
        """
        if self._window:
            self._window = deque(e for e in self._window if e[0] is not disk)

    def fifo_push(self, fifo, cycle: int | None = None) -> bool:
        """Hook called by :meth:`HardwareFifo.push` before queueing.

        Returns True when the plan forces the entry to be dropped (the
        injected record-loss-on-overflow fault); may raise
        :class:`CrashPoint` instead.
        """
        n = self._note(SITE_FIFO_PUSH)
        if self.fired:
            return False
        spec = self.crash
        if spec is not None and spec.site == SITE_FIFO_PUSH and spec.nth == n:
            if spec.mode == "drop":
                self.fired = True
                return True
            self._crash(SITE_FIFO_PUSH, n)
        self._check_cycle(SITE_FIFO_PUSH, n, cycle)
        return False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _note(self, site: str) -> int:
        self.counts[site] += 1
        n = self.counts[site]
        for obs in self._observers:
            obs(site, n)
        return n

    def _check_cycle(self, site: str, n: int, cycle: int | None) -> None:
        if (
            self.crash_at_cycle is not None
            and cycle is not None
            and cycle >= self.crash_at_cycle
        ):
            self._crash(site, n)

    def _crash(self, site: str, n: int) -> None:
        """Power fails *now*: lose a reordered subset of the unflushed
        window, capture durable state, raise."""
        self.fired = True
        # Writes still in the device's unflushed window may not have
        # reached stable storage; which ones survive is arbitrary (write
        # reordering) but seed-deterministic here.  Coherence constraint:
        # a lost write must not clobber bytes a *surviving newer* write
        # covers — a device cannot persist the later write to a sector
        # yet lose the earlier one beneath it.
        surviving: list[tuple[object, int, int]] = []
        for disk, offset, old in reversed(self._window):
            if self._rng.random() < 0.5:
                for i, byte in enumerate(old):
                    pos = offset + i
                    if any(
                        d is disk and s <= pos < e for d, s, e in surviving
                    ):
                        continue
                    disk._data[pos] = byte
            else:
                surviving.append((disk, offset, offset + len(old)))
        snapshot = self._snapshot_fn() if self._snapshot_fn is not None else None
        state: dict = {}
        sp = probe._ACTIVE
        if sp is not None:
            sp.fault_crash(site, n)
            state = sp.crash_state()
        raise CrashPoint(
            site,
            n,
            snapshot,
            repr(self),
            state.get("metrics"),
            state.get("flight"),
        )


#: The installed plan is the spine's ``faults`` subscriber.
active, install, uninstall, installed = probe.registry("faults", FaultPlan)
