"""Metrics, spans and the cycle profiler as one probe-spine subscriber.

An :class:`Observability` attaches to :mod:`repro.probe` as the
``obs`` subscriber; instrumented sites never see it, they emit typed
probe events and :meth:`Observability.probes` maps the ones it cares
about to counters, histograms and trace spans.

Cycle exactness under tracing: the two fused fast loops
(``bulk._write_run_bus_logged`` and ``Logger._drain_fast``) bypass the
per-record generic code where trace spans live.  An Observability with
a tracer sets the spine's ``detail`` flag, as an attached fault plan
does, and they fall back to the exact generic paths, so an enabled
trace observes a run that is cycle-identical to the untraced one.  Metrics-only observability keeps the fast paths (its counters
are polled or batched) and is also cycle-identical; the overhead bench
guards both properties.

Serve request histograms are folded, not observed: the causal
tracker's ``request_done`` event hands over each finished request's
:class:`~repro.obs.causal.TraceContext`, which is appended to
:attr:`Observability.requests`, and a polled source rebuilds
``serve.request_cycles`` and ``serve.stage_cycles.<stage>`` from that
list at every snapshot.  The run pays one append per request; the
snapshot pays the fold.
"""

from __future__ import annotations

from repro import probe
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profiler import CycleProfiler
from repro.obs.trace import TID_BUS, TID_LOGGER, Tracer


#: Library stage (``rvm.commit``, ``rlvm.flush``, ...) -> its counter.
_LIBRARY_COUNTERS = {
    "commit": "rvm.commits",
    "abort": "rvm.aborts",
    "flush": "rvm.flushes",
    "truncate": "rvm.truncates",
    "set_range": "rvm.set_ranges",
}


def _fold_requests(requests: list, reg: MetricsRegistry) -> None:
    """Polled source: rebuild the serve request histograms from the
    finished contexts, replacing the last snapshot's, so repeated
    snapshots agree."""
    if not requests:
        return
    hists = reg._histograms
    request = hists["serve.request_cycles"] = Histogram("serve.request_cycles")
    stages: dict[str, Histogram] = {}
    for ctx in requests:
        for stage, cycles in ctx.stages.items():
            h = stages.get(stage)
            if h is None:
                name = f"serve.stage_cycles.{stage}"
                h = stages[stage] = hists[name] = Histogram(name)
            h.observe(cycles)
        request.observe(ctx.total)


class Observability:
    """A metrics registry plus optional tracer and profiler."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        profiler: CycleProfiler | None = None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.profiler = profiler
        #: per-tid stack recording whether each open span emitted a 'B'
        #: (its category was enabled) — a disabled inner span's end must
        #: not close an enabled outer span.
        self._traced: dict[int, list[bool]] = {}
        #: finished serve request contexts (``request_done``), ack order
        requests: list = []
        self.requests = requests
        # A closure over the list, not a bound method: a registry that
        # referred back to this object would keep it for the cyclic GC.
        self.metrics.add_source(lambda reg: _fold_requests(requests, reg))

    # ------------------------------------------------------------------
    # Span interface: tracer (category-gated) + profiler together
    # ------------------------------------------------------------------
    def span_begin(self, cat: str, name: str, ts: int, tid: int = 0) -> None:
        tracer = self.tracer
        if tracer is not None:
            emitted = cat in tracer.categories
            if emitted:
                tracer.begin(cat, name, ts, tid)
            self._traced.setdefault(tid, []).append(emitted)
        if self.profiler is not None:
            self.profiler.push(name, ts, tid)

    def span_end(self, ts: int, tid: int = 0, args=None) -> None:
        tracer = self.tracer
        if tracer is not None:
            stack = self._traced.get(tid)
            if stack and stack.pop():
                tracer.end(ts, tid, args)
        if self.profiler is not None:
            self.profiler.pop(ts, tid)

    def span(self, cat, name, start, end, tid=0, args=None) -> None:
        """A closed (leaf) span: one 'X' event + profiler interval."""
        tracer = self.tracer
        if tracer is not None and cat in tracer.categories:
            tracer.complete(cat, name, start, end - start, tid, args)
        if self.profiler is not None:
            self.profiler.record(name, start, end, tid)

    def instant(self, cat, name, ts, tid=0, args=None) -> None:
        tracer = self.tracer
        if tracer is not None and cat in tracer.categories:
            tracer.instant(cat, name, ts, tid, args)

    def flow_start(self, cat, name, ts, tid=0, flow_id=0) -> None:
        tracer = self.tracer
        if tracer is not None and cat in tracer.categories:
            tracer.flow_start(cat, name, ts, tid, flow_id)

    def flow_step(self, cat, name, ts, tid=0, flow_id=0) -> None:
        tracer = self.tracer
        if tracer is not None and cat in tracer.categories:
            tracer.flow_step(cat, name, ts, tid, flow_id)

    def flow_end(self, cat, name, ts, tid=0, flow_id=0) -> None:
        tracer = self.tracer
        if tracer is not None and cat in tracer.categories:
            tracer.flow_end(cat, name, ts, tid, flow_id)

    def counter_track(self, cat, name, ts, value) -> None:
        tracer = self.tracer
        if tracer is not None and cat in tracer.categories:
            tracer.counter(cat, name, ts, value)

    def emit_counter_tracks(self, ts: int) -> None:
        """Sample every registry counter onto its trace counter track."""
        tracer = self.tracer
        if tracer is None or "metrics" not in tracer.categories:
            return
        for name, counter in self.metrics._counters.items():
            tracer.counter("metrics", name, ts, counter.value)

    # ------------------------------------------------------------------
    # Probe-spine subscription
    # ------------------------------------------------------------------
    @property
    def detail(self) -> bool:
        """Per-record spans live on the generic paths: a tracer needs them."""
        return self.tracer is not None

    def probes(self) -> dict:
        metrics = self.metrics
        handlers = {
            "inc": metrics.inc,
            "observe": metrics.observe,
            "set_gauge": metrics.set_gauge,
            "bus_txn": self._bus_txn,
            "logger_overload": self._logger_overload,
            "logging_fault": self._logging_fault,
            "protection_trap": self._protection_trap,
            "deferred_copy_reset": self._deferred_copy_reset,
            "tw_event": self._tw_event,
            "tw_rollback": self._tw_rollback,
            "tw_gvt": self._tw_gvt,
            "stage_close": self._stage_close,
            "acked": self._acked,
            "request_done": self.requests.append,
        }
        # Trace-only events are not subscribed at all without a tracer
        # (nor spans without a tracer or profiler to feed).
        if self.tracer is not None or self.profiler is not None:
            handlers.update(
                span=self.span, span_begin=self.span_begin, span_end=self.span_end
            )
        if self.tracer is not None:
            handlers.update(
                instant=self.instant,
                flow_start=self.flow_start,
                flow_step=self.flow_step,
                flow_end=self.flow_end,
                counter_track=self.counter_track,
                logger_dma=self._logger_dma,
            )
        return handlers

    def crash_state(self) -> dict:
        """The metrics snapshot a CrashPoint carries."""
        return {"metrics": self.metrics.snapshot()}

    def _bus_txn(self, request: int, start: int, bus_cycles: int) -> None:
        # Contention = cycles the requester waited for the bus.
        if start > request:
            self.metrics.inc("hw.bus.wait_cycles", start - request)
        tracer = self.tracer
        if tracer is not None and "bus" in tracer.categories:
            tracer.complete("bus", "bus.txn", start, bus_cycles, TID_BUS)

    def _logger_overload(self, now: int, drain_complete: int) -> None:
        self.metrics.inc("hw.logger.overload_drains")
        self.span(
            "logger", "logger.overload_drain", now, max(now, drain_complete), TID_LOGGER
        )

    def _logging_fault(self, name: str, cycle: int, stall_cycles: int) -> None:
        # Fault service stalls the whole pipeline (the FIFO backs up
        # behind it) — the paper's "logging fault" penalty.
        self.metrics.inc("hw.logger.stall_cycles", stall_cycles)
        self.instant("logger", name, cycle, TID_LOGGER)

    def _logger_dma(self, start: int, done: int, dest: int, hw_ts: int) -> None:
        tracer = self.tracer  # bound only when there is one
        if "logger" in tracer.categories:
            tracer.complete(
                "logger", "logger.dma", start, done - start, TID_LOGGER,
                {"dest": dest, "hw_ts": hw_ts},
            )

    def _protection_trap(self, start: int, now: int, tid: int, vaddr: int) -> None:
        self.metrics.inc("kernel.protection_traps")
        self.span("kernel", "kernel.protection_trap", start, now, tid, {"vaddr": vaddr})

    def _deferred_copy_reset(self, start: int, now: int, tid: int, stats) -> None:
        self.metrics.inc("core.deferred_copy_resets")
        self.metrics.inc("core.deferred_copy_dirty_pages", stats.dirty_pages)
        self.span("vm", "vm.reset_deferred_copy", start, now, tid, {
            "pages_scanned": stats.pages_scanned,
            "dirty_pages": stats.dirty_pages,
            "dirty_lines": stats.dirty_lines,
        })

    def _tw_event(self, start: int, now: int, tid: int, event, sends: int) -> None:
        self.metrics.inc("tw.events")
        self.span("timewarp", "tw.event", start, now, tid, {
            "vt": event.recv_time, "obj": event.dest_obj, "sends": sends,
        })

    def _tw_rollback(
        self, start: int, now: int, tid: int, vt: int, undone: int, antimessages: int
    ) -> None:
        self.metrics.inc("tw.rollbacks")
        self.metrics.inc("tw.antimessages", antimessages)
        self.metrics.observe("tw.rollback_depth", undone)
        self.span("timewarp", "tw.rollback", start, now, tid, {
            "vt": vt, "undone": undone, "antimessages": antimessages,
        })

    def _tw_gvt(self, now: int, gvt: int) -> None:
        self.metrics.set_gauge("tw.gvt", gvt)
        self.counter_track("timewarp", "tw.gvt", now, gvt)

    def _stage_close(
        self, site, start, now, tid, a=None, b=None, args=None, begin=None
    ) -> None:
        """Counters and the span of one closed WAL/device/library stage.

        ``a``/``b`` are the stage's two scalar descriptors (what, how
        many); library stages (``rvm.*``/``rlvm.*``) carry their span
        ``args`` and, for commit and abort, the transaction's ``begin``.
        Spans are built only for a tracer or profiler to take.
        """
        inc = self.metrics.inc
        spans = self.tracer is not None or self.profiler is not None
        if site == "wal.append":
            inc("rvm.wal.appends")
            inc("rvm.wal.bytes", b)
            if spans:
                self.span("wal", site, start, now, tid, {"kind": a, "bytes": b})
        elif site == "wal.append_group":
            inc("rvm.wal.appends")
            inc("rvm.wal.bytes", a)
            self.metrics.observe("rvm.wal.group_bytes", a)
            if spans:
                self.span("wal", site, start, now, tid, {"bytes": a})
        elif site in ("device.write", "device.read"):
            # The I/O cost is charged to the issuing CPU (these devices
            # have no concurrent transfer engine), so the span lives on
            # the CPU's track and nests under wal.append / rvm.commit.
            if site == "device.write":
                inc("rvm.disk.writes")
                inc("rvm.disk.bytes_written", b)
            else:
                inc("rvm.disk.reads")
            if spans:
                name = "disk." + site[7:]
                self.span("disk", name, start, now, tid, {"bytes": b, "backend": a})
        elif site == "device.buffer":
            inc("rvm.disk.buffered_writes")
            inc("rvm.disk.bytes_buffered", b)
        elif site == "device.flush":
            inc("rvm.disk.flushes")
            if b:
                inc("rvm.disk.flushed_runs", b)
        elif site == "device.barrier":
            inc("rvm.disk.barriers")
        else:
            op = site.partition(".")[2]
            inc(_LIBRARY_COUNTERS[op])
            if begin is not None:
                self.metrics.observe("rvm.txn_cycles", now - begin)
            if not spans:
                return
            if op in ("commit", "flush"):
                sp = probe._ACTIVE
                rids = sp.rids() if sp is not None else ()
                if rids:
                    args["rids"] = list(rids)
            self.span("txn", site, start, now, tid, args)

    def _acked(self, request, now: int, tid: int, latency: int, backend: str) -> None:
        self.metrics.observe("serve.commit_cycles", latency)
        self.metrics.observe(f"serve.commit_cycles.{backend}", latency)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def finalize(self, ts: int | None = None) -> None:
        """Close open spans in both tracer and profiler."""
        if self.tracer is not None:
            self.tracer.finalize(ts)
        self._traced.clear()
        if self.profiler is not None:
            self.profiler.finalize(ts or 0)


active, install, uninstall, installed = probe.registry("obs", Observability)
