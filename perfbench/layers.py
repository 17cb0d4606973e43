"""Host-time spans around the entry points each simulator layer exposes.

The traced run replaces the public functions listed in
:data:`BOUNDARIES` with wrappers that time every call with
``perf_counter_ns`` while :attr:`LayerTracer.enabled` is set.  Each
wrapper keeps a stack of open spans, so a layer's *self* time is its
span's duration minus the time covered by the spans it called — the
same layer nested in itself (``Process.write`` calling
``Segment.write``) is not double counted.  Time outside every layer
span but inside a benchmark unit (model code, the asyncio loop, the
benchmark's own pass loop) is charged to ``other``.

Nothing inside the simulator changes: the wrappers live here and are
removed again by :meth:`LayerTracer.uninstall`.  The first
``max_spans`` spans are also kept in memory and written out at the end
as a Chrome trace (timestamps in host microseconds).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

#: Layers reported by the traced run, in report order.
LAYERS = (
    "hw",
    "core",
    "core.bulk",
    "rvm",
    "backends",
    "serve",
    "timewarp",
    "analytics",
    "obs",
    "other",
)

_STATE_SAVER_METHODS = ("on_lvt_change", "before_event", "rollback", "advance_checkpoint")
_DEVICE_METHODS = ("write", "read", "flush", "barrier", "peek", "poke", "durable_bytes")

#: (layer, module, class or None for module functions, function names).
#: Each entry is a function the layer above calls; private names appear
#: only where the layer has no public synchronous entry point (the
#: serve loop dispatches through ``_dispatch``/``_flush_batch``).
BOUNDARIES = (
    ("hw", "repro.hw.cpu", "CPU", (
        "compute", "cached_read", "cached_write", "write_through",
        "buffered_bus_write", "drain_write_buffer", "suspend_until",
    )),
    ("hw", "repro.hw.machine", "Machine", ("sync", "quiesce")),
    ("hw", "repro.hw.memory", "Frame", ("read", "write", "read_bytes", "write_bytes")),
    ("hw", "repro.hw.logger", "Logger", ("drain", "flush")),
    ("hw", "repro.hw.bus", "SystemBus", ("acquire", "write_transaction")),
    ("core", "repro.core.process", "Process", (
        "compute", "write", "read", "write_bytes", "read_bytes",
        "write_block", "read_block",
    )),
    ("core", "repro.core.address_space", "AddressSpace", ("reset_deferred_copy",)),
    ("core", "repro.core.segment", "Segment", ("read", "write", "read_bytes", "write_bytes")),
    ("core", "repro.core.log_segment", "LogSegment", (
        "records", "records_with_offsets", "rewind", "truncate",
    )),
    ("core", "repro.core.log_reader", "RegionLogView", ("offset_of",)),
    ("core.bulk", "repro.core.bulk", None, ("write_block", "read_block")),
    ("rvm", "repro.rvm.rvm", "RVM", ("begin", "flush", "truncate")),
    ("rvm", "repro.rvm.rvm", "Transaction", ("set_range", "write", "read", "commit", "abort")),
    ("rvm", "repro.rvm.rlvm", "RLVM", ("begin", "flush", "truncate")),
    ("rvm", "repro.rvm.rlvm", "RLVMTransaction", ("write", "read", "commit", "abort")),
    ("rvm", "repro.rvm.wal", "WriteAheadLog", (
        "append_begin", "append_commit", "append_abort", "append_write",
        "append_writes", "append_transactions", "reset", "entries",
        "committed_tids", "committed_writes",
    )),
    ("backends", "repro.backends.base", "LogDevice", _DEVICE_METHODS),
    ("backends", "repro.backends.group_commit", "GroupCommit", _DEVICE_METHODS),
    ("serve", "repro.serve.server", "TxnServer", ("_dispatch", "_flush_batch")),
    ("timewarp", "repro.timewarp.kernel", "TimeWarpSimulation", ("run",)),
    ("timewarp", "repro.timewarp.scheduler", "Scheduler", ("step", "receive", "fossil_collect")),
    ("timewarp", "repro.timewarp.state_saving", "StateSaver", (
        "on_lvt_change", "before_event", "advance_checkpoint",
    )),
    ("timewarp", "repro.timewarp.state_saving", "CopyStateSaver", (
        "before_event", "rollback", "advance_checkpoint",
    )),
    ("timewarp", "repro.timewarp.state_saving", "LVMStateSaver", (
        "on_lvt_change", "rollback", "advance_checkpoint",
    )),
    ("timewarp", "repro.timewarp.state_saving", "CheckpointedLVMSaver", _STATE_SAVER_METHODS),
    ("timewarp", "repro.timewarp.state_saving", "AdaptiveLVMSaver", ("before_event", "rollback")),
    ("analytics", "repro.analytics.policy", "CheckpointTuner", ("note_event", "note_rollback", "retune")),
    ("analytics", "repro.analytics.stream", "LogTap", ("advance", "rewound")),
    ("analytics", "repro.analytics.core", "PageTouchAttribution", ("touch",)),
    ("obs", "repro.obs.core", "Observability", (
        "span", "span_begin", "span_end", "instant", "flow_start",
        "flow_step", "flow_end", "counter_track",
    )),
    ("obs", "repro.obs.metrics", "MetricsRegistry", ("inc", "observe", "set_gauge")),
    ("obs", "repro.obs.causal", "CausalTracker", (
        "open_request", "dispatch", "dispatch_done", "adopt_batch", "park",
        "finish", "stage_enter", "device_enter", "stage_exit", "flow_step",
        "current_rids",
    )),
    ("obs", "repro.obs.flight", "FlightRecorder", ("record",)),
)


class LayerTracer:
    """Per-layer host self time and call counts, plus a bounded span log."""

    def __init__(self, max_spans: int = 100_000) -> None:
        self.enabled = False
        self.max_spans = max_spans
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: (layer, name, start_ns, dur_ns) of the first ``max_spans`` spans
        self.spans: list[tuple[str, str, int, int]] = []
        self.spans_dropped = 0
        #: child time accumulated by each open span, innermost last
        self._stack: list[list[int]] = []
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _close(self, layer: str, name: str, start: int, dur: int, child: int) -> None:
        self.self_ns[layer] += dur - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][0] += dur
        if len(self.spans) < self.max_spans:
            self.spans.append((layer, name, start, dur))
        else:
            self.spans_dropped += 1

    def unit(self, name: str, fn, *args):
        """Run ``fn(*args)`` as one root span; its self time is ``other``."""
        frame = [0]
        self._stack.append(frame)
        self.enabled = True
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            dur = time.perf_counter_ns() - start
            self.enabled = False
            self._stack.pop()
            self._close("other", name, start, dur, frame[0])

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            # Time each step of the generator, not its creation: the
            # work (record decode, WAL parsing) happens inside next().
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.enabled:
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    else:
                        frame = [0]
                        stack.append(frame)
                        start = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            end = clock()
                            stack.pop()
                            tracer._close(layer, name, start, end - start, frame[0])
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._close(layer, name, start, end - start, frame[0])

        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary function (idempotent per tracer)."""
        if self._originals:
            return
        for layer, module_name, owner_name, names in BOUNDARIES:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            for name in names:
                fn = vars(owner).get(name)
                if not inspect.isfunction(fn):
                    raise TypeError(f"{module_name}.{owner_name}.{name} is not a plain function")
                label = name if owner_name is None else f"{owner_name}.{name}"
                setattr(owner, name, self._wrap(layer, label, fn))
                self._originals.append((owner, name, fn))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._originals):
            setattr(owner, name, fn)
        self._originals.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def chrome_trace(self, other_data: dict | None = None) -> dict:
        """The kept spans as a Chrome trace-event document (host µs)."""
        t0 = min((start for _l, _n, start, _d in self.spans), default=0)
        events = [
            {"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
             "args": {"name": "simulator host time"}},
            {"ph": "M", "name": "thread_name", "pid": 0, "tid": 0,
             "args": {"name": "main"}},
        ]
        for layer, name, start, dur in self.spans:
            events.append({
                "ph": "X",
                "cat": layer,
                "name": name,
                "ts": (start - t0) // 1000,
                "dur": dur // 1000,
                "pid": 0,
                "tid": 0,
            })
        other = {"time_unit": "host microseconds", "spans_dropped": self.spans_dropped}
        if other_data:
            other.update(other_data)
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}
