"""The streaming consumer framework: log taps on the probe spine.

A :class:`LogTap` follows one :class:`~repro.core.log_segment.LogSegment`
by cursor, decoding only the tail appended since its last visit and
feeding the :mod:`repro.analytics.core` folds.  All reads are *untimed
functional reads* (``Segment.read_bytes``), so an attached tap is
cycle- and log-record-identical to no tap by construction — the
spine-wide exactness test (``tests/test_probe_exactness.py``) holds
this.

The :class:`AnalyticsHub` is a :mod:`repro.probe` subscriber (kind
``analytics``).  The hardware logger emits ``log_drained`` after each
drain behind the spine's one gate, so a detached hub costs one global
load and identity test per drain.  The kernel's ``log_watched`` event
registers logs with the hub as regions bind
(``Kernel.attach_region_log``), and ``log_rewound`` reports rewinds so
tap cursors never read a rolled-back tail as fresh data.  Gauges and
counter tracks go back onto the spine for the span layer to write.

Crash recovery: a tap holds only volatile state, all of it a pure
function of the durable log — :func:`rebuild_tap` re-folds the
retained records after a crash (fault site ``analytics.rebuild``).
"""

from __future__ import annotations

import numpy as np

from repro import probe
from repro.hw.params import PAGE_SIZE
from repro.analytics.core import (
    DEFAULT_HEAT_HALF_LIFE,
    DEFAULT_WSS_WINDOW,
    GrowthForecast,
    PageHeat,
    RateEwma,
    StatsFold,
    WindowedWss,
)

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1


class LogTap:
    """Incremental consumer of one log segment's record stream.

    The tap observes the *stream*: records that are later rewound away
    by a rollback stay counted (they were real write traffic — exactly
    what the checkpoint tuner's re-dirty estimate wants), and a cursor
    clamp ensures re-appended records at reused offsets are read
    afresh, never confused with the undone ones.
    """

    def __init__(
        self,
        log,
        name: str = "log0",
        window: int = DEFAULT_WSS_WINDOW,
        half_life: int = DEFAULT_HEAT_HALF_LIFE,
    ) -> None:
        self.log = log
        self.name = name
        self.stats = StatsFold()
        self.wss = WindowedWss(window)
        self.heat = PageHeat(half_life)
        self.write_rate = RateEwma()
        self.forecast = GrowthForecast()
        self.rewinds = 0
        self._cursor = log.start_offset

    def rewound(self, to_offset: int) -> None:
        """The log's append point moved back to ``to_offset``."""
        if to_offset < self._cursor:
            self.rewinds += 1
            self._cursor = to_offset

    def advance(self) -> int:
        """Fold every record appended since the last visit.

        Returns the number of records consumed.  Purely functional —
        no simulated cycles are charged and no machine state is
        touched.
        """
        log = self.log
        tail = log.append_offset
        cursor = self._cursor
        if tail < cursor:
            # A rewind we were not told about; re-anchor at the new tail.
            self.rewinds += 1
            self._cursor = tail
            return 0
        # Reading starts at the truncation point when the log was
        # truncated past the cursor.  Column views give each field at
        # once, and the folds see only per-page aggregates.
        words, _spans = log.record_words(cursor)
        self._cursor = tail
        if not len(words):
            return 0
        stamps = words[:, 3]
        pages = words[:, 0] >> _PAGE_SHIFT
        uniq, counts = np.unique(pages, return_counts=True)
        page_counts = dict(zip(uniq.tolist(), counts.tolist()))
        consumed = len(words)
        prev_last_ts = self.stats.last_timestamp
        last_ts = int(stamps[-1])
        self.stats.fold_page_counts(
            page_counts,
            consumed,
            int((words[:, 2] & 0xFFFF).sum(dtype=np.int64)),
            int(stamps[0]),
            last_ts,
        )
        self.wss.extend_pages_array(pages)
        # Heat is advance-granular: one advance's records count at its
        # last timestamp, with decay applied between advances.
        self.heat.touch_many(page_counts, last_ts)
        self.forecast.observe(consumed * log.record_size, last_ts)
        if prev_last_ts is not None and last_ts > prev_last_ts:
            self.write_rate.update(1000.0 * consumed / (last_ts - prev_last_ts))
        return consumed

    @property
    def retained_bytes(self) -> int:
        return self.log.append_offset - self.log.start_offset

    def report(self, top: int = 8) -> dict:
        """JSON-ready summary of everything the tap has observed."""
        now_ts = self.stats.last_timestamp
        return {
            "name": self.name,
            "stats": self.stats.as_dict(),
            "wss_curve": self.wss.curve(),
            "wss_latest": self.wss.latest,
            "heat_top": [
                {"page": page, "heat": round(heat, 3)}
                for page, heat in self.heat.top(top, now_ts)
            ],
            "write_rate_per_1k_ts": round(self.write_rate.value, 3),
            "log_bytes_retained": self.retained_bytes,
            "log_bytes_per_tick": round(
                self.forecast.bytes_per_tick.value, 6
            ),
            "rewinds": self.rewinds,
        }


class AnalyticsHub:
    """All live taps plus their export to the observability layer."""

    def __init__(
        self,
        window: int = DEFAULT_WSS_WINDOW,
        half_life: int = DEFAULT_HEAT_HALF_LIFE,
    ) -> None:
        self.window = window
        self.half_life = half_life
        self.taps: list[LogTap] = []
        self._by_log: dict[int, LogTap] = {}
        self.records_consumed = 0
        #: optional callback ``fn(cycle, hub)`` run after any notify
        #: that consumed records (the ``analyze watch`` printer).
        self.on_sample = None

    # ------------------------------------------------------------------
    # Registration (kernel attach path + manual)
    # ------------------------------------------------------------------
    def watch(self, log, name: str | None = None) -> LogTap:
        """Attach (or return the existing) tap for ``log``."""
        tap = self._by_log.get(id(log))
        if tap is None:
            tap = LogTap(
                log,
                name or f"log{len(self.taps)}",
                window=self.window,
                half_life=self.half_life,
            )
            self.taps.append(tap)
            self._by_log[id(log)] = tap
        return tap

    def tap_for(self, log) -> LogTap | None:
        return self._by_log.get(id(log))

    def log_rewound(self, log) -> None:
        """Kernel hook: clamp the tap cursor before new appends reuse
        the rewound offsets."""
        tap = self._by_log.get(id(log))
        if tap is not None:
            tap.rewound(log.append_offset)

    # ------------------------------------------------------------------
    # The consumer side (poked by Logger.drain/flush)
    # ------------------------------------------------------------------
    def probes(self) -> dict:
        return {
            "log_drained": self.notify,
            "log_watched": self.watch,
            "log_rewound": self.log_rewound,
        }

    def notify(self, now_cycle: int) -> int:
        """Advance every tap; export and sample when anything was new."""
        consumed = 0
        for tap in self.taps:
            consumed += tap.advance()
        if consumed:
            self.records_consumed += consumed
            sp = probe._ACTIVE
            if sp is not None:
                self._export(sp, now_cycle)
            callback = self.on_sample
            if callback is not None:
                callback(now_cycle, self)
        return consumed

    def _export(self, sp, ts: int) -> None:
        """Publish per-tap gauges and Perfetto counter tracks."""
        for tap in self.taps:
            prefix = f"analytics.{tap.name}"
            sp.set_gauge(f"{prefix}.records", tap.stats.record_count)
            sp.set_gauge(f"{prefix}.pages_touched", tap.stats.pages_touched)
            sp.set_gauge(f"{prefix}.wss", tap.wss.latest)
            sp.set_gauge(f"{prefix}.write_rate_per_1k_ts", tap.write_rate.value)
            sp.set_gauge(f"{prefix}.log_bytes", tap.retained_bytes)
            sp.counter_track("metrics", f"{prefix}.wss", ts, tap.wss.latest)
            sp.counter_track(
                "metrics", f"{prefix}.records", ts, tap.stats.record_count
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, top: int = 8) -> dict:
        return {
            "records_consumed": self.records_consumed,
            "taps": [tap.report(top) for tap in self.taps],
        }


active, install, uninstall, installed = probe.registry("analytics", AnalyticsHub)


# ----------------------------------------------------------------------
# Crash recovery
# ----------------------------------------------------------------------
def _rebuild_site(cycle: int | None = None) -> None:
    """The one declaration of the ``analytics.rebuild`` fault site.

    Analytics state is volatile by design; every rebuild path (tap
    re-fold, advisor re-seed) funnels through here so a crash sweep can
    interrupt recovery itself.
    """
    probe.hit("analytics.rebuild", cycle=cycle)


def rebuild_tap(
    log,
    name: str = "rebuilt",
    window: int = DEFAULT_WSS_WINDOW,
    half_life: int = DEFAULT_HEAT_HALF_LIFE,
    cycle: int | None = None,
) -> LogTap:
    """Rebuild a tap from the durable log after a crash.

    Folds the retained records of ``log`` into a fresh :class:`LogTap`;
    because tap state is a pure fold of the record stream, the result
    equals a tap that had followed the retained stream live.
    """
    _rebuild_site(cycle=cycle)
    tap = LogTap(log, name=name, window=window, half_life=half_life)
    tap.advance()
    return tap
