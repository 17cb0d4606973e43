"""Counters, gauges, and histograms over the simulated machine.

Two feeding mechanisms, chosen per metric by cost:

* *Live instruments* — instrumentation sites call
  ``registry.inc/observe/set_gauge`` directly.  Used only for values no
  existing component counter captures (e.g. per-transaction latency).
* *Polled sources* — closures registered with :meth:`add_source` that
  read counters the components already maintain (``CpuStats``,
  ``LoggerStats``, bus occupancy, FIFO high water, ...).  These cost
  nothing during the run; they execute once, at :meth:`snapshot` time.

Histogram buckets are powers of two: observation ``v`` lands in bucket
``v.bit_length()``, i.e. bucket *k* counts values in ``[2^(k-1), 2^k)``.
Cycle-domain quantities span six orders of magnitude (a 16-cycle logged
store to a 30,000-cycle overload drain), so log-spaced buckets are the
only shape that resolves both ends.
"""

from __future__ import annotations

from typing import Callable


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Power-of-two-bucketed distribution of non-negative values."""

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min is None:
            self.min = self.max = value
        elif value < self.min:
            self.min = value
        elif value > self.max:
            self.max = value
        k = int(value).bit_length()
        self.buckets[k] = self.buckets.get(k, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            # keys as "<2^k" strings so the snapshot is JSON-stable
            "buckets": {
                f"<2^{k}": n for k, n in sorted(self.buckets.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.0f})"


class MetricsRegistry:
    """Named metrics plus polled sources, snapshot on demand."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._sources: list[Callable[["MetricsRegistry"], None]] = []

    # ------------------------------------------------------------------
    # Instrument access (get-or-create)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    # Shorthands used by instrumentation sites.
    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def observe(self, name: str, value: int) -> None:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        h.observe(value)

    def set_gauge(self, name: str, value) -> None:
        self.gauge(name).set(value)

    def value(self, name: str, default=0):
        """Current value of a counter or gauge (counters win on clash)."""
        c = self._counters.get(name)
        if c is not None:
            return c.value
        g = self._gauges.get(name)
        return g.value if g is not None else default

    # ------------------------------------------------------------------
    # Polled sources
    # ------------------------------------------------------------------
    def add_source(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register ``fn(registry)``, run at every :meth:`snapshot`.

        Sources read counters the machine's components already keep, so
        they add zero cost to the simulated run itself.
        """
        self._sources.append(fn)

    def poll(self) -> None:
        """Run every polled source now (normally via :meth:`snapshot`)."""
        for fn in self._sources:
            fn(self)

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Poll all sources, then return a JSON-ready snapshot."""
        self.poll()
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
        }
