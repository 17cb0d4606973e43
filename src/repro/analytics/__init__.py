"""Online log-stream analytics (section 1 + section 2.7).

The write log is "a more compact and complete indication of state
changes than the sequence of checkpoints" — this package mines it
*while the program runs* instead of post mortem:

* :mod:`repro.analytics.core` — incremental folds over log records
  (the single implementation behind :mod:`repro.analysis` too):
  aggregate stats, windowed working-set size, cycle-decayed page heat,
  write-rate EWMAs, and log-growth forecasts.
* :mod:`repro.analytics.stream` — :class:`LogTap` consumes a
  :class:`~repro.core.log_segment.LogSegment` tail incrementally with
  *untimed functional reads* (zero cycle perturbation), and
  :class:`AnalyticsHub` is the :mod:`repro.probe` spine subscriber
  the logger's ``log_drained`` event reaches after each drain.
* :mod:`repro.analytics.policy` — the two closed loops: a
  :class:`CheckpointTuner` picking the Time Warp snapshot interval
  from observed re-dirty and rollback rates, and a
  :class:`TruncationAdvisor` scheduling RVM/WAL truncation from log
  growth vs. the backend device's cost model.

``python -m repro analyze report|watch <workload>`` is the CLI front
end (:mod:`repro.analytics.cli`).
"""

from repro.analytics.core import (
    GrowthForecast,
    LocalityFold,
    PageHeat,
    PageTouchAttribution,
    RateEwma,
    RedundancyFold,
    StatsFold,
    WindowedWss,
    fold_records,
)
from repro.analytics.policy import CheckpointTuner, TruncationAdvisor
from repro.analytics.stream import (
    AnalyticsHub,
    LogTap,
    installed,
    rebuild_tap,
)

__all__ = [
    "AnalyticsHub",
    "CheckpointTuner",
    "GrowthForecast",
    "LocalityFold",
    "LogTap",
    "PageHeat",
    "PageTouchAttribution",
    "RateEwma",
    "RedundancyFold",
    "StatsFold",
    "TruncationAdvisor",
    "WindowedWss",
    "fold_records",
    "installed",
    "rebuild_tap",
]
