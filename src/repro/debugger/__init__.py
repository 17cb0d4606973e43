"""Debugging uses of LVM: write monitoring and address tracing.

The log-consuming tools of sections 1 and 2.7: a debugger attaches
logging to a running program's regions with no change to the program
binary, then watches writes or extracts address traces.  Reverse
execution is :class:`repro.replay.ReplayEngine` itself.
"""

from repro.debugger.trace import (
    TraceCacheSimulator,
    TraceEntry,
    extract_trace,
    write_intensity,
)
from repro.debugger.watch import Overwrite, WatchHit, WriteMonitor

__all__ = [
    "TraceCacheSimulator",
    "TraceEntry",
    "extract_trace",
    "write_intensity",
    "Overwrite",
    "WatchHit",
    "WriteMonitor",
]
