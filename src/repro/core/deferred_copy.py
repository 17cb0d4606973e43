"""Deferred-copy reset statistics and cost model (sections 2.3, 3.3, 4.4).

``resetDeferredCopy()`` "significantly outperforms bcopy() in the
expected case": instead of copying, the implementation checks each
page's dirty bit and, for dirty pages only, invalidates the modified
cache lines and resets their source addresses.  The cost model below
charges exactly those steps; Figure 9 of the paper (reproduced by
the ``fig9`` entry of :mod:`repro.paper`) compares it against
``bcopy`` as the fraction of dirty data varies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.params import MachineConfig


@dataclass
class ResetStats:
    """Work performed by one ``resetDeferredCopy`` call."""

    pages_scanned: int = 0
    dirty_pages: int = 0
    dirty_lines: int = 0

    def __add__(self, other: "ResetStats") -> "ResetStats":
        return ResetStats(
            self.pages_scanned + other.pages_scanned,
            self.dirty_pages + other.dirty_pages,
            self.dirty_lines + other.dirty_lines,
        )


def reset_cost_cycles(config: MachineConfig, stats: ResetStats) -> int:
    """Cycles consumed by a reset that did ``stats`` worth of work.

    The fast path scans per-page dirty bits; only dirty pages pay the
    per-page bookkeeping and the per-dirty-line invalidation (section
    3.3: "our implementation checks the per-page dirty bit to detect
    the pages that have been modified rather than inspecting the tags
    of every cache line just to find that they are all clean").
    """
    return (
        config.reset_dc_call_overhead_cycles
        + config.reset_dc_per_page_scan_cycles * stats.pages_scanned
        + config.reset_dc_per_dirty_page_cycles * stats.dirty_pages
        + config.reset_dc_per_dirty_line_cycles * stats.dirty_lines
    )


def checkpoint_cost_cycles(config: MachineConfig, stats: ResetStats) -> int:
    """Cycles charged for one deferred-copy-style checkpoint capture.

    The replay engine's periodic checkpoints
    (:mod:`repro.replay.checkpoint`) are the dual of ``resetDeferredCopy``:
    instead of *discarding* dirty lines to make the destination read
    from the source again, a checkpoint *retains* exactly the dirty
    pages written since the previous checkpoint.  The work inspected is
    identical — scan per-page dirty bits, then touch only the dirty
    pages and their modified lines — so the capture is charged with the
    same per-page-scan / per-dirty-page / per-dirty-line constants as a
    reset (section 3.3's "checks the per-page dirty bit ... rather than
    inspecting the tags of every cache line").
    """
    return reset_cost_cycles(config, stats)
