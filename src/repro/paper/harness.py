"""What every paper-results entry shares: the :class:`Entry` record and
the machine set-up of the section 4.5.1 write loops.

All measurements are simulated cycles on freshly booted machines, so a
series depends only on the timing model, never on the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.context import boot
from repro.core.log_segment import LogSegment
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.hw.params import PAGE_SIZE, MachineConfig

MB = 1024 * 1024


@dataclass(frozen=True)
class Entry:
    """One table, figure or ablation of the paper.

    ``run`` returns the series as JSON-compatible data.  ``check`` holds
    the paper-shape assertions over that series (as loaded back from
    JSON: string keys, lists).  ``table`` turns it into markdown rows,
    header first; floats in them print with ``digits`` decimals.
    """

    name: str
    run: Callable[[], dict]
    check: Callable[[dict], None]
    table: Callable[[dict], list]
    digits: int = 1


def machine(**overrides):
    """Boot a fresh machine (256 MB unless overridden); it becomes current."""
    return boot(MachineConfig(**{"memory_bytes": 256 * MB, **overrides}))


def bound_region(m, pages, log_bytes=None, proc=None):
    """Bind a ``pages``-page region, logged to a fresh log of
    ``log_bytes`` when given, and fault every page in ahead of the timed
    loop (section 4.5.1: "ensure the relevant memory regions are in the
    second-level cache").  Returns ``(region, va, log)``.
    """
    proc = proc or m.current_process
    region = StdRegion(StdSegment(pages * PAGE_SIZE, machine=m))
    log = None
    if log_bytes:
        log = LogSegment(size=log_bytes, machine=m)
        region.log(log)
    va = region.bind(proc.address_space())
    for page in range(pages):
        proc.write(va + page * PAGE_SIZE, 0)
    m.quiesce()
    return region, va, log


def write_loop(m, va, region_bytes, iterations, c, burst=1):
    """The section 4.5.1 test loop: ``iterations`` times, ``c`` compute
    cycles then ``burst`` writes at increasing addresses.  Returns the
    elapsed cycles, logger drained."""
    proc = m.current_process
    addr = 0
    t0 = proc.now
    for _ in range(iterations):
        proc.compute(c)
        for _ in range(burst):
            proc.write(va + addr % region_bytes, addr)
            addr += 4
    m.quiesce()
    return proc.now - t0
