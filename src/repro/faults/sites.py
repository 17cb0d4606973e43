"""Central registry of fault-injection sites.

AUTO-GENERATED by ``python -m repro lint --regen-sites`` from a sweep
of every literal ``hit("...")`` call site and ``SITE_*`` constant under
``src/repro`` — do not edit by hand.  Lint rule LVM005 resolves every
site literal against :data:`ALL_SITES`, and
``tests/faults/test_sites_registry.py`` keeps this file in sync with
the code and proves each site is exercised by at least one test.

The rvm and rlvm libraries share one durability protocol
(``repro/rvm/library.py``), which declares its crash points once; only
``rvm.commit.begin`` and ``rvm.abort``, where each library's own commit
and abort start, appear in both library files.
"""

from __future__ import annotations

#: site -> source files (package-relative) that declare it
SITES: dict[str, tuple[str, ...]] = {
    "analytics.rebuild": ("repro/analytics/stream.py",),
    "backend.barrier": ("repro/backends/base.py",),
    "backend.flush": ("repro/backends/base.py",),
    "fifo.overflow": ("repro/hw/fifo.py",),
    "fifo.push": ("repro/faults/plan.py",),
    "logger.dma": ("repro/hw/logger.py",),
    "logger.overload": ("repro/hw/logger.py",),
    "ramdisk.write": ("repro/faults/plan.py",),
    "replay.checkpoint": ("repro/replay/engine.py",),
    "replay.restore": ("repro/replay/engine.py",),
    "rvm.abort": ("repro/rvm/rlvm.py", "repro/rvm/rvm.py"),
    "rvm.commit.begin": ("repro/rvm/rlvm.py", "repro/rvm/rvm.py"),
    "rvm.commit.buffered": ("repro/rvm/library.py",),
    "rvm.commit.durable": ("repro/rvm/library.py",),
    "rvm.commit.log": ("repro/rvm/library.py",),
    "rvm.flush": ("repro/rvm/library.py",),
    "rvm.truncate.applied": ("repro/rvm/library.py",),
    "rvm.truncate.apply": ("repro/rvm/library.py",),
    "rvm.truncate.begin": ("repro/rvm/library.py",),
    "timewarp.rollback.restore": ("repro/timewarp/state_saving.py",),
    "wal.append": ("repro/rvm/wal.py",),
    "wal.append_group": ("repro/rvm/wal.py",),
    "wal.reset": ("repro/rvm/wal.py",),
}

#: Every known injection-site name.
ALL_SITES: frozenset[str] = frozenset(SITES)
