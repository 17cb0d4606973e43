"""Logged Virtual Memory — reproduction of Cheriton & Duda, SOSP 1995.

Logged virtual memory (LVM) extends the virtual memory system with
*logged regions*: every write to such a region is automatically
appended, as an (address, value, size, timestamp) record, to a *log
segment*, with essentially no overhead on the writing process.  A
*deferred-copy* mechanism complements logging for cheap checkpointing
and rollback.

Quickstart (the paper's section 2.2 code sample, in Python)::

    from repro import boot, StdSegment, StdRegion, LogSegment, this_process

    boot()
    seg_a = StdSegment(4096)
    reg_r = StdRegion(seg_a)
    ls = LogSegment()
    reg_r.log(ls)
    aspace = this_process().address_space()
    va = reg_r.bind(aspace)

    proc = this_process()
    proc.write(va + 0x10, 0xDEADBEEF)
    proc.machine.quiesce()
    print(list(ls.records()))

Package layout:

* :mod:`repro.hw` — the simulated ParaDiGM machine and hardware logger;
* :mod:`repro.core` — segments, regions, address spaces, log segments,
  deferred copy, and the kernel fault handling (the paper's Table 1);
* :mod:`repro.rvm` — recoverable virtual memory (RVM baseline and RLVM);
* :mod:`repro.timewarp` — optimistic parallel simulation with
  LVM-based or copy-based state saving;
* :mod:`repro.baselines` — bcopy, write-protect trapping, manual
  instrumentation;
* :mod:`repro.consistency` — Munin-style twin/diff vs log-based
  distributed consistency;
* :mod:`repro.replay` — checkpointed replay: reverse execution;
* :mod:`repro.debugger` — write monitoring and address traces;
* :mod:`repro.analytics` — log statistics, redundancy and locality
  folds, run post hoc or live on the log stream.
"""

from repro.core import (
    AddressSpace,
    HeapAllocator,
    LogMode,
    LogSegment,
    Process,
    Region,
    Segment,
    SegmentManager,
    StdRegion,
    StdSegment,
    boot,
    create_process,
    audit_placement,
    current_machine,
    set_current_machine,
    this_process,
    use_machine,
)
from repro.errors import LVMError
from repro.hw import Machine, MachineConfig, NEXT_GENERATION, PROTOTYPE

__version__ = "1.0.0"

__all__ = [
    "AddressSpace",
    "HeapAllocator",
    "audit_placement",
    "LogMode",
    "LogSegment",
    "Process",
    "Region",
    "Segment",
    "SegmentManager",
    "StdRegion",
    "StdSegment",
    "boot",
    "create_process",
    "current_machine",
    "set_current_machine",
    "this_process",
    "use_machine",
    "LVMError",
    "Machine",
    "MachineConfig",
    "NEXT_GENERATION",
    "PROTOTYPE",
    "__version__",
]
