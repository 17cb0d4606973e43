"""Recoverable virtual memory: the RVM baseline and RLVM (section 2.5).

Both libraries run one durability protocol
(:class:`~repro.rvm.library.RecoverableLibrary`): commit hands a redo
list to the write-ahead log on a log device (the RAM disk by default),
no-flush commits wait for one group flush, truncation applies the log
to the durable segment images, and recovery replays it.  They differ
only in how a transaction captures and undoes its writes:

* :class:`RVM`, the Coda-style library, needs a ``set_range`` before
  each store; it copies the old bytes aside for abort and the declared
  ranges into the redo list at commit;
* :class:`RLVM` maps every segment as an LVM logged region, so the
  hardware log records each store; commit decodes that log into the
  redo list, and abort restores the logged words from the committed
  image.

The TPC-A harness used for Table 3 runs over either.
"""

from repro.backends.ramdisk import RamDisk
from repro.rvm.library import RecoverableSegment
from repro.rvm.rlvm import CONTROL_BYTES, RLVM, RLVMTransaction, RlvmSegment
from repro.rvm.rvm import RVM, SET_RANGE_CYCLES, Transaction
from repro.rvm.tpca import TPCABenchmark, TPCAConfig, TPCAResult
from repro.rvm.wal import EntryKind, WalEntry, WriteAheadLog

__all__ = [
    "RamDisk",
    "CONTROL_BYTES",
    "RLVM",
    "RLVMTransaction",
    "RlvmSegment",
    "RVM",
    "RecoverableSegment",
    "SET_RANGE_CYCLES",
    "Transaction",
    "TPCABenchmark",
    "TPCAConfig",
    "TPCAResult",
    "EntryKind",
    "WalEntry",
    "WriteAheadLog",
]
