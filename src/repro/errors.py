"""Exception hierarchy for the LVM reproduction.

Every error raised by the library derives from :class:`LVMError` so that
callers can catch library failures without catching programming errors.
"""

from __future__ import annotations


class LVMError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(LVMError):
    """A configuration value is invalid or inconsistent."""


class AddressError(LVMError):
    """An address is out of range, misaligned, or unmapped."""


class UnmappedAddressError(AddressError):
    """A virtual address has no region bound at it."""


class AlignmentError(AddressError):
    """An access violates the alignment rules of the machine."""


class ProtectionError(AddressError):
    """An access violates the protection bits of a mapping."""


class SegmentError(LVMError):
    """A segment operation is invalid (bad offset, exhausted, ...)."""


class RegionError(LVMError):
    """A region operation is invalid (already bound, bad overlap, ...)."""


class BindError(RegionError):
    """A region could not be bound into an address space."""


class LoggingError(LVMError):
    """A logging setup or operation is invalid."""


class UnsupportedOperationError(LVMError):
    """The operation is not supported by the selected hardware model.

    For example, the prototype bus-snooping logger supports only a single
    logged region per segment (paper section 3.1.2); binding a second one
    raises this error unless the on-chip logger of section 4.6 is used.
    """


class FrameExhaustedError(LVMError):
    """Physical memory has no free page frames."""


class TransactionError(LVMError):
    """Invalid transaction usage in RVM / RLVM."""


class RecoveryError(LVMError):
    """Recovery from the write-ahead log failed."""


class SimulationError(LVMError):
    """The Time Warp simulation kernel detected an inconsistency."""


class RollbackError(SimulationError):
    """A rollback could not be performed (e.g. before the checkpoint)."""
