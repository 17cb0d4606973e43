"""Simulated ParaDiGM hardware substrate.

This package models the machine the paper's prototype ran on: a
four-CPU 25 MHz shared-bus multiprocessor with a bus-snooping logging
device (sections 3.1 and 4.1), plus the next-generation on-chip logger
sketched in section 4.6.  The bus hands each logged write straight to
the logger, and the logger calls the kernel's fault and overload
handlers straight through :class:`~repro.hw.logger.LoggingFaultHandler`.  All timing constants are collected in
:class:`repro.hw.params.MachineConfig`.
"""

from repro.hw.bus import SystemBus
from repro.hw.cache import L1Cache
from repro.hw.clock import Clock
from repro.hw.cpu import CPU, CpuStats
from repro.hw.fifo import HardwareFifo
from repro.hw.log_table import LogTable, LogTableEntry
from repro.hw.logger import Logger, LoggerStats, LogMode
from repro.hw.machine import Machine
from repro.hw.memory import Frame, PhysicalMemory
from repro.hw.page_mapping_table import PageMappingTable, PmtEntry
from repro.hw.params import (
    LINE_SIZE,
    LINES_PER_PAGE,
    LOG_RECORD_SIZE,
    NEXT_GENERATION,
    PAGE_SIZE,
    PROTOTYPE,
    MachineConfig,
)
from repro.hw.records import (
    EXTENDED_RECORD_SIZE,
    FLAG_EXTENDED,
    FLAG_VIRTUAL_ADDR,
    ExtendedLogRecord,
    LogRecord,
    decode_extended_record,
    decode_record,
    decode_records,
    encode_extended_record,
    encode_record,
)
from repro.hw.tlb_logger import OnChipLogger

__all__ = [
    "SystemBus",
    "L1Cache",
    "Clock",
    "CPU",
    "CpuStats",
    "HardwareFifo",
    "LogTable",
    "LogTableEntry",
    "Logger",
    "LoggerStats",
    "LogMode",
    "Machine",
    "Frame",
    "PhysicalMemory",
    "PageMappingTable",
    "PmtEntry",
    "LINE_SIZE",
    "LINES_PER_PAGE",
    "LOG_RECORD_SIZE",
    "NEXT_GENERATION",
    "PAGE_SIZE",
    "PROTOTYPE",
    "MachineConfig",
    "EXTENDED_RECORD_SIZE",
    "FLAG_EXTENDED",
    "FLAG_VIRTUAL_ADDR",
    "ExtendedLogRecord",
    "LogRecord",
    "decode_extended_record",
    "decode_record",
    "decode_records",
    "encode_extended_record",
    "encode_record",
    "OnChipLogger",
]
