"""Regression tests for hot-path timing bugs.

Each class pins a bug that existed in the original code:

* ``Logger._process`` must charge fault-handler cycles to the
  pipeline, so the records behind a logging fault wait for its
  service, while the faulted record itself keeps the timestamp and DMA
  of its own bus completion.
* ``HardwareFifo.push`` returned the same truthy signal for a threshold
  crossing and for a hard-capacity overflow, so the logger counted a
  dropped entry as a fresh overload event (double-counting the overload
  interrupt and mis-attributing the lost record).
* ``CPU.drain_write_buffer`` / ``reset_time`` interaction with the
  overload-suspension ``_resume_at``.
"""

from repro.hw.bus import SystemBus
from repro.hw.clock import Clock
from repro.hw.cpu import CPU
from repro.hw.fifo import HardwareFifo, PushResult
from repro.hw.logger import Logger
from repro.hw.memory import PhysicalMemory
from repro.hw.params import LOG_RECORD_SIZE, PAGE_SIZE, MachineConfig
from repro.hw.records import decode_record


class ScriptedHandler:
    """Minimal fault handler with fixed 800-cycle service times."""

    def __init__(self, memory, logger):
        self.frames = [memory.allocate_frame() for _ in range(4)]
        self.next_page = 0
        self.pmt_map = {}
        self.logger = logger
        self.written = []
        self.lost = 0
        self.overloads = []

    def pmt_miss(self, paddr):
        idx = self.pmt_map.get(paddr // PAGE_SIZE)
        if idx is not None:
            self.logger.pmt.load(paddr, idx)
        return idx, 800

    def log_boundary(self, log_index):
        if self.next_page >= len(self.frames):
            return None, 800
        addr = self.frames[self.next_page].base_addr
        self.next_page += 1
        return addr, 800

    def record_written(self, log_index, paddr, nbytes):
        self.written.append((log_index, paddr, nbytes))

    def record_lost(self, log_index):
        self.lost += 1

    def overload(self, drain_cycle):
        self.overloads.append(drain_cycle)


def make_logger(**config_overrides):
    config = MachineConfig(memory_bytes=4 * 1024 * 1024, **config_overrides)
    memory = PhysicalMemory(config.num_frames)
    logger = Logger(config, memory, SystemBus(), Clock())
    handler = ScriptedHandler(memory, logger)
    logger.attach_fault_handler(handler)
    default = memory.allocate_frame()
    logger.set_default_page(default.base_addr)
    return logger, handler, memory


class TestLoggerFaultTiming:
    """A logging fault stalls the records behind it, not the faulted one."""

    def test_pmt_miss_delays_record_dma_and_timestamp(self):
        logger, handler, memory = make_logger()
        frame = memory.allocate_frame()
        handler.pmt_map[frame.base_addr // PAGE_SIZE] = 1
        log_base = handler.frames[0].base_addr
        handler.next_page = 1
        logger.log_table.load(1, log_base)

        # PMT not preloaded: the record faults inside the pipeline.
        # Service of the record starts at 100 and completes at 128; the
        # 800-cycle pmt_miss handler holds the pipeline until 928.  The
        # faulted record is stamped and DMA'd at 128, its bus completion.
        logger.snoop_write(100, frame.base_addr, 0xABCD, 4)
        logger.flush()

        assert logger._service_free == 928
        assert logger.bus.busy_until == 128 + logger.config.log_dma_bus_cycles
        record = decode_record(memory.read_bytes(log_base, LOG_RECORD_SIZE))
        assert record.timestamp == 128 // logger.clock._timestamp_divider
        assert logger.stats.pmt_fault_count == 1

        # The stall: a record snooped at 200 is serviced only after the
        # handler returns, completing at 928 + 28.
        logger.snoop_write(200, frame.base_addr, 0xABCE, 4)
        logger.flush()
        record = decode_record(
            memory.read_bytes(log_base + LOG_RECORD_SIZE, LOG_RECORD_SIZE)
        )
        assert record.timestamp == 956 // logger.clock._timestamp_divider
        assert logger.stats.pmt_fault_count == 1

    def test_boundary_fault_delays_record_dma_and_timestamp(self):
        logger, handler, memory = make_logger()
        frame = memory.allocate_frame()
        logger.pmt.load(frame.base_addr, 1)
        # No log-table entry: the first record takes a boundary fault,
        # serviced in 800 cycles, so the pipeline is held until 928;
        # the faulted record itself is stamped and DMA'd at 128.
        logger.snoop_write(100, frame.base_addr, 0x1111, 4)
        logger.flush()

        assert logger._service_free == 928
        assert logger.bus.busy_until == 128 + logger.config.log_dma_bus_cycles
        log_base = handler.frames[0].base_addr
        record = decode_record(memory.read_bytes(log_base, LOG_RECORD_SIZE))
        assert record.timestamp == 128 // logger.clock._timestamp_divider
        assert logger.stats.boundary_fault_count == 1

        # The stall: the next record waits for the handler's return.
        logger.snoop_write(200, frame.base_addr, 0x2222, 4)
        logger.flush()
        record = decode_record(
            memory.read_bytes(log_base + LOG_RECORD_SIZE, LOG_RECORD_SIZE)
        )
        assert record.timestamp == 956 // logger.clock._timestamp_divider
        assert logger.stats.boundary_fault_count == 1

    def test_unfaulted_record_timing_unchanged(self):
        logger, handler, memory = make_logger()
        frame = memory.allocate_frame()
        logger.pmt.load(frame.base_addr, 1)
        log_base = handler.frames[0].base_addr
        handler.next_page = 1
        logger.log_table.load(1, log_base)

        logger.snoop_write(100, frame.base_addr, 0x2222, 4)
        logger.flush()

        assert logger._service_free == 128
        record = decode_record(memory.read_bytes(log_base, LOG_RECORD_SIZE))
        assert record.timestamp == 128 // logger.clock._timestamp_divider


class TestFifoOverflowAccounting:
    """Overflow drops the entry; it is not a fresh overload event."""

    def test_overflow_is_not_an_overload(self):
        logger, handler, memory = make_logger(
            logger_fifo_capacity=4, logger_overload_threshold=4
        )
        frame = memory.allocate_frame()
        logger.pmt.load(frame.base_addr, 1)
        # Five writes land on the bus at cycle 0; none can be serviced
        # yet, so the fifth hits hard capacity and is lost.
        for _ in range(5):
            logger.snoop_write(0, frame.base_addr, 1, 4)

        assert logger.write_fifo.occupancy == 4
        assert logger.write_fifo.overflow_count == 1
        assert logger.stats.records_dropped == 1
        assert logger.stats.overload_events == 0
        assert handler.overloads == []

    def test_threshold_crossing_still_raises_overload(self):
        logger, handler, memory = make_logger(
            logger_fifo_capacity=16, logger_overload_threshold=2
        )
        frame = memory.allocate_frame()
        logger.pmt.load(frame.base_addr, 1)
        log_base = handler.frames[0].base_addr
        handler.next_page = 1
        logger.log_table.load(1, log_base)

        for _ in range(3):
            logger.snoop_write(0, frame.base_addr, 1, 4)

        assert logger.stats.overload_events == 1
        assert len(handler.overloads) == 1
        assert logger.stats.records_dropped == 0
        assert logger.write_fifo.occupancy == 0  # the overload flushed

    def test_push_results_distinguishable(self):
        fifo = HardwareFifo(capacity=3, threshold=2)
        assert fifo.push(0, "a") is PushResult.OK
        assert fifo.push(0, "b") is PushResult.OK
        assert fifo.push(0, "c") is PushResult.THRESHOLD
        assert fifo.push(0, "d") is PushResult.OVERFLOW
        assert len(fifo) == 3


class TestCpuTimeControl:
    """reset_time / drain_write_buffer vs the suspension mechanism."""

    def make_cpu(self):
        config = MachineConfig(memory_bytes=4 * 1024 * 1024)
        return CPU(0, config, SystemBus(), Clock())

    def test_drain_is_a_fence_not_a_schedule_point(self):
        cpu = self.make_cpu()
        cpu.write_through(0x40, 1, 4, log_tag=None)  # completes at cycle 9
        cpu.suspend_until(50)
        cpu.drain_write_buffer()
        # The fence waits for the bus copy, not for the suspension.
        assert cpu._now == 9
        assert not cpu._write_buffer
        assert cpu.stats.suspend_cycles == 0
        # Observing time applies the pending suspension.
        assert cpu.now == 50
        assert cpu.stats.suspend_cycles == 41

    def test_reset_time_clears_pending_suspension(self):
        cpu = self.make_cpu()
        cpu.write_through(0x40, 1, 4, log_tag=None)
        cpu.suspend_until(500)
        cpu.reset_time()
        assert cpu._now == 0
        assert cpu._resume_at == 0
        cpu.compute(10)
        assert cpu.now == 10  # no leftover suspension charge
        assert cpu.stats.suspend_cycles == 0

    def test_reset_time_drains_buffer_first(self):
        cpu = self.make_cpu()
        complete = cpu.write_through(0x40, 1, 4, log_tag=None)
        cpu.reset_time()
        assert not cpu._write_buffer
        # The global clock saw the drain before local time was zeroed.
        assert cpu.clock.now >= complete
        assert cpu.now == 0
