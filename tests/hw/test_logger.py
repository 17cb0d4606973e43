"""Unit tests: the bus-snooping logger device (section 3.1).

These tests drive the logger directly with a scripted fault handler,
independent of the OS layer, to pin down the hardware pipeline:
snoop → write FIFO → PMT → log table → DMA, plus logging faults,
default-page absorption, and overload.
"""


from repro.hw.bus import SystemBus
from repro.hw.clock import Clock
from repro.hw.logger import Logger, LogMode
from repro.hw.memory import PhysicalMemory
from repro.hw.params import LOG_RECORD_SIZE, PAGE_SIZE, MachineConfig
from repro.hw.records import decode_record


class ScriptedHandler:
    """Fault handler that serves log pages from a frame list."""

    def __init__(self, memory, npages=4):
        self.frames = [memory.allocate_frame() for _ in range(npages)]
        self.next_page = 0
        self.pmt_map = {}
        self.written = []
        self.lost = 0
        self.overloads = []
        self.logger = None  # set by make_logger

    def pmt_miss(self, paddr):
        idx = self.pmt_map.get(paddr // PAGE_SIZE)
        if idx is not None:
            # The kernel reloads the PMT entry it found (section 3.2).
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
    bus = SystemBus()
    clock = Clock()
    logger = Logger(config, memory, bus, clock)
    handler = ScriptedHandler(memory)
    handler.logger = logger
    logger.attach_fault_handler(handler)
    default = memory.allocate_frame()
    logger.set_default_page(default.base_addr)
    return logger, handler, memory, config


def data_page(memory):
    return memory.allocate_frame()


def write_at(paddr, value=0x4321):
    """A 4-byte logged write, as ``snoop_write``'s ``(paddr, value, size)``."""
    return paddr, value, 4


class TestLoggerPipeline:
    def test_untagged_writes_ignored(self):
        """Without the bus "log" signal the logger never sees the write."""
        logger, handler, memory, _ = make_logger()
        logger.bus.logger = logger
        frame = data_page(memory)
        logger.bus.write_transaction(10, 5, frame.base_addr, 1, 4, None, 0)
        assert logger.write_fifo.occupancy == 0
        logger.bus.write_transaction(20, 5, frame.base_addr, 1, 4, 1, 0)
        assert logger.write_fifo.occupancy == 1

    def test_record_dma_contents(self):
        """The DMA'd record carries address, value, size, timestamp."""
        logger, handler, memory, _ = make_logger()
        frame = data_page(memory)
        logger.pmt.load(frame.base_addr, 1)
        log_base = handler.frames[0].base_addr
        handler.next_page = 1
        logger.log_table.load(1, log_base)

        logger.snoop_write(100, *write_at(frame.base_addr + 0x40, 0x4321))
        logger.flush()

        raw = memory.read_bytes(log_base, LOG_RECORD_SIZE)
        record = decode_record(raw)
        assert record.addr == frame.base_addr + 0x40
        assert record.value == 0x4321
        assert record.size == 4
        assert record.timestamp > 0
        assert logger.stats.records_logged == 1
        assert handler.written == [(1, log_base, LOG_RECORD_SIZE)]

    def test_records_sequential_in_log(self):
        """Earlier writes land at lower offsets (section 2.1)."""
        logger, handler, memory, _ = make_logger()
        frame = data_page(memory)
        logger.pmt.load(frame.base_addr, 1)
        log_base = handler.frames[0].base_addr
        handler.next_page = 1
        logger.log_table.load(1, log_base)

        for i in range(10):
            logger.snoop_write(100 + 40 * i, *write_at(frame.base_addr + 4 * i, i))
        logger.flush()

        values = [
            decode_record(memory.read_bytes(log_base + 16 * i, 16)).value
            for i in range(10)
        ]
        assert values == list(range(10))

    def test_timestamps_nondecreasing(self):
        logger, handler, memory, _ = make_logger()
        frame = data_page(memory)
        logger.pmt.load(frame.base_addr, 1)
        log_base = handler.frames[0].base_addr
        handler.next_page = 1
        logger.log_table.load(1, log_base)
        for i in range(20):
            logger.snoop_write(10 * i, *write_at(frame.base_addr + 4 * i, i))
        logger.flush()
        stamps = [
            decode_record(memory.read_bytes(log_base + 16 * i, 16)).timestamp
            for i in range(20)
        ]
        assert stamps == sorted(stamps)

    def test_pmt_miss_fault_reloads(self):
        logger, handler, memory, _ = make_logger()
        frame = data_page(memory)
        handler.pmt_map[frame.base_addr // PAGE_SIZE] = 1
        log_base = handler.frames[0].base_addr
        handler.next_page = 1
        logger.log_table.load(1, log_base)

        logger.snoop_write(100, *write_at(frame.base_addr))
        logger.flush()
        assert logger.stats.pmt_fault_count == 1
        assert logger.stats.records_logged == 1
        # The entry is now loaded: no further faults.
        logger.snoop_write(200, *write_at(frame.base_addr + 4))
        logger.flush()
        assert logger.stats.pmt_fault_count == 1

    def test_unknown_page_drops_record(self):
        logger, handler, memory, _ = make_logger()
        frame = data_page(memory)  # never registered in pmt_map
        logger.snoop_write(100, *write_at(frame.base_addr))
        logger.flush()
        assert logger.stats.records_dropped == 1
        assert logger.stats.records_logged == 0

    def test_page_boundary_fault_gets_next_page(self):
        """Crossing a page boundary invalidates and refills (section 3.2)."""
        logger, handler, memory, _ = make_logger()
        frame = data_page(memory)
        logger.pmt.load(frame.base_addr, 1)
        per_page = PAGE_SIZE // LOG_RECORD_SIZE
        n = per_page + 5

        for i in range(n):
            logger.snoop_write(100 * i, *write_at(frame.base_addr + 4 * (i % 1024), i))
        logger.flush()

        assert logger.stats.records_logged == n
        # First fault loads page 0, second fault crosses into page 1.
        assert logger.stats.boundary_fault_count == 2
        assert handler.next_page == 2
        second_page = handler.frames[1].base_addr
        rec = decode_record(memory.read_bytes(second_page, 16))
        assert rec.value == per_page

    def test_default_page_absorbs_when_no_page(self):
        """Records are lost when the user has not extended the log."""
        logger, handler, memory, _ = make_logger()
        frame = data_page(memory)
        logger.pmt.load(frame.base_addr, 1)
        handler.frames = []  # no pages available at all

        logger.snoop_write(100, *write_at(frame.base_addr, 7))
        logger.flush()
        assert logger.stats.records_dropped == 1
        assert logger.stats.records_logged == 0
        assert handler.lost == 1
        # The default page keeps absorbing without further allocation.
        logger.snoop_write(200, *write_at(frame.base_addr + 4, 8))
        logger.flush()
        assert logger.stats.records_dropped == 2

    def test_overload_interrupt_fires_above_threshold(self):
        logger, handler, memory, config = make_logger(
            logger_fifo_capacity=16, logger_overload_threshold=4
        )
        frame = data_page(memory)
        logger.pmt.load(frame.base_addr, 1)
        handler.next_page = 1
        logger.log_table.load(1, handler.frames[0].base_addr)

        # Burst of writes at the same cycle: the pipeline cannot keep up.
        for i in range(6):
            logger.snoop_write(10, *write_at(frame.base_addr + 4 * i, i))
        assert logger.stats.overload_events >= 1
        assert handler.overloads
        # The overload flush drained the queue that crossed the threshold.
        assert logger.write_fifo.occupancy <= 1
        logger.flush()
        assert logger.stats.records_logged == 6

    def test_no_overload_when_spaced_out(self):
        logger, handler, memory, config = make_logger(
            logger_fifo_capacity=16, logger_overload_threshold=4
        )
        frame = data_page(memory)
        logger.pmt.load(frame.base_addr, 1)
        handler.next_page = 1
        logger.log_table.load(1, handler.frames[0].base_addr)

        gap = config.logger_service_cycles + 5
        for i in range(20):
            logger.snoop_write(gap * i, *write_at(frame.base_addr + 4 * i, i))
        logger.flush()
        assert logger.stats.overload_events == 0

    def test_indexed_mode_stores_bare_values(self):
        logger, handler, memory, _ = make_logger()
        frame = data_page(memory)
        logger.pmt.load(frame.base_addr, 1)
        logger.set_log_mode(1, LogMode.INDEXED)
        log_base = handler.frames[0].base_addr
        handler.next_page = 1
        logger.log_table.load(1, log_base)

        for i, v in enumerate([10, 20, 30]):
            logger.snoop_write(100 * (i + 1), *write_at(frame.base_addr + 4 * i, v))
        logger.flush()
        got = [memory.read(log_base + 4 * i, 4) for i in range(3)]
        assert got == [10, 20, 30]

    def test_direct_mapped_mode_mirrors_offsets(self):
        logger, handler, memory, _ = make_logger()
        frame = data_page(memory)
        dest = memory.allocate_frame()
        logger.pmt.load(frame.base_addr, 1)
        logger.set_log_mode(1, LogMode.DIRECT_MAPPED)
        logger.load_direct_mapping(frame.base_addr, dest.base_addr)

        logger.snoop_write(100, *write_at(frame.base_addr + 0x123 * 4, 77))
        logger.flush()
        assert memory.read(dest.base_addr + 0x123 * 4, 4) == 77

    def test_unload_log_returns_address_and_clears(self):
        logger, handler, memory, _ = make_logger()
        frame = data_page(memory)
        logger.pmt.load(frame.base_addr, 1)
        log_base = handler.frames[0].base_addr
        handler.next_page = 1
        logger.log_table.load(1, log_base)
        logger.snoop_write(100, *write_at(frame.base_addr))
        logger.flush()

        addr = logger.unload_log(1)
        assert addr == log_base + LOG_RECORD_SIZE
        assert logger.pmt.lookup(frame.base_addr) is None
