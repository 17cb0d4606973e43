"""Behavioural tests: logger drain timing, bus interaction."""


from repro.hw.bus import SystemBus
from repro.hw.clock import Clock
from repro.hw.logger import Logger
from repro.hw.memory import PhysicalMemory
from repro.hw.params import MachineConfig


def make(**overrides):
    config = MachineConfig(memory_bytes=4 * 1024 * 1024, **overrides)
    memory = PhysicalMemory(config.num_frames)
    bus = SystemBus()
    clock = Clock()
    logger = Logger(config, memory, bus, clock)
    frame = memory.allocate_frame()
    log_frame = memory.allocate_frame()
    logger.pmt.load(frame.base_addr, 0)
    logger.log_table.load(0, log_frame.base_addr)
    return logger, frame, log_frame, memory, config


def wr(frame, i):
    """A 4-byte logged write, as ``snoop_write``'s ``(paddr, value, size)``."""
    return frame.base_addr + 4 * (i % 1024), i, 4


class TestDrainTiming:
    def test_drain_respects_service_rate(self):
        logger, frame, *_ , config = make()
        for i in range(10):
            logger.snoop_write(0, *wr(frame, i))
        # At time of 5 service periods, exactly 5 records are done.
        logger.drain(5 * config.logger_service_cycles)
        assert logger.stats.records_logged == 5
        assert logger.write_fifo.occupancy == 5

    def test_drain_is_idempotent(self):
        logger, frame, *_, config = make()
        logger.snoop_write(0, *wr(frame, 0))
        logger.drain(10 * config.logger_service_cycles)
        logged = logger.stats.records_logged
        logger.drain(10 * config.logger_service_cycles)
        assert logger.stats.records_logged == logged

    def test_idle_pipeline_processes_at_arrival_plus_service(self):
        logger, frame, *_, config = make()
        logger.snoop_write(1000, *wr(frame, 0))
        logger.drain(1000 + config.logger_service_cycles - 1)
        assert logger.stats.records_logged == 0
        logger.drain(1000 + config.logger_service_cycles)
        assert logger.stats.records_logged == 1

    def test_flush_returns_completion_time(self):
        logger, frame, *_, config = make()
        for i in range(3):
            logger.snoop_write(100, *wr(frame, i))
        done = logger.flush()
        assert done == 100 + 3 * config.logger_service_cycles
        assert logger.write_fifo.occupancy == 0

    def test_dma_occupies_bus(self):
        logger, frame, log_frame, memory, config = make()
        bus_before = logger.bus.total_busy_cycles
        logger.snoop_write(0, *wr(frame, 0))
        logger.flush()
        assert logger.bus.total_busy_cycles - bus_before == config.log_dma_bus_cycles


class TestStatsSnapshots:
    def test_logger_stats_snapshot_keys(self):
        logger, frame, *_ = make()
        logger.snoop_write(0, *wr(frame, 0))
        logger.flush()
        snap = logger.stats.snapshot()
        assert snap["records_logged"] == 1
        assert snap["records_dropped"] == 0
        assert "overload_events" in snap

    def test_cpu_stats_snapshot(self):
        from repro.hw.cpu import CPU

        config = MachineConfig()
        cpu = CPU(0, config, SystemBus(), Clock())
        cpu.compute(10)
        cpu.cached_read(0x40)
        snap = cpu.stats.snapshot()
        assert snap["compute_cycles"] == 10
        assert snap["loads"] == 1
