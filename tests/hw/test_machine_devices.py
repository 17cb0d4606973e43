"""Unit tests: machine wiring, sync/quiesce, on-chip logger."""

import pytest

from repro.errors import ConfigError
from repro.hw.bus import SystemBus
from repro.hw.clock import Clock
from repro.hw.cpu import CPU
from repro.hw.machine import Machine
from repro.hw.memory import PhysicalMemory
from repro.hw.params import NEXT_GENERATION, PAGE_SIZE, MachineConfig
from repro.hw.records import decode_record
from repro.hw.tlb_logger import OnChipLogger

SMALL = MachineConfig(memory_bytes=8 * 1024 * 1024)


class TestMachine:
    def test_has_configured_cpus(self):
        machine = Machine(SMALL.with_changes(num_cpus=3))
        assert len(machine.cpus) == 3
        assert machine.cpu(2).index == 2

    def test_bad_cpu_index(self):
        machine = Machine(SMALL)
        with pytest.raises(ConfigError):
            machine.cpu(99)

    def test_prototype_logger_snoops_bus(self):
        machine = Machine(SMALL)
        assert machine.on_chip_logger is None
        assert machine.bus.logger is machine.logger

    def test_next_generation_has_onchip_logger(self):
        machine = Machine(NEXT_GENERATION.with_changes(memory_bytes=SMALL.memory_bytes))
        assert machine.on_chip_logger is not None
        assert machine.bus.logger is None

    def test_time_is_high_water_mark(self):
        machine = Machine(SMALL)
        machine.cpu(0).compute(50)
        machine.cpu(1).compute(200)
        assert machine.time() == 200

    def test_suspend_all(self):
        machine = Machine(SMALL)
        machine.suspend_all_until(1000)
        assert all(cpu.now == 1000 for cpu in machine.cpus)

    def test_quiesce_drains_buffers(self):
        machine = Machine(SMALL)
        cpu = machine.cpu(0)
        complete = cpu.write_through(0x100, 1, 4, None)
        t = machine.quiesce()
        assert t >= complete

    def test_sync_waits_for_logger(self):
        """sync() charges the CPU for the logger's backlog."""
        machine = Machine(SMALL)
        frame = machine.memory.allocate_frame()
        log_frame = machine.memory.allocate_frame()
        machine.logger.pmt.load(frame.base_addr, 0)
        machine.logger.log_table.load(0, log_frame.base_addr)
        cpu = machine.cpu(0)
        for i in range(20):
            cpu.write_through(frame.base_addr + 4 * i, i, 4, log_tag=0)
        t_before = cpu.now
        machine.sync(cpu)
        # 20 records at 28 cycles each cannot have finished by t_before.
        assert cpu.now > t_before
        assert machine.logger.write_fifo.occupancy == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            MachineConfig(memory_bytes=1000)  # not page aligned
        with pytest.raises(ConfigError):
            MachineConfig(num_cpus=0)
        with pytest.raises(ConfigError):
            MachineConfig(logger_overload_threshold=100, logger_fifo_capacity=50)
        with pytest.raises(ConfigError):
            MachineConfig(write_buffer_depth=0)

    def test_config_helpers(self):
        config = MachineConfig()
        assert config.cycle_ns == 40.0
        assert config.cycles_to_seconds(25_000_000) == 1.0
        assert config.num_frames == config.memory_bytes // PAGE_SIZE
        changed = config.with_changes(num_cpus=8)
        assert changed.num_cpus == 8
        assert config.num_cpus == 4  # original untouched


class TestOnChipLogger:
    def make(self):
        config = NEXT_GENERATION.with_changes(memory_bytes=8 * 1024 * 1024)
        memory = PhysicalMemory(config.num_frames)
        bus = SystemBus()
        clock = Clock()
        cpu = CPU(0, config, bus, clock)
        logger = OnChipLogger(config, memory, bus, clock)
        return logger, cpu, memory

    def test_record_written_through_sink(self):
        logger, cpu, memory = self.make()
        frame = memory.allocate_frame()
        dests = []

        def sink(payload):
            dest = frame.base_addr + 16 * len(dests)
            dests.append(dest)
            return dest

        logger.register_log(0, sink)
        logger.logged_write(cpu, 0, vaddr=0x1000_0040, value=99, size=4)
        assert logger.records_logged == 1
        record = decode_record(memory.read_bytes(dests[0], 16))
        assert record.addr == 0x1000_0040
        assert record.is_virtual
        assert record.value == 99

    def test_unregistered_log_drops(self):
        logger, cpu, memory = self.make()
        logger.logged_write(cpu, 5, 0x1000, 1, 4)
        assert logger.records_dropped == 1

    def test_full_sink_drops(self):
        logger, cpu, memory = self.make()
        logger.register_log(0, lambda payload: None)
        logger.logged_write(cpu, 0, 0x1000, 1, 4)
        assert logger.records_dropped == 1
        assert logger.records_logged == 0

    def test_unregister(self):
        logger, cpu, memory = self.make()
        logger.register_log(0, lambda p: None)
        logger.unregister_log(0)
        logger.logged_write(cpu, 0, 0x1000, 1, 4)
        assert logger.records_dropped == 1

    def test_record_dma_occupies_bus(self):
        logger, cpu, memory = self.make()
        frame = memory.allocate_frame()
        logger.register_log(0, lambda p: frame.base_addr)
        before = cpu.bus.total_busy_cycles
        logger.logged_write(cpu, 0, 0x1000, 1, 4)
        assert cpu.bus.total_busy_cycles - before == 8  # log DMA bus time
