"""Shared fixtures for the LVM reproduction test suite."""

from __future__ import annotations

import pytest

from repro.core.context import boot, set_current_machine
from repro.core.log_segment import LogSegment
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.hw.params import NEXT_GENERATION, MachineConfig

#: Small physical memory keeps tests fast; plenty for any single test.
TEST_CONFIG = MachineConfig(memory_bytes=32 * 1024 * 1024)
TEST_CONFIG_ONCHIP = NEXT_GENERATION.with_changes(memory_bytes=32 * 1024 * 1024)


def pytest_addoption(parser):
    parser.addoption(
        "--lvm-san",
        action="store_true",
        default=False,
        help="run every test under the log-race sanitizer and fail "
        "tests that perform unsynchronized cross-CPU logged writes",
    )


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    """A test that dies mid-injection must not poison its neighbours."""
    yield
    from repro.faults import plan as faultplan

    faultplan.uninstall()


@pytest.fixture(autouse=True)
def _no_leaked_subscribers():
    """Same for any probe-spine subscriber (Observability, flight
    recorder, causal tracker, analytics hub, race detector): a leaked
    one would make every later install of its kind raise."""
    yield
    from repro import probe

    probe.detach_all()


@pytest.fixture(autouse=True)
def _lvm_san(request):
    """Under ``--lvm-san``, run the test inside a LogRaceDetector.

    Tests that install their own detector (tests/sanitize) opt out by
    uninstalling first; a leaked detector is cleared with every other
    spine subscriber by the fixture above.
    """
    from repro.sanitize import race

    if not request.config.getoption("--lvm-san") or race.active() is not None:
        yield
        return
    detector = race.LogRaceDetector()
    race.install(detector)
    try:
        yield
    finally:
        race.uninstall()
    assert not detector.races_seen, f"--lvm-san:\n{detector.summary()}"


@pytest.fixture
def machine():
    """A freshly booted prototype machine, installed as current."""
    m = boot(TEST_CONFIG)
    yield m
    set_current_machine(None)


@pytest.fixture
def onchip_machine():
    """A machine with the section 4.6 on-chip logger."""
    m = boot(TEST_CONFIG_ONCHIP)
    yield m
    set_current_machine(None)


@pytest.fixture
def proc(machine):
    """The initial process of the prototype machine."""
    return machine.current_process


def make_logged_region(machine, size=4 * 4096, log_kwargs=None, **log_extra):
    """Create and bind a logged region; returns (region, log, base_va)."""
    seg = StdSegment(size, machine=machine)
    region = StdRegion(seg)
    log = LogSegment(machine=machine, **(log_kwargs or {}), **log_extra)
    region.log(log)
    aspace = machine.current_process.address_space()
    va = region.bind(aspace)
    return region, log, va
