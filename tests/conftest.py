"""Shared fixtures for the LVM reproduction test suite."""

from __future__ import annotations

from collections import OrderedDict

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


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "no_lvm_san: run without the --lvm-san detector (the test asserts "
        "a path an attached probe subscriber changes, or leaves a stage "
        "open on purpose)",
    )


@pytest.fixture(autouse=True)
def _no_leaked_subscribers():
    """A test that dies mid-injection or mid-trace must not poison its
    neighbours: a leaked probe-spine subscriber (fault plan,
    Observability, flight recorder, causal tracker, analytics hub, race
    detector) would make every later install of its kind raise."""
    yield
    from repro import probe

    probe.detach_all()


@pytest.fixture(autouse=True)
def _lvm_san(request):
    """Under ``--lvm-san``, run the test inside a LogRaceDetector and
    fail it on a race or on a probe stage left open at its end.

    Tests marked ``no_lvm_san`` run bare.  Tests that install their own
    detector (tests/sanitize) opt out by uninstalling first; a leaked
    detector is cleared with every other spine subscriber by the
    fixture above.
    """
    from repro.sanitize import race

    if (
        not request.config.getoption("--lvm-san")
        or request.node.get_closest_marker("no_lvm_san") is not None
        or race.active() is not None
    ):
        yield
        return
    detector = race.LogRaceDetector()
    race.install(detector)
    try:
        yield
    finally:
        race.uninstall()
    assert not detector.races_seen and not detector.open_stages, (
        f"--lvm-san:\n{detector.summary()}"
    )


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


def reuse_distances(line_sequence: list[int]) -> list[int]:
    """LRU stack distances for each access (-1 = first touch).

    The naive list-reversal oracle that
    :class:`repro.analytics.core.LocalityFold` is checked against.
    """
    stack: OrderedDict[int, None] = OrderedDict()
    out = []
    for line in line_sequence:
        if line in stack:
            distance = list(stack.keys())[::-1].index(line)
            out.append(distance)
            stack.move_to_end(line)
        else:
            out.append(-1)
            stack[line] = None
    return out
