"""The probe spine's binding rules: one gate, per-event subscription."""

import pytest

from repro import probe
from repro.errors import ConfigError
from repro.obs import core as obscore
from repro.obs import flight as obsflight
from repro.obs.core import Observability
from repro.obs.flight import FlightRecorder
from repro.obs.trace import Tracer
from repro.sanitize import race


@pytest.fixture(autouse=True)
def _nothing_attached():
    """Start from an empty spine (shelve the ``--lvm-san`` detector)."""
    race.uninstall()


class Listener:
    """A stand-in subscriber logging what reaches it."""

    def __init__(self, name, log, events=("stage_close",)):
        self.name, self.log, self.events = name, log, events

    def probes(self):
        return {
            event: (lambda *args, _e=event: self.log.append((self.name, _e, args)))
            for event in self.events
        }


def test_gate_is_none_until_something_attaches():
    assert probe._ACTIVE is None
    with obsflight.installed():
        assert probe._ACTIVE is not None
    assert probe._ACTIVE is None


def test_unsubscribed_events_bind_to_a_no_op():
    # A flight-only run: per-bus-transaction events reach nobody.
    with obsflight.installed() as fr:
        sp = probe._ACTIVE
        assert sp.bus_txn is probe._ignore
        assert sp.logger_dma is probe._ignore
        sp.bus_txn(0, 5, 8)
        assert fr.seen == 0


def test_single_handler_is_bound_directly():
    with obsflight.installed() as fr:
        assert probe._ACTIVE.stage_close == fr._stage_close


def test_fan_out_follows_kind_order_not_attach_order():
    log = []
    probe.attach("flight", Listener("flight", log))
    probe.attach("obs", Listener("obs", log))
    try:
        probe._ACTIVE.stage_close("wal.append", 0, 1, 0)
    finally:
        probe.detach_all()
    assert [name for name, _, _ in log] == ["obs", "flight"]


def test_unknown_event_is_rejected_at_attach():
    with pytest.raises(ConfigError, match="unknown probe events"):
        probe.attach("obs", Listener("obs", [], events=("stage_closed",)))
    assert probe._ACTIVE is None
    with pytest.raises(AttributeError):
        with obsflight.installed():
            probe._ACTIVE.stage_closed("wal.append", 0, 1, 0)


def test_detail_flag_follows_the_tracer():
    with obscore.installed(Observability()):
        assert not probe._ACTIVE.detail
        with obsflight.installed(FlightRecorder()):
            assert not probe._ACTIVE.detail
    with obscore.installed(Observability(tracer=Tracer())):
        assert probe._ACTIVE.detail


def test_second_subscriber_of_a_kind_is_refused():
    with obsflight.installed():
        with pytest.raises(ConfigError, match="already installed"):
            obsflight.install(FlightRecorder())
