"""The probe spine's binding rules: one gate, per-event subscription."""

import ast
from pathlib import Path

import pytest

import repro
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
    # A flight-only run: per-bus-transaction events reach nobody, so
    # they are None and every site skips them.
    with obsflight.installed():
        sp = probe._ACTIVE
        assert sp.bus_txn is None
        assert sp.logger_dma is None


def _tests_binding(node, event):
    """``node`` is the condition ``sp.<event> is not None``."""
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Attribute)
        and isinstance(node.left.value, ast.Name)
        and node.left.value.id == "sp"
        and node.left.attr == event
        and [type(op) for op in node.ops] == [ast.IsNot]
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value is None
    )


def _conjuncts(test):
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return test.values
    return [test]


def _guarded(call, event, parents):
    """Whether ``call`` runs only once ``sp.<event> is not None`` held:
    it sits in the body of an ``if`` (or conditional expression) whose
    test has that conjunct, or after it in the same ``and`` chain."""
    child, node = call, parents.get(call)
    while node is not None and not isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    ):
        if isinstance(node, ast.If) and any(child is stmt for stmt in node.body):
            if any(_tests_binding(c, event) for c in _conjuncts(node.test)):
                return True
        elif isinstance(node, ast.IfExp) and child is node.body:
            if any(_tests_binding(c, event) for c in _conjuncts(node.test)):
                return True
        elif isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            before = node.values[: [v is child for v in node.values].index(True)]
            if any(_tests_binding(c, event) for c in before):
                return True
        child, node = node, parents.get(node)
    return False


def test_every_probe_call_tests_its_own_event():
    # An unbound event is None: a site that calls it untested raises
    # TypeError the first time it runs with any subscriber attached.
    calls = 0
    unguarded = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parents = {
            child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
        }
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if not (
                isinstance(node, ast.Call)
                and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "sp"
                and func.attr in probe.EVENTS
            ):
                continue
            calls += 1
            if not _guarded(node, func.attr, parents):
                unguarded.append(f"{path.name}:{node.lineno} sp.{func.attr}")
    assert calls > 50  # the sweep found the sites at all
    assert not unguarded, unguarded


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
