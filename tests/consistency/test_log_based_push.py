"""Pins on the log-based protocol's push (section 2.6).

Each push drains the writer's log, charges the per-record read cost and
transmits one update per logged write.  The pins fix, per push, the
writer cycles the push took and the exact updates it sent, for the
streaming and the release-only protocol.
"""

import pytest

from repro.consistency import DsmNode, LogBasedProtocol
from repro.core.process import create_process
from repro.hw.params import PAGE_SIZE

#: (offset, value, size): mixed sizes, both pages, repeated locations
WRITES = [
    ((37 * i) % (2 * PAGE_SIZE // 4) * 4, (i * 0x9E3779B1) & 0xFFFFFFFF, 4)
    for i in range(30)
] + [
    (PAGE_SIZE + 2 * i, 0x1234 + i, 2) for i in range(6)
] + [
    (13 + i, 0xA0 + i, 1) for i in range(5)
] + [
    (0, 7, 4), (0, 8, 4), (PAGE_SIZE, 9, 4),
]

#: elapsed writer cycles of each push, for (streaming, release-only)
PUSH_CYCLES = {
    True: [1126, 890, 1003],
    False: [1499],
}


def _pushes(machine, streaming: bool) -> list[tuple[int, list]]:
    size = 2 * PAGE_SIZE
    writer = DsmNode(0, machine.current_process, size)
    consumers = [
        DsmNode(i + 1, create_process(machine, cpu_index=(i + 1) % len(machine.cpus)), size)
        for i in range(2)
    ]
    protocol = LogBasedProtocol(writer, consumers, streaming=streaming)
    proc = writer.proc
    pushes: list[tuple[int, list]] = []
    sent: list = []
    transmit, push = protocol.transmit, protocol._push_updates

    def recording_transmit(updates):
        sent.extend(updates)
        transmit(updates)

    def timed_push():
        sent.clear()
        t0 = proc.now
        push()
        pushes.append((proc.now - t0, list(sent)))

    protocol.transmit = recording_transmit
    protocol._push_updates = timed_push
    protocol.acquire()
    for offset, value, nbytes in WRITES:
        protocol.write(offset, value, nbytes)
    protocol.release()
    assert protocol.consistent()
    assert protocol.records_sent == len(WRITES)
    return pushes


@pytest.mark.parametrize("streaming", [True, False])
def test_push_cycles_and_updates_are_pinned(machine, streaming):
    pushes = _pushes(machine, streaming)
    updates = [u for _cycles, sent in pushes for u in sent]
    assert updates == [
        (offset, value.to_bytes(nbytes, "little")) for offset, value, nbytes in WRITES
    ]
    assert [cycles for cycles, _sent in pushes] == PUSH_CYCLES[streaming]
