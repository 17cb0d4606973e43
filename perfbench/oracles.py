"""Output oracles and the simulated fingerprint.

Every oracle takes a unit's outputs as plain values and returns the
list of failures it found (empty when the output is correct), so the
tests in ``test_oracles.py`` can hand each one a corrupted output and
see it fail.  A failed oracle fails every op of the unit it checked.
"""

from __future__ import annotations

import hashlib


def time_warp_matches_sequential(final_state: dict, committed: int,
                                 ref_state: dict, ref_committed: int) -> list[str]:
    """Optimistic run == the sequential reference simulator."""
    failures = []
    if committed != ref_committed:
        failures.append(f"{committed} events committed, sequential reference {ref_committed}")
    diverged = sorted(obj for obj in ref_state if final_state.get(obj) != ref_state[obj])
    if diverged or set(final_state) != set(ref_state):
        failures.append(f"final state diverged from the sequential reference on objects {diverged}")
    return failures


def tpca_recovery(consistent: bool, committed_tids, expected_tids,
                  recovered_image: bytes, live_image: bytes) -> list[str]:
    """TPC-A: balanced books, and WAL replay rebuilds the live image.

    ``expected_tids`` are the transactions committed since the last
    truncation; the run stops short of a truncation boundary, so it is
    never empty and recovery must replay exactly those.
    """
    failures = []
    if not consistent:
        failures.append("account, teller and branch sums disagree")
    if not committed_tids:
        failures.append("recovery found no committed transactions in the WAL")
    elif set(committed_tids) != set(expected_tids):
        failures.append(
            f"recovery replayed {len(committed_tids)} transactions, expected {len(expected_tids)}"
        )
    if recovered_image != live_image:
        failures.append("recovered image differs from the live image")
    return failures


def serve_acks(expected_commits: int, acked: list, commit_order: list,
               wal_tids, crashed: bool) -> list[str]:
    """Serve: every commit acked, in commit order, and durable in the WAL."""
    failures = []
    if crashed:
        failures.append("server crashed")
    if len(acked) != expected_commits:
        failures.append(f"{len(acked)} of {expected_commits} commits acked")
    if commit_order != acked:
        failures.append("ack order differs from commit order")
    if sorted(wal_tids) != sorted(acked):
        failures.append("WAL committed tids differ from the acked tids")
    return failures


def block_copy(source: bytes, destination: bytes, records_in_log: int) -> list[str]:
    """Logged copy: identical bytes and one log record per word."""
    failures = []
    if destination != source:
        failures.append("destination differs from source")
    words = len(source) // 4
    if records_in_log != words:
        failures.append(f"{records_in_log} log records for {words} copied words")
    return failures


def fingerprint(*parts) -> bytes:
    """SHA-256 over ints, strings, bytes and nested lists/tuples/dicts."""
    h = hashlib.sha256()

    def feed(part) -> None:
        if isinstance(part, (bytes, bytearray)):
            h.update(b"b%d:" % len(part))
            h.update(part)
        elif isinstance(part, dict):
            h.update(b"d%d:" % len(part))
            for key in sorted(part):
                feed(key)
                feed(part[key])
        elif isinstance(part, (list, tuple)):
            h.update(b"l%d:" % len(part))
            for item in part:
                feed(item)
        elif isinstance(part, (int, str)):
            h.update(f"{type(part).__name__}{part};".encode())
        else:
            raise TypeError(f"cannot fingerprint {type(part).__name__}")

    feed(parts)
    return h.digest()
