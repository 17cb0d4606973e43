"""Seeded violation: an early return leaks an open spine stage."""

from repro import probe


def handler(req, now):
    sp = probe._ACTIVE
    if sp is not None:
        sp.stage_open("wal.append", now, 0)
    if req is None:
        return None  # leaves the stage open on a normal path
    if sp is not None:
        sp.stage_close("wal.append", now, now, 0)
    return req
