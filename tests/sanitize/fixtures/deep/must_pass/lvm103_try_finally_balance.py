"""Conforming twin: the stage closes on every path via finally."""

from repro import probe


def handler(req, now):
    sp = probe._ACTIVE
    if sp is not None:
        sp.stage_open("wal.append", now, 0)
    try:
        return process(req)
    finally:
        if sp is not None:
            sp.stage_close("wal.append", now, now, 0)


def process(req):
    return req
