"""Seeded violation: state mutation inside the probe-spine gate."""

from repro import probe


def traced(obj):
    sp = probe._ACTIVE
    if sp is not None:
        obj.count += 1  # traced and bare runs now diverge
