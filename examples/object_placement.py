#!/usr/bin/env python3
"""Object placement: logging by region, not by type (section 2.7).

The paper's alternative to annotating every write: put objects that
need logging in a logged region and everything else in a plain region.
This example builds the Python analogue of the overloaded C++ ``new``
(two heaps over two regions), shows the field-fracturing optimisation
for a hot object, and runs the placement audit that catches mistakes.

Run:  python examples/object_placement.py
"""

from repro import (
    HeapAllocator,
    LogSegment,
    StdRegion,
    StdSegment,
    audit_placement,
    boot,
    this_process,
)
from repro.analytics import RedundancyFold, fold_records


def make_heap(proc, logged):
    seg = StdSegment(64 * 1024)
    region = StdRegion(seg)
    if logged:
        region.log(LogSegment())
    region.bind(proc.address_space())
    return HeapAllocator(proc, region)


def main() -> None:
    machine = boot()
    proc = this_process()

    logged_heap = make_heap(proc, logged=True)
    plain_heap = make_heap(proc, logged=False)
    print("two heaps: one over a logged region, one over a plain region\n")

    # The same "class", two placements — only one is logged.
    persistent_account = logged_heap.allocate(64)
    scratch_account = plain_heap.allocate(64)
    proc.write(persistent_account, 1000)
    proc.write(scratch_account, 9999)
    machine.quiesce()
    log = logged_heap.region.log_segment
    print(f"wrote both accounts; log holds {log.record_count} record "
          "(only the logged-heap instance)")

    # Field fracturing: a simulation object with 2 persistent words and
    # a large scratch area updated constantly.
    persistent_part = logged_heap.allocate(8)
    scratch_part = plain_heap.allocate(248)
    for step in range(500):
        proc.write(scratch_part + 4 * (step % 62), step)  # temporaries
        if step % 100 == 99:
            proc.write(persistent_part, step)  # the state that matters
    machine.quiesce()
    print(f"\nfield-fractured object: 500 scratch writes + 5 persistent "
          f"writes -> {log.record_count - 1} new log records")

    (report,) = fold_records(log.records(), RedundancyFold())
    print(f"redundancy analysis: {report.total_writes} logged writes, "
          f"{report.unique_locations} locations, "
          f"compression ratio {report.compression_ratio:.1f}")

    # The audit: catch objects placed on the wrong heap.
    objects = {
        "persistent_account": persistent_account,
        "scratch_account": scratch_account,
        "persistent_part": persistent_part,
        "scratch_part": scratch_part,
        "oops_journal": plain_heap.allocate(32),  # should be logged!
    }
    misplaced = audit_placement(
        objects,
        logged_heap,
        plain_heap,
        must_log={"persistent_account", "persistent_part", "oops_journal"},
    )
    print(f"\nplacement audit flags: {misplaced}")
    print("(the paper: 'misplacement of objects in regions can be "
          "detected by audit code in most cases')")


if __name__ == "__main__":
    main()
