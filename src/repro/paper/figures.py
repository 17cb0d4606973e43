"""Figures 7–12 of section 4.

Each ``*_run`` docstring quotes the paper shape its ``*_check`` holds.
"""

from __future__ import annotations

from repro.baselines.bcopy import bcopy
from repro.core.region import StdRegion
from repro.core.segment import StdSegment
from repro.hw.params import LINE_SIZE, PAGE_SIZE
from repro.paper.harness import MB, Entry, bound_region, machine, write_loop
from repro.timewarp import SyntheticModel, TimeWarpSimulation


#: The SyntheticModel seed of Figures 7 and 8.
TIMEWARP_SEED = 7


def _timewarp(c, s, w, saver):
    """One single-scheduler run of the section 4.3 "simulated"
    simulation, forward path only: "the measurements do not incorporate
    the overhead for rollbacks, advancing global virtual time, and
    performing log truncation"."""
    return TimeWarpSimulation(
        SyntheticModel(c=c, s=s, w=w, num_objects=8, seed=TIMEWARP_SEED),
        end_time=250,
        saver=saver,
        n_schedulers=1,
        machine=machine(num_cpus=1),
        gvt_interval=10_000,
    ).run()


# ---------------------------------------------------------------------
# Figure 7: LVM versus copy-based checkpointing (section 4.3).

FIG7_CONFIGS = [(1, 32), (2, 64), (4, 128), (8, 256)]
FIG7_COMPUTE = [32, 64, 128, 256, 512, 1024, 2048, 4096]


def fig7_run():
    """Speedup of LVM over copy-based state saving against compute
    cycles per event c, for each (w, s).

    Paper shape: "LVM provides a speedup over copy-based checkpointing
    ranging from [a few] percent for large values of c to [hundreds of]
    percent for smaller values of c.  The larger values of s provide the
    greatest improvement...  The performance for larger values of w
    drops off for LVM when c is below 200 cycles or so because the
    logger overflows."
    """
    series = {"rollbacks": 0}
    for w, s in FIG7_CONFIGS:
        speedup, overloaded = [], []
        for c in FIG7_COMPUTE:
            copy = _timewarp(c, s, w, "copy")
            lvm = _timewarp(c, s, w, "lvm")
            series["rollbacks"] += copy.rollbacks + lvm.rollbacks
            speedup.append(copy.elapsed_cycles / lvm.elapsed_cycles)
            overloaded.append(lvm.overloads > 0)
        series[f"w={w}, s={s}"] = {"speedup": speedup, "overloaded": overloaded}
    return series


def fig7_check(s):
    assert s["rollbacks"] == 0
    for w, size in FIG7_CONFIGS:
        speedup = s[f"w={w}, s={size}"]["speedup"]
        # Speedup decreases monotonically-ish with c and stays >= ~1.
        assert speedup[0] > speedup[-1]
        assert speedup[-1] > 0.98
        assert max(speedup) > 1.3  # real benefit at small c
    small, large = s["w=1, s=32"], s["w=8, s=256"]
    # Larger objects benefit more at moderate c.
    mid = FIG7_COMPUTE.index(512)
    assert large["speedup"][mid] > small["speedup"][mid]
    # The overload drop-off exists for the largest w at the smallest c.
    assert large["overloaded"][0], "expected logger overload at w=8, c=32"
    assert not small["overloaded"][-1]


def fig7_table(s):
    rows = [["c →", *FIG7_COMPUTE]]
    for w, size in FIG7_CONFIGS:
        row = s[f"w={w}, s={size}"]
        rows.append([f"w={w}, s={size}"] + [
            f"{sp:.2f}{'*' if ov else ''}"
            for sp, ov in zip(row["speedup"], row["overloaded"])
        ])
    return rows


# ---------------------------------------------------------------------
# Figure 8: effect of the number of writes on LVM performance (4.3).

FIG8_CONFIGS = [(32, 256), (64, 512), (128, 1024), (256, 2048)]
FIG8_FRACTIONS = [1 / 8, 1 / 4, 1 / 2, 1.0]


def fig8_run():
    """Speedup of LVM over copy-based checkpointing against the
    fraction of the object written per event, for each (s, c).

    Paper shape: "the speedup decreases slowly as the fraction of the
    object being written is increased...  with an s of 64 bytes and a c
    of 512 cycles, there is relatively little change in the speedup
    between writing 1/8, 1/4 or 1/2 of the object.  It is only as the
    fraction approaches one that the difference becomes significant,
    and that overhead is largely due to write-through overhead."
    """
    series = {}
    for s, c in FIG8_CONFIGS:
        speedup = []
        for fraction in FIG8_FRACTIONS:
            w = max(1, int(s * fraction) // 4)
            copy = _timewarp(c, s, w, "copy")
            lvm = _timewarp(c, s, w, "lvm")
            speedup.append(copy.elapsed_cycles / lvm.elapsed_cycles)
        series[f"s={s}, c={c}"] = speedup
    return series


def fig8_check(s):
    for size, c in FIG8_CONFIGS:
        speedup = s[f"s={size}, c={c}"]
        # Speedup decreases slowly with the written fraction; LVM keeps
        # a clear win through half the object written, and only as the
        # fraction approaches one does write-through overhead eat the
        # advantage.
        assert speedup[0] >= speedup[-1] - 0.02
        assert speedup[0] > 1.1
        assert min(speedup[:3]) > 0.99
        assert min(speedup) > 0.8
    # ...and the early-fraction change is small (the paper's s=64/c=512
    # observation: little change between 1/8, 1/4 and 1/2).
    s64 = s["s=64, c=512"]
    assert abs(s64[0] - s64[2]) < 0.2
    # The drop from 1/2 to 1 exceeds the drop from 1/8 to 1/2.
    assert (s64[2] - s64[3]) >= (s64[0] - s64[2]) - 0.02


def fig8_table(s):
    labels = [f"s={size}, c={c}" for size, c in FIG8_CONFIGS]
    return [["fraction →", "1/8", "1/4", "1/2", "1"]] + [[k, *s[k]] for k in labels]


# ---------------------------------------------------------------------
# Figure 9: resetDeferredCopy() versus bcopy() (section 4.4).

FIG9_SEGMENTS = {"32 KB": 32 * 1024, "512 KB": 512 * 1024, "2 MB": 2 * MB}
FIG9_DIRTY = [0.0, 0.1, 0.25, 0.5, 0.66, 0.75, 0.9, 1.0]


def _reset_cycles(m, seg_bytes, dirty_fraction):
    """Dirty a fraction of the segment, then time resetDeferredCopy."""
    proc = m.current_process
    source = StdSegment(seg_bytes, machine=m)
    dest = StdSegment(seg_bytes, machine=m)
    dest.source_segment(source)
    aspace = proc.address_space()
    va = StdRegion(dest).bind(aspace)
    # Dirty whole pages (every line of each dirty page), untimed setup:
    # one write of the bytes a 0xD1 word stored at the start of every
    # line would leave over the zero source.
    lines = -(-int(seg_bytes * dirty_fraction) // LINE_SIZE)
    dest.write_bytes(0, (b"\xd1" + bytes(LINE_SIZE - 1)) * lines)
    t0 = proc.now
    aspace.reset_deferred_copy(va, va + seg_bytes, cpu=proc.cpu)
    return proc.now - t0


def _bcopy_cycles(m, seg_bytes):
    proc = m.current_process
    src = StdSegment(seg_bytes, machine=m)
    dst = StdSegment(seg_bytes, machine=m)
    t0 = proc.now
    bcopy(proc.cpu, src, dst, seg_bytes)
    return proc.now - t0


def fig9_run():
    """Cycles for resetDeferredCopy() against a raw bcopy of the whole
    segment as the dirty fraction varies, for three segment sizes.

    Paper shape: "resetDeferredCopy() performs better than a raw copy
    if less than about two-thirds of the segment is dirty."
    """
    series = {}
    for label, seg_bytes in FIG9_SEGMENTS.items():
        bcopy_cycles = _bcopy_cycles(machine(memory_bytes=1024 * MB), seg_bytes)
        series[label] = {
            "bcopy": bcopy_cycles,
            "reset": [
                _reset_cycles(machine(memory_bytes=1024 * MB), seg_bytes, f)
                for f in FIG9_DIRTY
            ],
        }
    return series


def fig9_check(s):
    for label in FIG9_SEGMENTS:
        bcopy_cycles, resets = s[label]["bcopy"], s[label]["reset"]
        # Crossover near two-thirds dirty (paper's headline result).
        cheaper = [f for f, c in zip(FIG9_DIRTY, resets) if c < bcopy_cycles]
        assert max(cheaper) >= 0.5, "reset should win below half dirty"
        dearer = [f for f, c in zip(FIG9_DIRTY, resets) if c >= bcopy_cycles]
        crossover = dearer[0] if dearer else None
        assert crossover is not None and 0.5 <= crossover <= 0.95
        # Reset cost grows monotonically with dirtiness.
        assert resets == sorted(resets)


def fig9_table(s):
    rows = [["kilocycles", "bcopy", *(f"reset {f:.0%}" for f in FIG9_DIRTY)]]
    for label in FIG9_SEGMENTS:
        panel = s[label]
        rows.append([label, panel["bcopy"] / 1000, *(c / 1000 for c in panel["reset"])])
    return rows


# ---------------------------------------------------------------------
# Figure 10: CPU cost of logged writes (section 4.5.2).

FIG10_CLUSTERS = [2, 4, 8]
FIG10_COMPUTE = [0, 16, 32, 64, 128, 256, 512, 1024]
FIG10_ITERATIONS = 400
FIG10_PAGES = 64


def fig10_run():
    """Cycles per write against compute cycles per iteration for
    clusters of 2, 4 and 8 writes, with and without logging: iterations
    of (c compute cycles; a burst of writes), addresses increasing so
    accesses hit the L2 but not generally the L1 (section 4.5.1).

    Paper shape: "For small values of c, the logger is overloaded,
    resulting in poor performance.  For larger values of c (the flat
    portion of the curve), the difference between logged and unlogged
    is the cost of the write-through mode of the cache.  The cost of
    the write-through increases with the size of write burst."
    """
    series = {}
    region_bytes = FIG10_PAGES * PAGE_SIZE
    for burst in FIG10_CLUSTERS:
        for logged in (True, False):
            costs = []
            for c in FIG10_COMPUTE:
                m = machine()
                _, va, _ = bound_region(m, FIG10_PAGES, 64 * MB if logged else None)
                elapsed = write_loop(m, va, region_bytes, FIG10_ITERATIONS, c, burst)
                costs.append((elapsed - c * FIG10_ITERATIONS) / (FIG10_ITERATIONS * burst))
            series[f"cluster {burst}, {'log' if logged else 'no log'}"] = costs
    return series


def fig10_check(s):
    for burst in FIG10_CLUSTERS:
        logged, unlogged = s[f"cluster {burst}, log"], s[f"cluster {burst}, no log"]
        # Overloaded region at tiny c: logged cost explodes.
        assert logged[0] > 10 * unlogged[0]
        # Flat region at large c: logged is close to unlogged plus the
        # write-through cost.
        assert logged[-1] < 15
        assert logged[-1] >= unlogged[-1]
    # The write-through gap grows with the burst size (section 4.5.2).
    gap2 = s["cluster 2, log"][-1] - s["cluster 2, no log"][-1]
    gap8 = s["cluster 8, log"][-1] - s["cluster 8, no log"][-1]
    assert gap8 > gap2


def fig10_table(s):
    labels = [f"cluster {b}, {kind}" for b in FIG10_CLUSTERS for kind in ("log", "no log")]
    return [["c →", *FIG10_COMPUTE]] + [[k, *s[k]] for k in labels]


# ---------------------------------------------------------------------
# Figures 11 and 12: the overload region (section 4.5.3), one logged
# write per iteration.

FIG11_COMPUTE = [0, 5, 10, 15, 20, 25, 27, 30, 40, 63, 127, 255, 630]
FIG12_COMPUTE = [0, 3, 6, 9, 12, 15, 18, 21, 24, 26, 27, 30, 40, 63]
OVERLOAD_PAGES = 16


def _overload_loop(c, iterations, logged=True):
    """Returns (cycles per iteration, overload events during the loop)."""
    m = machine()
    _, va, _ = bound_region(m, OVERLOAD_PAGES, 128 * MB if logged else None)
    before = m.logger.stats.overload_events
    elapsed = write_loop(m, va, OVERLOAD_PAGES * PAGE_SIZE, iterations, c)
    return elapsed / iterations, m.logger.stats.overload_events - before


def fig11_run():
    """Average cycles per iteration (w=0, l=1, c swept from 0 to 630),
    with and without logging.

    Paper shape: "overloading the logger is so expensive (more than
    30,000 cycles) that the time per iteration DECREASES as computation
    per loop increases.  However, this overload is avoided as long as
    there is no more than one logged write per 27 compute cycles on
    average."
    """
    series = {"with log": [], "without log": [], "overloads": []}
    for c in FIG11_COMPUTE:
        per_iter, events = _overload_loop(c, 3000)
        series["with log"].append(per_iter)
        series["overloads"].append(events)
        series["without log"].append(_overload_loop(c, 3000, logged=False)[0])
    return series


def fig11_check(s):
    logged, unlogged, overloads = s["with log"], s["without log"], s["overloads"]
    idx27 = FIG11_COMPUTE.index(27)
    # Deep overload at c=0 (an order of magnitude over the unlogged
    # cost); cost per iteration *decreases* as c grows through the
    # overload region (the paper's counterintuitive shape).
    assert logged[0] > 15 * unlogged[0]
    assert logged[0] > logged[idx27 - 1]
    assert logged[idx27 - 1] >= logged[idx27] - 3
    # "avoided as long as there is no more than one logged write per 27
    # compute cycles": no overloads at or above c=27.
    for c, ov in zip(FIG11_COMPUTE, overloads):
        if c >= 27:
            assert ov == 0, f"unexpected overload at c={c}"
    assert overloads[0] > 0
    # Past the overload region the logged cost approaches c + the bare
    # store cost, and matches the unlogged curve (the l=1 case has no
    # burst, so the write buffer hides the bus entirely).
    assert abs(logged[-1] - (630 + 2)) <= 3
    assert abs(logged[-1] - unlogged[-1]) <= 1


def fig11_table(s):
    return [["c", *FIG11_COMPUTE]] + [
        [label, *s[key]]
        for label, key in [
            ("with log (cycles/iteration)", "with log"),
            ("without log", "without log"),
            ("overload events", "overloads"),
        ]
    ]


def fig12_run():
    """Overloads per 1000 iterations for the Figure 11 loop.

    Paper shape: frequent overloads for small c, falling to zero by
    c = 27; "the logger FIFOs can absorb many bursts of writes without
    overloading, given their 512-entry capacity".
    """
    return {"rate": [1000 * _overload_loop(c, 5000)[1] / 5000 for c in FIG12_COMPUTE]}


def fig12_check(s):
    rates = s["rate"]
    by_c = dict(zip(FIG12_COMPUTE, rates))
    assert by_c[0] > 0.5  # heavy overload with no compute at all
    assert by_c[27] == 0  # the stability threshold
    assert by_c[63] == 0
    # Rate decreases (weakly) as c approaches the threshold.
    below = [rate for c, rate in zip(FIG12_COMPUTE, rates) if c < 27]
    assert below[0] == max(below)
    # The FIFO absorbs bursts: the onset is gradual, not a step — some
    # sub-threshold c still sees few overloads per 1000 iterations.
    assert any(0 < rate < by_c[0] for rate in below[1:])


def fig12_table(s):
    return [["c", *FIG12_COMPUTE], ["overloads / 1000 iterations", *s["rate"]]]


ENTRIES = [
    Entry("fig7", fig7_run, fig7_check, fig7_table),
    Entry("fig8", fig8_run, fig8_check, fig8_table, digits=2),
    Entry("fig9", fig9_run, fig9_check, fig9_table),
    Entry("fig10", fig10_run, fig10_check, fig10_table),
    Entry("fig11", fig11_run, fig11_check, fig11_table),
    Entry("fig12", fig12_run, fig12_check, fig12_table, digits=2),
]
