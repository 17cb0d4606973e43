"""Property tests: segments vs a bytearray shadow model.

Any interleaving of integer and byte-string reads/writes on a segment
must agree with a plain bytearray — including accesses spanning pages
and a deferred-copy source attached midway.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TEST_CONFIG
from repro.core.context import boot, set_current_machine
from repro.core.segment import StdSegment
from repro.errors import SegmentError
from repro.hw.params import LINE_SIZE, PAGE_SIZE

SEG_BYTES = 3 * PAGE_SIZE

op_strategy = st.one_of(
    st.tuples(
        st.just("write_int"),
        st.integers(0, SEG_BYTES - 4),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2, 4]),
    ),
    st.tuples(
        st.just("write_bytes"),
        st.integers(0, SEG_BYTES - 1),
        st.binary(min_size=1, max_size=64),
        st.none(),
    ),
)


def align(offset, size):
    return (offset // size) * size


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(op_strategy, max_size=40))
def test_property_segment_matches_bytearray(ops):
    machine = boot(TEST_CONFIG)
    try:
        seg = StdSegment(SEG_BYTES, machine=machine)
        shadow = bytearray(SEG_BYTES)
        for kind, offset, payload, size in ops:
            if kind == "write_int":
                offset = align(offset, size)
                seg.write(offset, payload, size)
                masked = payload & ((1 << (8 * size)) - 1)
                shadow[offset : offset + size] = masked.to_bytes(size, "little")
            else:
                data = payload[: SEG_BYTES - offset]
                seg.write_bytes(offset, data)
                shadow[offset : offset + len(data)] = data
        assert seg.snapshot() == bytes(shadow)
        # Spot-check integer reads against the shadow too.
        for size in (1, 2, 4):
            for offset in (0, PAGE_SIZE - size, PAGE_SIZE, SEG_BYTES - size):
                offset = align(offset, size)
                expected = int.from_bytes(shadow[offset : offset + size], "little")
                assert seg.read(offset, size) == expected
    finally:
        set_current_machine(None)


@settings(max_examples=40, deadline=None)
@given(
    before=st.lists(
        st.tuples(st.integers(0, SEG_BYTES // 4 - 1), st.integers(0, 2**32 - 1)),
        max_size=15,
    ),
    after=st.lists(
        st.tuples(st.integers(0, SEG_BYTES // 4 - 1), st.integers(0, 2**32 - 1)),
        max_size=15,
    ),
)
def test_property_source_attach_midway(before, after):
    """Attaching a deferred-copy source discards prior writes; writes
    after the attach shadow the source exactly like a fresh copy."""
    machine = boot(TEST_CONFIG)
    try:
        src = StdSegment(SEG_BYTES, machine=machine)
        for i in range(0, SEG_BYTES, 256):
            src.write(i, i ^ 0x5A5A5A5A, 4)
        dst = StdSegment(SEG_BYTES, machine=machine)
        for word, value in before:
            dst.write(4 * word, value, 4)
        dst.source_segment(src)
        shadow = bytearray(src.snapshot())
        for word, value in after:
            dst.write(4 * word, value, 4)
            shadow[4 * word : 4 * word + 4] = value.to_bytes(4, "little")
        assert dst.snapshot() == bytes(shadow)
    finally:
        set_current_machine(None)


dc_op_strategy = st.one_of(
    st.tuples(
        st.just("write_int"),
        st.integers(0, SEG_BYTES - 8),
        st.integers(0, 2**64 - 1),
        st.sampled_from([1, 2, 4, 8]),
    ),
    st.tuples(
        st.just("write_bytes"),
        st.integers(0, SEG_BYTES - 1),
        st.binary(min_size=1, max_size=2 * LINE_SIZE + 8),
        st.none(),
    ),
    st.tuples(
        st.just("write_bytes"),
        st.integers(PAGE_SIZE - 3 * LINE_SIZE, PAGE_SIZE + LINE_SIZE),
        st.binary(min_size=LINE_SIZE, max_size=5 * LINE_SIZE),
        st.none(),
    ),
    st.tuples(
        st.just("reset"),
        st.integers(0, SEG_BYTES // LINE_SIZE),
        st.integers(0, SEG_BYTES // LINE_SIZE),
        st.none(),
    ),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(dc_op_strategy, max_size=40))
def test_property_deferred_copy_matches_line_shadow(ops):
    """A deferred-copy destination over a non-zero source agrees with a
    shadow that tracks its bytes and its set of dirty lines, under any
    mix of aligned integer writes, unaligned byte writes spanning lines
    and pages, and line-aligned resets."""
    machine = boot(TEST_CONFIG)
    try:
        src = StdSegment(SEG_BYTES, machine=machine)
        src.write_bytes(0, bytes((7 * i + 3) % 251 + 1 for i in range(SEG_BYTES)))
        dst = StdSegment(SEG_BYTES, machine=machine)
        dst.source_segment(src)
        source = src.snapshot()
        shadow = bytearray(source)
        dirty: set[int] = set()
        for kind, a, b, size in ops:
            if kind == "write_int":
                offset = align(a, size)
                dst.write(offset, b, size)
                masked = b & ((1 << (8 * size)) - 1)
                data = masked.to_bytes(size, "little")
            elif kind == "write_bytes":
                offset, data = a, b[: SEG_BYTES - a]
                dst.write_bytes(offset, data)
            else:
                start, end = sorted((a * LINE_SIZE, b * LINE_SIZE))
                stats = dst.reset_deferred_copy(start, end)
                cleared = {line for line in dirty if start <= line * LINE_SIZE < end}
                assert stats.dirty_lines == len(cleared)
                dirty -= cleared
                shadow[start:end] = source[start:end]
                continue
            shadow[offset : offset + len(data)] = data
            dirty.update(range(offset // LINE_SIZE, (offset + len(data) - 1) // LINE_SIZE + 1))
        assert dst.snapshot() == bytes(shadow)
        assert src.snapshot() == source
        assert dst.reset_deferred_copy().dirty_lines == len(dirty)
        assert dst.snapshot() == source
    finally:
        set_current_machine(None)


word_strategy = st.tuples(
    st.integers(0, SEG_BYTES - 8), st.integers(0, 2**64 - 1), st.sampled_from([1, 2, 4, 8])
)


@settings(max_examples=60, deadline=None)
@given(
    words=st.lists(word_strategy, max_size=40),
    deferred=st.booleans(),
)
def test_property_write_words_matches_write_loop(words, deferred):
    """``write_words`` leaves the bytes and the dirty lines exactly as
    the loop of ``write`` it is defined as, repeated offsets included,
    on a plain segment and on a deferred-copy destination over a
    non-zero source."""
    machine = boot(TEST_CONFIG)
    try:
        src = StdSegment(SEG_BYTES, machine=machine)
        src.write_bytes(0, bytes((5 * i + 1) % 253 + 1 for i in range(SEG_BYTES)))
        words = [(align(offset, size), value, size) for offset, value, size in words]
        pair = []
        for batched in (False, True):
            seg = StdSegment(SEG_BYTES, machine=machine)
            if deferred:
                seg.source_segment(src)
            if batched:
                seg.write_words(words)
            else:
                for offset, value, size in words:
                    seg.write(offset, value, size)
            pair.append((seg.snapshot(), {p.index: p.dc_dirty_mask for p in seg.pages()}))
        assert pair[0] == pair[1]
    finally:
        set_current_machine(None)


#: 1-, 2- and 4-byte writes, half of them crowded into the first lines
#: so that words repeat and overlap.
column_word_strategy = st.tuples(
    st.one_of(st.integers(0, 3 * LINE_SIZE), st.integers(0, SEG_BYTES - 4)),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 4]),
)


def _columns_and_loop(words, deferred, pre=()):
    """(bytes, [(page index, dirty mask)] in allocation order, error) of
    a loop of ``write`` and of one ``write_columns``, in that order."""
    machine = boot(TEST_CONFIG)
    try:
        src = StdSegment(SEG_BYTES, machine=machine)
        src.write_bytes(0, bytes((3 * i + 7) % 251 + 1 for i in range(SEG_BYTES)))
        out = []
        for batched in (False, True):
            seg = StdSegment(SEG_BYTES, machine=machine)
            if deferred:
                seg.source_segment(src)
            for offset, value, size in pre:
                seg.write(offset, value, size)
            error = None
            try:
                if batched:
                    seg.write_columns(*np.array(words, np.int64).reshape(-1, 3).T)
                else:
                    for offset, value, size in words:
                        seg.write(offset, value, size)
            except SegmentError as exc:
                error = str(exc)
            out.append((seg.snapshot(), [(p.index, p.dc_dirty_mask) for p in seg.pages()], error))
        return out
    finally:
        set_current_machine(None)


@settings(max_examples=80, deadline=None)
@given(
    pre=st.lists(column_word_strategy, max_size=10),
    words=st.lists(column_word_strategy, max_size=60),
    deferred=st.booleans(),
)
def test_property_write_columns_matches_write_loop(pre, words, deferred):
    """``write_columns`` leaves the bytes, the dirty lines and the order
    in which frames were allocated exactly as the loop of ``write`` it
    is defined as: words that repeat and overlap at different sizes,
    over lines written beforehand and lines still clean, on a plain
    segment and on a deferred-copy destination over a non-zero
    source."""
    pre = [(align(offset, size), value, size) for offset, value, size in pre]
    words = [(align(offset, size), value, size) for offset, value, size in words]
    loop, columns = _columns_and_loop(words, deferred, pre)
    assert columns == loop
    assert loop[2] is None


@pytest.mark.parametrize("deferred", [False, True])
def test_write_columns_raises_where_the_loop_raises(deferred):
    """A word that spans a page fails the call after the writes before
    it have landed, and none after it."""
    words = [(2 * PAGE_SIZE + 8, 1, 4), (0, 2, 4), (PAGE_SIZE - 2, 3, 4), (16, 4, 4)]
    loop, columns = _columns_and_loop(words, deferred)
    assert columns == loop
    assert "outside one page" in loop[2]
