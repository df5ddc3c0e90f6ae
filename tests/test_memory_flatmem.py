"""Flat backing memory: endianness, widths, bounds, and the lazily
zeroed private mapping behind it (zero reads, copies, resident size)."""

import copy
import os
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory.flatmem import FlatMemory, MemoryError_


def test_little_endian_layout():
    mem = FlatMemory(64)
    mem.write(0, 0x0102030405060708)
    assert mem.read_bytes(0, 8) == bytes([8, 7, 6, 5, 4, 3, 2, 1])


def test_partial_width_write_and_read():
    mem = FlatMemory(64)
    mem.write(0, 0xFFFFFFFFFFFFFFFF)
    mem.write(2, 0xAB, width=1)
    assert mem.read(0) == 0xFFFFFFFFFFAB_FFFF


def test_zero_extension_on_read():
    mem = FlatMemory(64)
    mem.write(0, 0xFF, width=1)
    assert mem.read(0, width=1) == 0xFF
    assert mem.read(0, width=8) == 0xFF


def test_bounds_checking():
    mem = FlatMemory(64)
    with pytest.raises(MemoryError_):
        mem.read(60, 8)
    with pytest.raises(MemoryError_):
        mem.write(64, 1, 1)
    with pytest.raises(MemoryError_):
        mem.read(-1, 1)


def test_fill_and_bulk_bytes():
    mem = FlatMemory(64)
    mem.fill(8, 4, 0x5A)
    assert mem.read_bytes(8, 4) == b"\x5a" * 4
    mem.write_bytes(0, b"hello")
    assert mem.read_bytes(0, 5) == b"hello"


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.sampled_from([1, 2, 4, 8]))
def test_write_read_roundtrip_masks_to_width(value, width):
    mem = FlatMemory(64)
    mem.write(0, value, width)
    assert mem.read(0, width) == value & ((1 << (8 * width)) - 1)


def test_negative_value_write_wraps():
    mem = FlatMemory(64)
    mem.write(0, -1)
    assert mem.read(0) == (1 << 64) - 1


WORD_WRITES = st.lists(st.tuples(
    st.integers(min_value=0, max_value=56),
    st.integers(min_value=-(1 << 63), max_value=(1 << 64) - 1),
    st.sampled_from([1, 2, 4, 8])), max_size=16)


@given(WORD_WRITES)
def test_write_words_matches_per_word_writes(writes):
    """Sixteen writes into 64 bytes overlap often; the later one wins,
    as with one :meth:`write` after another."""
    bulk, single = FlatMemory(64), FlatMemory(64)
    bulk.write_words(writes)
    for addr, value, width in writes:
        single.write(addr, value, width)
    assert bulk.read_bytes(0, 64) == single.read_bytes(0, 64)


def test_write_words_later_overlapping_write_wins():
    mem = FlatMemory(64)
    mem.write_words([(0, 0x1111111111111111, 8), (2, 0xAB, 1),
                     (6, 0xCDEF, 2), (7, 0x22, 1)])
    assert mem.read(0) == 0x22EF1111_11AB1111


def test_write_words_checks_every_bound_before_writing():
    """Per-word writes would have made the first write before failing;
    the bulk write fails with nothing written."""
    for bad in ((60, 1, 8), (-8, 1, 8), (64, 1, 1)):
        mem = FlatMemory(64)
        with pytest.raises(MemoryError_):
            mem.write_words([(0, (1 << 64) - 1, 8), bad, (8, 7, 8)])
        assert mem.read_bytes(0, 64) == bytes(64)


BAD_WIDTHS = (0, -1, 9, 16)


def _patterned():
    mem = FlatMemory(64)
    mem.write_bytes(0, bytes(range(64)))
    return mem


@pytest.mark.parametrize("width", BAD_WIDTHS)
def test_read_rejects_a_bad_width(width):
    """A width outside 1 to 8 used to read past the word: ``-1`` read
    63 bytes as one integer."""
    mem = _patterned()
    with pytest.raises(MemoryError_):
        mem.read(0, width)
    assert mem.read_bytes(0, 64) == bytes(range(64))


@pytest.mark.parametrize("width", BAD_WIDTHS)
def test_write_rejects_a_bad_width_before_writing(width):
    mem = _patterned()
    with pytest.raises(MemoryError_):
        mem.write(0, 1, width)
    assert mem.read_bytes(0, 64) == bytes(range(64))


@pytest.mark.parametrize("width", BAD_WIDTHS)
def test_write_words_rejects_a_bad_width_before_writing(width):
    """A spec's ``mem_writes`` arrive as JSON; a bad width fails before
    the good writes ahead of it are made."""
    mem = _patterned()
    with pytest.raises(MemoryError_):
        mem.write_words([(0, 5, 8), (8, 1, width)])
    assert mem.read_bytes(0, 64) == bytes(range(64))


def test_zero_size_memory_builds_and_rejects_every_access():
    mem = FlatMemory(0)
    for access in (lambda: mem.read(0, 1), lambda: mem.write(0, 1, 1),
                   lambda: mem.write_words([(0, 1, 1)]),
                   lambda: mem.read_bytes(0, 1),
                   lambda: mem.write_bytes(0, b"x"),
                   lambda: mem.fill(0, 1)):
        with pytest.raises(MemoryError_):
            access()


def test_negative_size_raises_at_construction():
    with pytest.raises((OverflowError, ValueError)):
        FlatMemory(-1)


def test_fresh_memory_reads_zero_at_both_ends():
    mem = FlatMemory(1 << 20)
    assert mem.read(0) == 0
    assert mem.read(mem.size - 8) == 0


@pytest.mark.parametrize("clone", [
    copy.deepcopy, lambda mem: pickle.loads(pickle.dumps(mem))],
    ids=["deepcopy", "pickle"])
def test_copies_are_equal_and_independent(clone):
    mem = FlatMemory(1 << 12)
    mem.write(0, 0x1122334455667788)
    mem.fill(100, 20, 0xAB)
    mem.write(mem.size - 8, (1 << 64) - 1)
    copied = clone(mem)
    assert copied.size == mem.size
    assert copied.read_bytes(0, mem.size) == mem.read_bytes(0, mem.size)
    copied.write(0, 0)
    assert mem.read(0) == 0x1122334455667788
    assert copied.read(0) == 0


def _resident_bytes():
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="needs /proc/self/statm")
def test_untouched_pages_stay_out_of_resident_memory():
    before = _resident_bytes()
    mem = FlatMemory(256 << 20)
    mem.write(0, 1)
    mem.write(mem.size - 8, 2)
    assert _resident_bytes() - before < 16 << 20
    assert (mem.read(0), mem.read(mem.size - 8)) == (1, 2)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_writes_only_its_own_pages():
    """The mapping is private: a forked pool worker's writes must not
    reach its parent's memory."""
    mem = FlatMemory(1 << 12)
    mem.write(0, 1)
    pid = os.fork()
    if pid == 0:
        mem.write(0, 2)
        os._exit(0 if mem.read(0) == 2 else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert mem.read(0) == 1
