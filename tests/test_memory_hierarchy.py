"""Two-level hierarchy: latencies by hit level, prefetch buffer, fills."""

import copy
import itertools
import random

import pytest

from repro.memory.cache import Cache, ReplacementPolicy
from repro.memory.flatmem import FlatMemory, MemoryError_
from repro.memory.hierarchy import MemoryHierarchy, MemoryLatencies
from repro.memory.tlb import TLB
from repro.stats import SimStats
from repro.trace.buffer import TraceBuffer


def build(l2=True, prefetch_buffer_size=0):
    memory = FlatMemory(1 << 16)
    memory.write(0x100, 42)
    return MemoryHierarchy(
        memory,
        l1=Cache(num_sets=4, ways=2),
        l2=Cache(num_sets=8, ways=4) if l2 else None,
        latencies=MemoryLatencies(l1_hit=2, l2_hit=12, memory=120),
        prefetch_buffer_size=prefetch_buffer_size)


def test_miss_then_hit_latencies():
    hierarchy = build()
    value, latency, level = hierarchy.read(0x100)
    assert (value, latency, level) == (42, 120, "mem")
    _value, latency, level = hierarchy.read(0x100)
    assert (latency, level) == (2, "l1")


def test_l2_hit_after_l1_eviction():
    hierarchy = build()
    hierarchy.read(0x100)
    hierarchy.l1.invalidate(0x100)
    _value, latency, level = hierarchy.read(0x100)
    assert (latency, level) == (12, "l2")
    assert hierarchy.line_in_l1(0x100)  # refilled


def test_write_through_to_backing_memory():
    hierarchy = build()
    hierarchy.read(0x200)          # bring line in
    hierarchy.write(0x200, 7)
    assert hierarchy.memory.read(0x200) == 7


def test_request_line_for_store_latencies():
    hierarchy = build()
    assert hierarchy.request_line_for_store(0x300) == 120
    assert hierarchy.request_line_for_store(0x300) == 0
    hierarchy.l1.invalidate(0x300)
    assert hierarchy.request_line_for_store(0x300) == 12  # L2 hit


def test_prefetch_fills_l1_without_buffer():
    hierarchy = build()
    hierarchy.prefetch(0x400)
    assert hierarchy.line_in_l1(0x400)
    assert hierarchy.line_in_l2(0x400)


def test_prefetch_buffer_keeps_l1_clean_but_fills_l2():
    """Section V-B3: prefetch buffers do not stop the receiver — the
    line still lands in L2."""
    hierarchy = build(prefetch_buffer_size=4)
    hierarchy.prefetch(0x400)
    assert not hierarchy.line_in_l1(0x400)
    assert hierarchy.line_in_l2(0x400)
    assert hierarchy.in_prefetch_buffer(0x400)


def test_prefetch_buffer_promotion_on_demand_access():
    hierarchy = build(prefetch_buffer_size=4)
    hierarchy.prefetch(0x400)
    _value, latency, level = hierarchy.read(0x400)
    assert level == "pb"
    assert latency == 3   # l1_hit + 1
    assert hierarchy.line_in_l1(0x400)
    assert not hierarchy.in_prefetch_buffer(0x400)


def test_prefetch_buffer_is_fifo_bounded():
    hierarchy = build(prefetch_buffer_size=2)
    for index in range(3):
        hierarchy.prefetch(0x1000 + 64 * index)
    assert not hierarchy.in_prefetch_buffer(0x1000)
    assert hierarchy.in_prefetch_buffer(0x1040)
    assert hierarchy.in_prefetch_buffer(0x1080)


def test_access_latency_probe():
    hierarchy = build()
    assert hierarchy.access_latency(0x500) == 120
    assert hierarchy.access_latency(0x500) == 2


def test_flush_all():
    hierarchy = build(prefetch_buffer_size=2)
    hierarchy.read(0x100)
    hierarchy.prefetch(0x200)
    hierarchy.flush_all()
    assert not hierarchy.line_in_l1(0x100)
    assert not hierarchy.line_in_l2(0x100)
    assert not hierarchy.in_prefetch_buffer(0x200)


def test_no_l2_configuration():
    hierarchy = build(l2=False)
    _value, latency, level = hierarchy.read(0x100)
    assert (latency, level) == (120, "mem")
    _value, latency, level = hierarchy.read(0x100)
    assert (latency, level) == (2, "l1")


# -- read_lines against per-line reads ---------------------------------------

POLICIES = (ReplacementPolicy.LRU, ReplacementPolicy.FIFO,
            ReplacementPolicy.RANDOM)


def _random_hierarchy(rng, policy, l2, tlb, pb_lines, jitter, traced,
                      l1_ways):
    hierarchy = MemoryHierarchy(
        FlatMemory(1 << 16),
        l1=Cache(num_sets=4, ways=l1_ways, policy=policy,
                 seed=rng.randrange(1 << 16)),
        l2=(Cache(num_sets=8, ways=4, policy=rng.choice(POLICIES),
                  seed=rng.randrange(1 << 16)) if l2 else None),
        latencies=MemoryLatencies(jitter=jitter,
                                  seed=rng.randrange(1 << 16)),
        prefetch_buffer_size=pb_lines,
        tlb=TLB(entries=4, page_size=1024, walk_latency=30) if tlb else None)
    if traced:
        hierarchy.trace = TraceBuffer(capacity=64)
    for _ in range(rng.randrange(8, 40)):
        addr = rng.randrange(0, (1 << 16) - 8, 8)
        kind = rng.random()
        if kind < 0.6:
            hierarchy.read(addr)
        elif kind < 0.85:
            hierarchy.prefetch(addr)
        else:
            hierarchy.request_line_for_store(addr)
    return hierarchy


def _address_lists(rng, hierarchy):
    """A random list, a same-set list that forces evictions, and a list
    that revisits resident and buffered lines among a few others."""
    yield [rng.randrange(0, (1 << 16) - 8, 8) for _ in range(24)]
    stride = hierarchy.l1.num_sets * hierarchy.l1.line_size
    base = rng.randrange(0, stride, 8)
    yield [base + stride * rng.randrange(12) for _ in range(24)]
    seen = (hierarchy.l1.resident_lines() + hierarchy._prefetch_buffer
            + [rng.randrange(0, 1 << 12, 64) for _ in range(8)])
    yield [rng.choice(seen) + rng.randrange(0, 64, 8) for _ in range(24)]


def _state(hierarchy):
    """Everything a demand read can change, and the stats record its
    counts give (the miss-latency histogram covers the jitter draws)."""
    caches = [c for c in (hierarchy.l1, hierarchy.l2) if c is not None]
    tlb = hierarchy.tlb
    jitter_rng = hierarchy.latencies._rng
    record = SimStats()
    hierarchy.snapshot_into(record)
    return copy.deepcopy({
        "sets": [cache._sets for cache in caches],
        "cache_stats": [cache.stats for cache in caches],
        "cache_rngs": [None if cache._rng is None else cache._rng.getstate()
                       for cache in caches],
        "tlb": None if tlb is None else (tlb._pages, tlb.stats),
        "prefetch_buffer": hierarchy._prefetch_buffer,
        "stats": hierarchy.stats,
        "epoch": hierarchy.epoch,
        "jitter_rng": None if jitter_rng is None else jitter_rng.getstate(),
        "trace": hierarchy.trace.as_payload(),
        "record": record.as_dict(),
    })


def _read_lines_mismatches(policy):
    """Every L2 / TLB / prefetch-buffer / jitter / trace / L1-ways
    combination, warmed up, then three address lists: the count of
    cases and the shapes whose batched reads differ from per-line
    reads (in latencies or in state)."""
    rng = random.Random(policy)
    cases = 0
    mismatches = []
    for shape in itertools.product((False, True), (False, True), (0, 2),
                                   (0, 5), (False, True), (1, 2, 4)):
        hierarchy = _random_hierarchy(rng, policy, *shape)
        for addrs in _address_lists(rng, hierarchy):
            batched, per_line = hierarchy, copy.deepcopy(hierarchy)
            latencies = batched.read_lines(addrs)
            expected = [per_line.read(addr)[1] for addr in addrs]
            if (latencies != expected
                    or _state(batched) != _state(per_line)):
                mismatches.append(shape)
            hierarchy = copy.deepcopy(per_line)
            cases += 1
    return cases, mismatches


@pytest.mark.parametrize("policy", POLICIES)
def test_read_lines_matches_per_line_reads(policy):
    """The last shape axis is the L1's ways: 4 is Figure 7's L1."""
    assert _read_lines_mismatches(policy) == (96 * 3, [])


def test_the_read_lines_check_catches_a_touch_without_promotion(
        monkeypatch):
    """A :meth:`Cache.touch_lines` that leaves a resident line where it
    is under LRU changes which line a later miss evicts."""

    def touch_without_promotion(self, addrs):
        hits = []
        for addr in addrs:
            hits.append(self.contains(addr))
            if not hits[-1]:
                self.fill_line(addr)
        return hits

    monkeypatch.setattr(Cache, "touch_lines", touch_without_promotion)
    _cases, mismatches = _read_lines_mismatches(ReplacementPolicy.LRU)
    assert mismatches


def test_read_lines_of_nothing_changes_nothing():
    hierarchy = build()
    before = _state(hierarchy)
    assert hierarchy.read_lines([]) == []
    assert _state(hierarchy) == before


def test_read_lines_checks_every_bound_before_reading():
    """Per-line reads would have read 0x100 before failing; read_lines
    fails with no state changed."""
    hierarchy = build()
    before = _state(hierarchy)
    for addrs in ([0x100, (1 << 16) - 4], [0x100, -8]):
        with pytest.raises(MemoryError_):
            hierarchy.read_lines(addrs)
        assert _state(hierarchy) == before


def test_an_access_memory_rejects_changes_no_count():
    """A demand read or write that memory rejects (outside a 4 KiB
    memory, or a width outside 1 to 8) raises before it is counted."""
    hierarchy = MemoryHierarchy(FlatMemory(1 << 12), l1=Cache())
    for access in (lambda: hierarchy.read(0xffc),
                   lambda: hierarchy.read(0, 16),
                   lambda: hierarchy.write(0xffc, 1),
                   lambda: hierarchy.write(0, 1, 9)):
        with pytest.raises(MemoryError_):
            access()
    assert hierarchy.epoch == 0
    assert hierarchy.stats == dict.fromkeys(hierarchy.stats, 0)
