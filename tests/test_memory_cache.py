"""Set-associative cache model: geometry, policies, invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import Cache, ReplacementPolicy


def test_geometry_validation():
    with pytest.raises(ValueError):
        Cache(line_size=48)
    with pytest.raises(ValueError):
        Cache(num_sets=48)


def test_addressing_helpers():
    cache = Cache(num_sets=64, ways=4, line_size=64)
    assert cache.line_of(0x12345) == 0x12340
    assert cache.set_index(0) == 0
    assert cache.set_index(64) == 1
    assert cache.set_index(64 * 64) == 0
    assert cache.tag_of(64 * 64) == 1
    assert cache.capacity_bytes == 64 * 4 * 64


def test_hit_and_fill():
    cache = Cache(num_sets=4, ways=2)
    hit, evicted = cache.access(0x100)
    assert not hit and evicted is None
    hit, _ = cache.access(0x100)
    assert hit
    assert cache.contains(0x100)
    assert cache.contains(0x13F)         # same line
    assert not cache.contains(0x140)     # next line


def test_lru_eviction_order():
    cache = Cache(num_sets=1, ways=2, policy=ReplacementPolicy.LRU)
    cache.access(0x000)
    cache.access(0x040)
    cache.access(0x000)      # promotes line 0
    _hit, evicted = cache.access(0x080)
    assert evicted == 0x040


def test_fifo_ignores_recency():
    cache = Cache(num_sets=1, ways=2, policy=ReplacementPolicy.FIFO)
    cache.access(0x000)
    cache.access(0x040)
    cache.access(0x000)      # touch does NOT promote under FIFO
    _hit, evicted = cache.access(0x080)
    assert evicted == 0x000


def test_random_policy_is_seeded_deterministic():
    results = []
    for _ in range(2):
        cache = Cache(num_sets=1, ways=2,
                      policy=ReplacementPolicy.RANDOM, seed=7)
        cache.access(0x000)
        cache.access(0x040)
        _hit, evicted = cache.access(0x080)
        results.append(evicted)
    assert results[0] == results[1]
    assert results[0] in (0x000, 0x040)


@pytest.mark.parametrize("policy", [ReplacementPolicy.LRU,
                                    ReplacementPolicy.FIFO])
def test_deterministic_policies_build_no_rng(policy):
    cache = Cache(num_sets=1, ways=2, policy=policy, seed=7)
    evictions = 0
    for line in range(102):
        _hit, evicted = cache.access(line * 64)
        evictions += evicted is not None
    assert evictions == 100
    assert cache._rng is None


def test_random_victims_follow_the_seeded_stream():
    ways, seed = 4, 11
    cache = Cache(num_sets=1, ways=ways, policy=ReplacementPolicy.RANDOM,
                  seed=seed)
    draws = random.Random(seed)
    for line in range(ways):
        cache.access(line * 64)
    for line in range(ways, ways + 64):
        resident = list(cache._sets[0])
        _hit, evicted = cache.access(line * 64)
        assert evicted == resident[draws.randrange(ways)] * 64, line


def test_no_fill_access_leaves_state():
    cache = Cache(num_sets=4, ways=2)
    hit, evicted = cache.access(0x100, fill=False)
    assert not hit and evicted is None
    assert not cache.contains(0x100)


def test_invalidate():
    cache = Cache()
    cache.access(0x100)
    assert cache.invalidate(0x100)
    assert not cache.contains(0x100)
    assert not cache.invalidate(0x100)


def test_flush_empties_everything():
    cache = Cache(num_sets=2, ways=2)
    for addr in (0x000, 0x040, 0x080):
        cache.access(addr)
    cache.flush()
    assert cache.resident_lines() == []


def test_resident_lines_reports_line_addresses():
    cache = Cache(num_sets=4, ways=2, line_size=64)
    cache.access(0x1234)
    assert cache.resident_lines() == [0x1200]


def test_eviction_stats():
    cache = Cache(num_sets=1, ways=1)
    cache.access(0x000)
    cache.access(0x040)
    assert cache.stats["evictions"] == 1
    assert cache.stats["misses"] == 2


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=1 << 16), max_size=200))
def test_occupancy_never_exceeds_ways(addresses):
    cache = Cache(num_sets=4, ways=3)
    for addr in addresses:
        cache.access(addr)
    for set_index in range(cache.num_sets):
        assert cache.set_occupancy(set_index) <= cache.ways


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=1 << 16), max_size=100))
def test_most_recent_access_always_resident(addresses):
    cache = Cache(num_sets=2, ways=2)
    for addr in addresses:
        cache.access(addr)
        assert cache.contains(addr)
