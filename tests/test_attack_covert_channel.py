"""Prime+Probe and Flush+Reload receivers on the cache model."""

import copy

import pytest

from repro.attacks.covert_channel import (
    FlushReloadReceiver, PrimeProbeReceiver,
)
from repro.attacks.dmp_attack import DMPSandboxAttack, URGAttackConfig
from repro.memory.cache import Cache
from repro.memory.flatmem import FlatMemory
from repro.memory.hierarchy import MemoryHierarchy


def make(num_sets=16, ways=2, l2=False):
    memory = FlatMemory(1 << 20)
    hierarchy = MemoryHierarchy(
        memory, l1=Cache(num_sets=num_sets, ways=ways),
        l2=Cache(num_sets=32, ways=4) if l2 else None)
    span = num_sets * 64
    buffer_base = (1 << 18)
    assert buffer_base % span == 0
    return hierarchy, PrimeProbeReceiver(hierarchy, buffer_base)


def test_buffer_alignment_enforced():
    hierarchy, _receiver = make()
    with pytest.raises(ValueError, match="aligned"):
        PrimeProbeReceiver(hierarchy, 0x123)


def test_buffer_must_fit_in_memory():
    """The buffer's last lines lie past the end of memory: rejected at
    construction, not partway through a prime."""
    hierarchy, _receiver = make()
    with pytest.raises(ValueError, match="does not fit"):
        PrimeProbeReceiver(hierarchy, (1 << 20) - 1024)
    with pytest.raises(ValueError, match="does not fit"):
        PrimeProbeReceiver(hierarchy, -1024)


def test_way_addresses_map_to_requested_set():
    hierarchy, receiver = make()
    for set_index in (0, 7, 15):
        for way in range(hierarchy.l1.ways):
            addr = receiver.way_address(set_index, way)
            assert hierarchy.l1.set_index(addr) == set_index


def test_quiet_victim_probes_clean():
    _hierarchy, receiver = make()
    receiver.prime()
    probe = receiver.probe()
    assert receiver.evicted_sets(probe) == []


def test_single_victim_access_detected_in_the_right_set():
    hierarchy, receiver = make()
    receiver.prime()
    victim_addr = 0x4242
    hierarchy.read(victim_addr)            # the transmitter
    probe = receiver.probe()
    evicted = receiver.evicted_sets(probe)
    assert evicted == [hierarchy.l1.set_index(victim_addr)]


def test_multiple_victim_sets_detected():
    hierarchy, receiver = make()
    receiver.prime()
    addrs = [0x0000, 0x1040, 0x2080]
    for addr in addrs:
        hierarchy.read(addr)
    evicted = receiver.evicted_sets(receiver.probe())
    expected = sorted({hierarchy.l1.set_index(a) for a in addrs})
    assert evicted == expected


def test_partial_priming():
    hierarchy, receiver = make()
    receiver.prime(target_sets=[3, 4])
    hierarchy.read(receiver.way_address(3, 0) + 0x10000)  # hits set 3
    probe = receiver.probe(target_sets=[3, 4])
    assert 3 in receiver.evicted_sets(probe)


def test_prefetcher_fills_are_visible():
    """The URG's transmitter is a prefetch, not a demand access."""
    hierarchy, receiver = make()
    receiver.prime()
    hierarchy.prefetch(0x4242)
    evicted = receiver.evicted_sets(receiver.probe())
    assert hierarchy.l1.set_index(0x4242) in evicted


def test_flush_reload():
    memory = FlatMemory(1 << 16)
    hierarchy = MemoryHierarchy(memory, l1=Cache(),
                                l2=Cache(num_sets=128, ways=8))
    receiver = FlushReloadReceiver(hierarchy)
    shared_addr = 0x2000
    hierarchy.read(shared_addr)
    receiver.flush(shared_addr)
    cached, latency = receiver.reload(shared_addr)
    assert not cached and latency > hierarchy.latencies.l2_hit
    # Victim touches it; reload is now fast.
    receiver.flush(shared_addr)
    hierarchy.read(shared_addr)
    cached, latency = receiver.reload(shared_addr)
    assert cached and latency <= hierarchy.latencies.l1_hit


# -- prime and probe against per-line reads ------------------------------------

def per_line_prime(receiver, target_sets):
    for set_index in target_sets:
        for way in range(receiver.cache.ways):
            receiver.hierarchy.read(receiver.way_address(set_index, way))


def per_line_probe(receiver, target_sets):
    return {set_index: sum(
                receiver.hierarchy.read(receiver.way_address(set_index, way))[1]
                for way in range(receiver.cache.ways))
            for set_index in target_sets}


def twin(receiver):
    """The same receiver on an independent copy of its hierarchy."""
    hierarchy = copy.deepcopy(receiver.hierarchy)
    cache = (hierarchy.l2 if receiver.cache is receiver.hierarchy.l2
             else hierarchy.l1)
    other = PrimeProbeReceiver(hierarchy, receiver.buffer_base, cache=cache)
    other.miss_threshold = receiver.miss_threshold
    return other


def hierarchy_state(hierarchy):
    caches = [c for c in (hierarchy.l1, hierarchy.l2) if c is not None]
    return ([cache._sets for cache in caches],
            [cache.stats for cache in caches],
            hierarchy._prefetch_buffer, hierarchy.stats, hierarchy.epoch)


def assert_matches_per_line(receiver, make_sets, victim_addrs):
    """Prime, let the victim prefetch, probe, on the receiver and on a
    per-line twin.  ``make_sets()`` builds the ``target_sets`` argument
    afresh for every call (a generator is read once; None is every set).
    """
    reference = twin(receiver)

    def reference_sets():
        sets = make_sets()
        return range(receiver.cache.num_sets) if sets is None else sets

    receiver.prime(make_sets())
    per_line_prime(reference, reference_sets())
    for addr in victim_addrs:
        receiver.hierarchy.prefetch(addr)
        reference.hierarchy.prefetch(addr)
    probe = receiver.probe(make_sets())
    expected = per_line_probe(reference, reference_sets())
    assert probe == expected
    assert list(probe) == list(expected)
    assert (hierarchy_state(receiver.hierarchy)
            == hierarchy_state(reference.hierarchy))
    return probe


@pytest.mark.parametrize("make_sets", [
    lambda: None, lambda: [3, 4, 9], lambda: [9, 3, 9],
    lambda: (s for s in range(16) if s % 3)],
    ids=["all", "subset", "repeats", "generator"])
def test_prime_probe_match_per_line_reads(make_sets):
    _hierarchy, receiver = make()
    assert_matches_per_line(receiver, make_sets, [0x4242, 0x10c0, 0x2240])


def test_l2_receiver_matches_per_line_reads():
    """The Section V-B3 ablation's receiver: L2 geometry behind a
    prefetch buffer, as bench_ablation_prefetch_buffer.py builds it."""
    config = URGAttackConfig(use_l2=True, prefetch_buffer_size=8)
    attack = DMPSandboxAttack(config)
    receiver = PrimeProbeReceiver(attack.hierarchy, config.probe_buffer_base,
                                  cache=attack.hierarchy.l2)
    receiver.miss_threshold = attack.hierarchy.latencies.l2_hit
    victim = attack.base_x + 64 * 0x42
    probe = assert_matches_per_line(
        receiver, lambda: range(attack.hierarchy.l2.num_sets), [victim])
    assert attack.hierarchy.l2.set_index(victim) in (
        receiver.evicted_sets(probe))
