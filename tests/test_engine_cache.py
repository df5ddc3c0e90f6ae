"""Content-addressed result cache: hits, misses, persistence."""

import dataclasses
import os
import shutil

import pytest

from repro import telemetry
from repro.engine import (
    CacheSpec, HierarchySpec, PluginSpec, ResultCache, SimSpec,
    run_batch, run_spec,
)
from repro.isa.assembler import Assembler
from repro.pipeline.config import CPUConfig


def probe_spec(**changes):
    asm = Assembler()
    asm.li(1, 0x2000)
    asm.load(2, 1, 0)
    asm.fence()
    asm.li(3, 9)
    asm.store(3, 1, 0)
    asm.halt()
    spec = SimSpec(program=asm.assemble(),
                   config=CPUConfig(store_queue_size=5),
                   hierarchy=HierarchySpec(memory_size=1 << 16),
                   plugins=(PluginSpec.of("silent-stores"),),
                   mem_writes=((0x2000, 9, 8),))
    return dataclasses.replace(spec, **changes) if changes else spec


def test_hit_on_identical_spec():
    cache = ResultCache()
    first = run_spec(probe_spec(), cache=cache)
    second = run_spec(probe_spec(), cache=cache)
    assert not first.cached
    assert second.cached
    assert cache.hits == 1 and len(cache) == 1
    assert second.cycles == first.cycles
    assert second.observations == first.observations


def test_miss_on_any_meaningful_change():
    base = probe_spec()
    changed = [
        probe_spec(config=CPUConfig(store_queue_size=8)),
        probe_spec(plugins=()),
        probe_spec(plugins=(PluginSpec.of("silent-stores"),
                            PluginSpec.of("operand-packing"))),
        probe_spec(mem_writes=((0x2000, 10, 8),)),
        probe_spec(mem_blobs=((0x3000, b"\x01\x02"),)),
        probe_spec(regs=((4, 1),)),
        probe_spec(seed=1),
        probe_spec(hierarchy=HierarchySpec(
            memory_size=1 << 16, l1=CacheSpec(ways=8))),
    ]
    # A different program text also misses.
    asm = Assembler()
    asm.li(1, 0x2000)
    asm.halt()
    changed.append(probe_spec(program=asm.assemble()))

    fingerprints = {spec.fingerprint() for spec in changed}
    fingerprints.add(base.fingerprint())
    assert len(fingerprints) == len(changed) + 1  # all distinct

    cache = ResultCache()
    run_spec(base, cache=cache)
    for spec in changed:
        assert run_spec(spec, cache=cache).cached is False


def test_label_and_meta_do_not_affect_fingerprint():
    base = probe_spec()
    relabeled = probe_spec(label="x", meta=(("k", "v"),))
    assert base.fingerprint() == relabeled.fingerprint()
    cache = ResultCache()
    run_spec(base, cache=cache)
    hit = run_spec(relabeled, cache=cache)
    assert hit.cached
    assert hit.label == "x"


def test_a_cache_hit_carries_the_requesting_label(tmp_path):
    """A hit answers the spec that asked, whoever deposited it: in a
    later batch, through ``run_spec`` and from a fresh cache on the same
    directory.  The stored entry keeps the depositor's label."""
    path = str(tmp_path / "cache")
    cache = ResultCache(path=path)
    [first] = run_batch([probe_spec(label="first-caller")], cache=cache)
    assert not first.cached and first.label == "first-caller"
    [second] = run_batch([probe_spec(label="second-caller")], cache=cache)
    third = run_spec(probe_spec(label="third-caller"), cache=cache)
    [fourth] = run_batch([probe_spec(label="fourth-caller")],
                         cache=ResultCache(path=path))
    for hit, label in ((second, "second-caller"), (third, "third-caller"),
                       (fourth, "fourth-caller")):
        assert hit.cached, label
        assert hit.label == label
        assert hit.cycles == first.cycles
        assert hit.observations == first.observations
    assert ResultCache(path=path).get(first.fingerprint).label == \
        "first-caller"


def test_batch_mixes_hits_and_misses():
    cache = ResultCache()
    run_spec(probe_spec(), cache=cache)
    results = run_batch([probe_spec(), probe_spec(seed=2)], cache=cache)
    assert [r.cached for r in results] == [True, False]
    assert len(cache) == 2


def test_persistent_cache_survives_reload(tmp_path):
    path = str(tmp_path / "cache")
    first = run_spec(probe_spec(), cache=ResultCache(path=path))
    reloaded = ResultCache(path=path)
    hit = run_spec(probe_spec(), cache=reloaded)
    assert hit.cached
    assert hit.cycles == first.cycles
    assert hit.stats == first.stats
    assert hit.observations == first.observations


def test_clear_empties_cache():
    cache = ResultCache()
    run_spec(probe_spec(), cache=cache)
    cache.clear()
    assert len(cache) == 0
    assert not run_spec(probe_spec(), cache=cache).cached


# ----------------------------------------------------------------------
# probing a persisted store: entries are opened by name, never listed
# ----------------------------------------------------------------------

@pytest.fixture
def registry():
    telemetry.REGISTRY.reset()
    try:
        yield telemetry.REGISTRY
    finally:
        telemetry.REGISTRY.reset()


def _no_listing(*_args, **_kwargs):
    raise AssertionError("the result cache listed its store")


def test_probes_open_entries_without_listing_the_store(
        tmp_path, monkeypatch, registry):
    """``probe_many`` and ``get`` answer hits, plain misses and corrupt
    misses from the entries they ask for, with ``os.listdir`` broken."""
    store = str(tmp_path / "cache")
    first = run_spec(probe_spec(), cache=ResultCache(path=store))
    good = first.fingerprint
    with open(os.path.join(store, f"{good}.json"), "rb") as handle:
        stored = len(handle.read())
    missing, non_utf8, truncated, directory = (
        digit * 64 for digit in "1234")
    with open(os.path.join(store, f"{non_utf8}.json"), "wb") as handle:
        handle.write(b"\xff\xfe\x00garbage\x80")
    with open(os.path.join(store, f"{truncated}.json"), "w") as handle:
        handle.write(first.to_json()[:40])
    os.mkdir(os.path.join(store, f"{directory}.json"))
    registry.reset()
    monkeypatch.setattr(os, "listdir", _no_listing)

    cache = ResultCache(path=store)
    probe = cache.probe_many(
        [good, missing, non_utf8, truncated, directory, good])
    assert [result is not None for result in probe] == \
        [True, False, False, False, False, True]
    for hit in (probe[0], probe[5]):
        assert hit.cached
        assert hit.to_json() == \
            dataclasses.replace(first, cached=True).to_json()
    assert (cache.hits, cache.misses, cache.corrupt) == (2, 4, 3)

    # get() is the same lookup: the good entry now answers from memory,
    # and a corrupt one is read, and counted, again.
    assert cache.get(good).cached
    assert cache.get(missing) is None
    assert cache.get(truncated) is None
    assert (cache.hits, cache.misses, cache.corrupt) == (3, 6, 4)
    assert registry.total("repro_cache_hits_total") == 3
    assert registry.total("repro_cache_misses_total") == 6
    assert registry.total("repro_cache_corrupt_total") == 4
    assert registry.total("repro_cache_read_bytes_total") == stored


def test_a_removed_store_answers_plain_misses(tmp_path, monkeypatch,
                                              registry):
    """A store directory removed after the cache opened it reads as
    empty: every probe is a plain miss, none is corrupt."""
    store = str(tmp_path / "cache")
    fingerprint = run_spec(probe_spec(),
                           cache=ResultCache(path=store)).fingerprint
    cache = ResultCache(path=store)
    shutil.rmtree(store)
    registry.reset()
    monkeypatch.setattr(os, "listdir", _no_listing)
    assert cache.probe_many([fingerprint, "0" * 64]) == [None, None]
    assert cache.get(fingerprint) is None
    assert (cache.hits, cache.misses, cache.corrupt) == (0, 3, 0)
    assert registry.total("repro_cache_misses_total") == 3
    assert registry.total("repro_cache_corrupt_total") == 0
