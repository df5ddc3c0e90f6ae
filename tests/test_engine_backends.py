"""Differential + unit suite for the execution-backend layer.

The backend contract (:mod:`repro.engine.backends`) is that *how*
cache-missing trials execute — in process or across a pool — is pure
scheduling: both backends must return bitwise-identical
:class:`RunResult`\\ s, in input order, for every spec.  This suite
pins that three ways:

* the full attack-spec catalog runs under serial and pool and the
  serialized results must match byte for byte (plain, with event
  tracing on, and as secret-variant cohorts); the gate is itself
  tested, by patching in a pool that returns its results reversed;
* backend *selection* is deterministic and follows the documented
  priority: ``REPRO_BACKEND`` env > ``workers`` heuristic;
* the mechanics underneath — bulk cache probes, one simulation per
  distinct fingerprint — behave as documented.
"""

import os

import pytest

from repro import telemetry
from repro.engine import (
    BACKEND_NAMES, REPRO_BACKEND_ENV, ResultCache, SimSpec, TaintSpec,
    TraceSpec, backends, derive_seed, run_batch,
)
from repro.engine.backends import backend_for
from repro.engine.runner import execute_spec, run_spec
from repro.lint.soundness import secret_variants
from tests.spec_catalog import attack_specs


def _catalog_specs(**overrides):
    specs = []
    for index, (name, spec) in enumerate(sorted(attack_specs().items())):
        specs.append(spec.replace(seed=derive_seed(index, 0),
                                  label=f"{name}/backend-diff",
                                  **overrides))
    return specs


def _serialized(results):
    return [result.to_json() for result in results]


def _run_on(backend, specs, monkeypatch, **kwargs):
    """``run_batch(specs)`` with ``REPRO_BACKEND`` naming ``backend``."""
    monkeypatch.setenv(REPRO_BACKEND_ENV, backend)
    return run_batch(specs, **kwargs)


# ----------------------------------------------------------------------
# the contract: bitwise identity across backends
# ----------------------------------------------------------------------

def _labels_differing_across_backends(specs, monkeypatch):
    """Labels of the specs whose pooled result differs from the serial
    one, byte for byte."""
    serial = _run_on("serial", specs, monkeypatch)
    pooled = _run_on("pool", specs, monkeypatch)
    assert len(serial) == len(pooled) == len(specs)
    differing = []
    for spec, ref, pool in zip(specs, serial, pooled):
        # Sanity: the comparison is not vacuous.
        assert ref.cycles > 0, spec.label
        assert ref.stats["retired"] > 0, spec.label
        if ref.to_json() != pool.to_json():
            differing.append(spec.label)
    return differing


def test_catalog_bitwise_identical_across_backends(monkeypatch):
    assert _labels_differing_across_backends(_catalog_specs(),
                                             monkeypatch) == []


def test_the_backend_gate_catches_reordered_pool_results(monkeypatch):
    """The gate above fails when the pool hands results back out of
    input order."""

    class ReversedPool(backends.ProcessPoolExecutor):
        def map(self, *args, **kwargs):
            return list(super().map(*args, **kwargs))[::-1]

    monkeypatch.setattr(backends, "ProcessPoolExecutor", ReversedPool)
    assert _labels_differing_across_backends(_catalog_specs(),
                                             monkeypatch)


def test_traced_catalog_identical_across_backends(monkeypatch):
    """Every per-cycle event a serially-run core emits must come back
    verbatim from a pooled one."""
    specs = _catalog_specs(trace=TraceSpec())
    serial = _run_on("serial", specs, monkeypatch)
    pooled = _run_on("pool", specs, monkeypatch)
    for spec, ref, pool in zip(specs, serial, pooled):
        assert ref.to_json() == pool.to_json(), spec.label
        assert ref.trace["events"], spec.label


def test_secret_variant_cohorts_identical_across_backends(monkeypatch):
    """The soundness harness's shape: N secret variants of one program
    per batch, many batches, each on its own pool."""
    for name, spec in sorted(attack_specs().items()):
        variants = secret_variants(spec)
        serial = _run_on("serial", variants, monkeypatch)
        pooled = _run_on("pool", variants, monkeypatch, workers=2)
        assert _serialized(serial) == _serialized(pooled), name


# ----------------------------------------------------------------------
# selection: the documented priority chain
# ----------------------------------------------------------------------

def test_environment_beats_the_workers_heuristic(monkeypatch):
    monkeypatch.setenv(REPRO_BACKEND_ENV, "pool")
    assert backend_for(workers=1, pending=2) == "pool"
    assert backend_for(workers=1, pending=1) == "pool"
    monkeypatch.setenv(REPRO_BACKEND_ENV, "serial")
    assert backend_for(workers=8, pending=8) == "serial"
    # An empty value is no override.
    monkeypatch.setenv(REPRO_BACKEND_ENV, "")
    assert backend_for(workers=8, pending=8) == "pool"


def test_resolve_legacy_workers_heuristic(monkeypatch):
    monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
    assert backend_for(workers=1, pending=2) == "serial"
    assert backend_for(workers=4, pending=2) == "pool"
    # Singleton batches stay in process whatever ``workers`` says.
    assert backend_for(workers=4, pending=1) == "serial"


def test_registry_names_and_unknown(monkeypatch):
    assert BACKEND_NAMES == ("serial", "pool")
    for name in ("lockstep", "gpu"):
        monkeypatch.setenv(REPRO_BACKEND_ENV, name)
        with pytest.raises(ValueError, match="unknown execution backend"):
            backend_for(workers=1, pending=0)


def test_env_override_drives_run_batch(monkeypatch):
    """``REPRO_BACKEND`` reroutes batches bitwise-identically."""
    specs = _catalog_specs()[:3]
    monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
    reference = run_batch(specs)
    monkeypatch.setenv(REPRO_BACKEND_ENV, "pool")
    rerouted = run_batch(specs)
    assert _serialized(reference) == _serialized(rerouted)


def test_backend_hint_stays_outside_fingerprint():
    """Spec JSON written while ``SimSpec`` still carried a ``backend``
    scheduling hint keeps loading, to the same simulation."""
    spec = _catalog_specs()[0]
    plain = spec.to_json_dict()
    assert "backend" not in plain
    hinted = SimSpec.from_json_dict(dict(plain, backend="lockstep"))
    assert hinted.fingerprint() == spec.fingerprint()
    assert hinted.fingerprint() == SimSpec.from_json_dict(
        plain).fingerprint()


# ----------------------------------------------------------------------
# mechanics: bulk cache probes, one simulation per fingerprint
# ----------------------------------------------------------------------

def test_probe_many_matches_get_semantics(tmp_path):
    spec = _catalog_specs()[0]
    fingerprint = spec.fingerprint()
    store = str(tmp_path / "cache")
    writer = ResultCache(path=store)
    result = run_spec(spec, cache=writer)
    assert not result.cached

    # Fresh process: everything comes off disk, via one listing.
    reader = ResultCache(path=store)
    probe = reader.probe_many([fingerprint, "0" * 64, fingerprint])
    assert probe[0] is not None and probe[0].cached
    assert probe[1] is None
    assert probe[2] is not None
    assert (reader.hits, reader.misses) == (2, 1)
    assert probe[0].fingerprint == fingerprint
    assert probe[0].to_json().replace('"cached": true',
                                      '"cached": false') \
        == result.to_json()

    # Memory-only cache: same counter semantics, no store.
    memory = ResultCache()
    assert memory.probe_many([fingerprint]) == [None]
    assert (memory.hits, memory.misses) == (0, 1)
    memory.put(result)
    hit = memory.probe_many([fingerprint])[0]
    assert hit is not None and hit.cached
    assert (memory.hits, memory.misses) == (1, 1)


def test_probe_many_duplicates_miss_until_deposited(tmp_path):
    """Duplicate fingerprints in one batch behave exactly like the
    sequential per-trial probes always did: both occurrences miss."""
    spec = _catalog_specs()[0]
    fingerprint = spec.fingerprint()
    cache = ResultCache(path=str(tmp_path / "cache"))
    assert cache.probe_many([fingerprint, fingerprint]) == [None, None]
    assert cache.misses == 2


def test_run_batch_bulk_probe(tmp_path):
    specs = _catalog_specs()[:3]
    cache = ResultCache(path=str(tmp_path / "cache"))
    first = run_batch(specs, cache=cache)
    assert cache.hits == 0 and cache.misses == len(specs)
    second = run_batch(specs, cache=cache)
    assert cache.hits == len(specs)
    assert all(result.cached for result in second)
    assert _serialized(first) == [
        result.to_json().replace('"cached": true', '"cached": false')
        for result in second]


def _shared_fingerprint_batch():
    """One spec under three labels, a copy that differs only in
    ``meta`` and ``taint`` (both outside the fingerprint), and the same
    program over another memory image (a fingerprint of its own)."""
    base = attack_specs()["compsimp"]
    other_image = base.replace(
        mem_writes=((0x1000, 5, 8),) + base.mem_writes[1:],
        label="other-image")
    annotated = base.replace(label="annotated", meta=(("note", "copy"),),
                             taint=TaintSpec.of(secret_regs=(5,)))
    return [base.replace(label="first"), base.replace(label="second"),
            other_image, base.replace(label="third"), annotated]


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_one_simulation_per_distinct_fingerprint(backend, monkeypatch,
                                                 tmp_path):
    specs = _shared_fingerprint_batch()
    expected = [execute_spec(spec) for spec in specs]
    distinct = {spec.fingerprint() for spec in specs}
    assert len(distinct) == 2
    # The other memory image changes the run, not only its hash.
    assert expected[2].cycles != expected[0].cycles
    registry = telemetry.REGISTRY
    cache = ResultCache(path=str(tmp_path / "cache"))
    try:
        for batch_cache in (None, cache):
            registry.reset()
            results = _run_on(backend, specs, monkeypatch,
                              cache=batch_cache)
            assert _serialized(results) == _serialized(expected)
            assert len({id(result) for result in results}) == len(specs)
            assert not any(result.cached for result in results)
            assert registry.value("repro_backend_trials_total",
                                  backend=backend) == len(distinct)
    finally:
        registry.reset()
    assert (cache.hits, cache.misses) == (0, len(specs))
    assert len(cache) == len(distinct)
    assert len(os.listdir(cache.path)) == len(distinct)
