"""Fleet telemetry against the real engine: totals, isolation, cache.

Three contracts:

* **totals** — a 4-worker pool fan-out's snapshot agrees with a serial
  run on every scheduling-independent total (trials, batches, cache
  traffic, phase observation counts) and records the same families;
  only durations and the backend label differ.
* **isolation** — what the registry already holds changes *nothing*
  simulated: a batch recorded into an empty registry and the same
  batch recorded after another one give bitwise-identical fingerprints
  and results, on the serial and the pool backend alike; the gate is
  itself tested with an ``execute_spec`` that leaks a registry total
  into its results.
* **self-healing cache** — a corrupted persisted entry is a counted
  miss, never an exception mid-batch, and the re-executed result
  overwrites it.
"""

import dataclasses
import os

import pytest

from tests.spec_catalog import attack_specs

from repro import telemetry
from repro.engine import REPRO_BACKEND_ENV, ResultCache, backends, run_batch
from repro.telemetry import PHASE_METRIC


@pytest.fixture
def registry(monkeypatch):
    """The process registry, clean before and after the test.

    Also neutralizes ``REPRO_BACKEND`` (a caller may set it
    suite-wide): these tests assert on per-backend labels, so they
    must control backend selection themselves.
    """
    monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
    telemetry.REGISTRY.reset()
    try:
        yield telemetry.REGISTRY
    finally:
        telemetry.REGISTRY.reset()


def _run_catalog(workers):
    """Run the attack-spec catalog twice against a fresh cache and
    return the resulting snapshot (registry reset first)."""
    telemetry.REGISTRY.reset()
    specs = list(attack_specs().values())
    cache = ResultCache()
    results = run_batch(specs, workers=workers, cache=cache)
    run_batch(specs, workers=workers, cache=cache)
    return telemetry.REGISTRY.snapshot(), results


def _phase_counts(snapshot):
    """{(layer, phase): observation count} from a snapshot."""
    counts = {}
    for key, value in snapshot.get(PHASE_METRIC, {}).get("samples", ()):
        labels = dict(tuple(item) for item in key)
        counts[labels["layer"], labels["phase"]] = value["count"]
    return counts


def _totals(snapshot, name):
    payload = snapshot.get(name)
    if payload is None:
        return 0
    total = 0
    for _, value in payload["samples"]:
        total += value["count"] if isinstance(value, dict) else value
    return total


def test_serial_and_pool_snapshots_agree_on_totals(registry):
    serial_snap, serial_results = _run_catalog(workers=1)
    pool_snap, pool_results = _run_catalog(workers=4)

    # The simulated outcomes are the ground truth both must match.
    assert [r.to_json() for r in serial_results] \
        == [r.to_json() for r in pool_results]

    # Scheduling-independent totals are identical...
    for name in ("repro_backend_trials_total",
                 "repro_backend_batches_total",
                 "repro_cache_hits_total", "repro_cache_misses_total"):
        assert _totals(serial_snap, name) == _totals(pool_snap, name), \
            name
    assert _phase_counts(serial_snap) == _phase_counts(pool_snap)

    # ... while the backend label reflects who actually ran them.
    specs = len(attack_specs())
    assert serial_snap["repro_backend_trials_total"]["samples"] \
        == [[[["backend", "serial"]], specs]]
    assert pool_snap["repro_backend_trials_total"]["samples"] \
        == [[[["backend", "pool"]], specs]]


def test_pool_records_the_serial_families(registry):
    """Workers only simulate, so a pool run records exactly the
    families a serial run does, and no per-trial sample."""
    serial_snap, _ = _run_catalog(workers=1)
    pool_snap, _ = _run_catalog(workers=4)
    assert sorted(pool_snap) == sorted(serial_snap)
    assert [name for name, family in pool_snap.items()
            if family["kind"] == "histogram"] == [PHASE_METRIC]


def _labels_changed_by_prior_recording(backend, monkeypatch):
    """Catalog labels whose result differs between a batch recorded
    into an empty registry and the same batch recorded after a
    different batch (every seed +1)."""
    catalog = sorted(attack_specs().items())
    specs = [spec for _, spec in catalog]
    fingerprints = [spec.fingerprint() for spec in specs]

    monkeypatch.setenv(REPRO_BACKEND_ENV, backend)
    telemetry.REGISTRY.reset()
    fresh = run_batch(specs)
    telemetry.REGISTRY.reset()
    run_batch([spec.replace(seed=spec.seed + 1) for spec in specs])
    after = run_batch(specs)

    assert [spec.fingerprint() for spec in specs] == fingerprints
    changed = []
    for (label, _), one, two in zip(catalog, fresh, after):
        # Sanity: the comparison is not vacuous.
        assert one.cycles > 0, label
        if one.to_json() != two.to_json():
            changed.append(label)
    return changed


@pytest.mark.parametrize("backend", ["serial", "pool"])
def test_telemetry_never_changes_simulated_outcomes(registry, backend,
                                                    monkeypatch):
    assert _labels_changed_by_prior_recording(backend, monkeypatch) == []


def test_the_isolation_gate_catches_a_leaking_job(registry, monkeypatch):
    """The gate above fails when a trial reads the registry.  Serial
    only: a local function cannot be pickled to pool workers."""
    execute_spec = backends.execute_spec

    def leaking_execute(spec, fingerprint=None):
        result = execute_spec(spec, fingerprint)
        observations = dict(
            result.observations,
            trials=telemetry.REGISTRY.total("repro_backend_trials_total"))
        return dataclasses.replace(result, observations=observations)

    monkeypatch.setattr(backends, "execute_spec", leaking_execute)
    assert _labels_changed_by_prior_recording("serial", monkeypatch)


def test_corrupt_cache_entry_is_a_counted_miss(registry, tmp_path):
    def uncached(results):
        return [dataclasses.replace(r, cached=False).to_json()
                for r in results]

    specs = list(attack_specs().values())[:3]
    store = str(tmp_path / "cache")
    cache = ResultCache(path=store)
    first = run_batch(specs, cache=cache)

    # Corrupt one persisted entry four ways across re-runs: truncated
    # JSON, non-JSON garbage, valid JSON that is not a RunResult, and
    # bytes that are not UTF-8 at all.
    victim = os.path.join(store, f"{specs[0].fingerprint()}.json")
    for garbage in (b'{"label": "trunc', b"not json at all", b'{"a": 1}',
                    b"\xff\xfe\x00garbage\x80"):
        with open(victim, "wb") as handle:
            handle.write(garbage)
        probe = ResultCache(path=store)
        assert probe.get(specs[0].fingerprint()) is None
        assert probe.corrupt == 1
        telemetry.REGISTRY.reset()
        fresh = ResultCache(path=store)
        results = run_batch(specs, cache=fresh)
        # The batch completed, the corrupt entry re-executed, the two
        # intact entries hit.
        assert uncached(results) == uncached(first)
        assert fresh.corrupt == 1
        assert fresh.hits == 2 and fresh.misses == 1
        assert registry.total("repro_cache_corrupt_total") == 1
        assert registry.total("repro_cache_misses_total") == 1
        # ... and put() healed the store: the entry is valid again.
        healed = ResultCache(path=store)
        assert healed.get(specs[0].fingerprint()) is not None
        assert healed.corrupt == 0
