"""Fleet telemetry against the real engine: merge, isolation, cache.

Three contracts:

* **merge** — a 4-worker pool fan-out's merged snapshot agrees with a
  serial run on every scheduling-independent total (trials, batches,
  cache traffic, phase observation counts); only durations and worker
  labels may differ.
* **isolation** — telemetry on vs off changes *nothing* simulated:
  fingerprints and serialized results are bitwise identical, on the
  serial and the pool backend alike.
* **self-healing cache** — a corrupted persisted entry is a counted
  miss, never an exception mid-batch, and the re-executed result
  overwrites it.
"""

import os

import pytest

from tests.spec_catalog import attack_specs

from repro import telemetry
from repro.engine import ResultCache, run_batch
from repro.telemetry import PHASE_METRIC


@pytest.fixture
def registry(monkeypatch):
    """The process registry, clean before and after the test.

    Also neutralizes ``REPRO_BACKEND`` (a caller may set it
    suite-wide): these tests assert on per-backend labels, so they
    must control backend selection themselves.
    """
    from repro.engine import REPRO_BACKEND_ENV
    monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
    telemetry.REGISTRY.reset()
    saved = telemetry.REGISTRY.enabled
    telemetry.REGISTRY.set_enabled(True)
    try:
        yield telemetry.REGISTRY
    finally:
        telemetry.REGISTRY.set_enabled(saved)
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
                 "repro_cache_hits_total", "repro_cache_misses_total",
                 "repro_trial_seconds"):
        assert _totals(serial_snap, name) == _totals(pool_snap, name), \
            name
    assert _phase_counts(serial_snap) == _phase_counts(pool_snap)

    # ... while the backend label reflects who actually ran them.
    specs = len(attack_specs())
    assert serial_snap["repro_backend_trials_total"]["samples"] \
        == [[[["backend", "serial"]], specs]]
    assert pool_snap["repro_backend_trials_total"]["samples"] \
        == [[[["backend", "pool"]], specs]]


def test_pool_workers_ship_heartbeats_and_queue_wait(registry):
    pool_snap, _ = _run_catalog(workers=4)
    specs = len(attack_specs())

    # Every executed job produced one heartbeat in some worker; the
    # per-pid counters merge back to the full job count.
    heartbeats = pool_snap["repro_worker_trials_total"]["samples"]
    assert sum(value for _, value in heartbeats) == specs
    for key, _ in heartbeats:
        (label, pid), = [tuple(item) for item in key]
        assert label == "pid" and pid.isdigit()
        assert pid != str(os.getpid())    # recorded in a worker, not here

    gauges = pool_snap["repro_worker_heartbeat_timestamp_seconds"]
    assert {tuple(key[0])[1] for key, _ in gauges["samples"]} \
        == {tuple(key[0])[1] for key, _ in heartbeats}

    # The parent observed one queue-wait sample per executed trial.
    waits = pool_snap["repro_backend_queue_wait_seconds"]["samples"]
    ((key, value),) = waits
    assert dict(tuple(item) for item in key) == {"backend": "pool"}
    assert value["count"] == specs


@pytest.mark.parametrize("backend", ["serial", "pool"])
def test_telemetry_never_changes_simulated_outcomes(registry, backend):
    specs = list(attack_specs().values())
    fingerprints = [spec.fingerprint() for spec in specs]

    telemetry.set_enabled(True)
    on_results = run_batch(specs, backend=backend)
    telemetry.set_enabled(False)
    off_results = run_batch(specs, backend=backend)
    telemetry.set_enabled(True)

    assert [spec.fingerprint() for spec in specs] == fingerprints
    assert [r.to_json() for r in on_results] \
        == [r.to_json() for r in off_results]
    assert [r.cycles for r in on_results] \
        == [r.cycles for r in off_results]


def test_corrupt_cache_entry_is_a_counted_miss(registry, tmp_path):
    import dataclasses

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
