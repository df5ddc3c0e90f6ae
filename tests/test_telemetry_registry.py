"""The repro.telemetry registry: instruments, merge, exposition."""

import json
import pickle

import pytest

from repro.telemetry import (
    DEFAULT_BUCKETS, PHASE_METRIC, Counter, Gauge, MetricsRegistry,
    WallHistogram, render_prometheus, worker_heartbeat,
)


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------

def test_counter_is_monotone():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.as_value() == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_merges_by_max():
    gauge = Gauge()
    gauge.set(10)
    gauge.merge_value(7)
    assert gauge.as_value() == 10
    gauge.merge_value(12)
    assert gauge.as_value() == 12


def test_histogram_buckets_are_bounded():
    hist = WallHistogram(bounds=(0.1, 1.0))
    for value in (0.05, 0.5, 99.0):
        hist.observe(value)
    assert hist.counts == [1, 1, 1]       # one overflow, no growth
    assert hist.count == 3
    assert hist.total == pytest.approx(99.55)


def test_histogram_rejects_mismatched_merge():
    hist = WallHistogram(bounds=(0.1, 1.0))
    other = WallHistogram(bounds=(0.2, 2.0))
    other.observe(0.15)
    with pytest.raises(ValueError):
        hist.merge_value(other.as_value())


def test_histogram_bounds_must_ascend():
    with pytest.raises(ValueError):
        WallHistogram(bounds=(1.0, 0.1))
    with pytest.raises(ValueError):
        WallHistogram(bounds=())


# ----------------------------------------------------------------------
# registry recording
# ----------------------------------------------------------------------

def test_registry_records_labelled_samples():
    registry = MetricsRegistry()
    registry.inc("repro_test_total", backend="serial")
    registry.inc("repro_test_total", 2, backend="pool")
    registry.inc("repro_test_total", backend="serial")
    assert registry.value("repro_test_total", backend="serial") == 2
    assert registry.value("repro_test_total", backend="pool") == 2
    assert registry.total("repro_test_total") == 4
    assert registry.value("repro_test_total", backend="nope",
                          default=-1) == -1


def test_registry_rejects_bad_names_and_kind_clashes():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.inc("bad name")
    with pytest.raises(ValueError):
        registry.inc("repro_test_total", **{"bad-label": "x"})
    registry.inc("repro_kind_total")
    with pytest.raises(ValueError):
        registry.set("repro_kind_total", 3)


def test_phase_times_into_the_phase_histogram():
    registry = MetricsRegistry()
    with registry.phase("engine.runner", "probe"):
        pass
    value = registry.value(PHASE_METRIC, layer="engine.runner",
                           phase="probe")
    assert value["count"] == 1
    assert value["total"] >= 0.0
    assert tuple(value["bounds"]) == DEFAULT_BUCKETS


def test_disabled_registry_is_a_no_op():
    registry = MetricsRegistry(enabled=False)
    registry.inc("repro_test_total")
    registry.set("repro_test_gauge", 7)
    registry.observe("repro_test_seconds", 0.1)
    with registry.phase("engine.runner", "probe"):
        pass
    worker_heartbeat(registry=registry)
    assert registry.snapshot() == {}
    # ... and ignores merges, keeping the off mode observation-free.
    enabled = MetricsRegistry()
    enabled.inc("repro_test_total")
    registry.merge(enabled.snapshot())
    assert registry.snapshot() == {}


# ----------------------------------------------------------------------
# snapshots and merge semantics
# ----------------------------------------------------------------------

def _loaded_registry():
    registry = MetricsRegistry()
    registry.inc("repro_test_total", 3, help="a counter",
                 backend="serial")
    registry.set("repro_test_gauge", 11, pid="123")
    registry.observe("repro_test_seconds", 0.002)
    with registry.phase("lint.soundness", "variants"):
        pass
    return registry


def test_snapshot_round_trips_pickle_and_json():
    snapshot = _loaded_registry().snapshot()
    assert pickle.loads(pickle.dumps(snapshot)) == snapshot
    assert json.loads(json.dumps(snapshot)) == snapshot
    assert snapshot["repro_test_total"]["kind"] == "counter"
    assert snapshot["repro_test_total"]["help"] == "a counter"


def test_merge_sums_counters_maxes_gauges_adds_buckets():
    parent = _loaded_registry()
    worker = _loaded_registry()
    worker.set("repro_test_gauge", 99, pid="123")
    parent.merge(worker.snapshot())
    assert parent.value("repro_test_total", backend="serial") == 6
    assert parent.value("repro_test_gauge", pid="123") == 99
    hist = parent.value("repro_test_seconds")
    assert hist["count"] == 2
    phase = parent.value(PHASE_METRIC, layer="lint.soundness",
                         phase="variants")
    assert phase["count"] == 2


def test_merge_is_order_independent():
    snapshots = []
    for amount in (1, 2, 3):
        registry = MetricsRegistry()
        registry.inc("repro_test_total", amount)
        registry.observe("repro_test_seconds", amount / 1000.0)
        snapshots.append(registry.drain())
    forward = MetricsRegistry()
    backward = MetricsRegistry()
    for snap in snapshots:
        forward.merge(snap)
    for snap in reversed(snapshots):
        backward.merge(snap)
    assert forward.snapshot() == backward.snapshot()


def test_drain_ships_only_the_delta():
    registry = _loaded_registry()
    first = registry.drain()
    assert first["repro_test_total"]["samples"]
    assert registry.snapshot() == {}
    registry.inc("repro_test_total", backend="serial")
    second = registry.drain()
    ((key, value),) = second["repro_test_total"]["samples"]
    assert value == 1                    # not 4: the delta alone


def test_worker_heartbeat_labels_by_pid():
    import os
    registry = MetricsRegistry()
    worker_heartbeat(trials=3, registry=registry)
    pid = str(os.getpid())
    assert registry.value("repro_worker_trials_total", pid=pid) == 3
    assert registry.value("repro_worker_heartbeat_timestamp_seconds",
                          pid=pid) > 0


# ----------------------------------------------------------------------
# exposition
# ----------------------------------------------------------------------

def test_prometheus_exposition_shape():
    text = render_prometheus(_loaded_registry())
    assert "# HELP repro_test_total a counter" in text
    assert "# TYPE repro_test_total counter" in text
    assert 'repro_test_total{backend="serial"} 3' in text
    assert "# TYPE repro_test_gauge gauge" in text
    assert 'repro_test_gauge{pid="123"} 11' in text
    assert "# TYPE repro_test_seconds histogram" in text
    assert 'repro_test_seconds_bucket{le="+Inf"} 1' in text
    assert "repro_test_seconds_count 1" in text
    assert text.endswith("\n")


def test_prometheus_buckets_are_cumulative_and_monotone():
    registry = MetricsRegistry()
    for value in (0.0001, 0.003, 0.02, 42.0):
        registry.observe("repro_test_seconds", value)
    text = render_prometheus(registry)
    counts = []
    for line in text.splitlines():
        if line.startswith("repro_test_seconds_bucket"):
            counts.append(int(line.rsplit(" ", 1)[1]))
    assert counts == sorted(counts)      # cumulative ⇒ monotone
    assert counts[-1] == 4               # +Inf sees everything
    assert "repro_test_seconds_count 4" in text


def test_prometheus_escapes_label_values():
    registry = MetricsRegistry()
    registry.inc("repro_test_total", phase='we"ird\\ph\nase')
    text = render_prometheus(registry)
    assert 'phase="we\\"ird\\\\ph\\nase"' in text
