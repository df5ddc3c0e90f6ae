"""The repro.telemetry registry: instruments, recording, snapshots."""

import bisect
import json
import pickle

import pytest

from repro.telemetry import (
    DEFAULT_BUCKETS, PHASE_METRIC, Counter, MetricsRegistry,
    WallHistogram,
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


def test_histogram_buckets_are_bounded():
    hist = WallHistogram()
    for value in (0.0001, 0.3, 99.0):
        hist.observe(value)
    # One bucket per bound plus one overflow, however much is observed.
    assert len(hist.counts) == len(DEFAULT_BUCKETS) + 1
    assert hist.counts[0] == 1
    assert hist.counts[bisect.bisect_left(DEFAULT_BUCKETS, 0.3)] == 1
    assert hist.counts[-1] == 1
    assert sum(hist.counts) == hist.count == 3
    assert hist.total == pytest.approx(99.3001)
    assert hist.as_value()["bounds"] == list(DEFAULT_BUCKETS)


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
        registry.histogram("repro_kind_total")


def test_phase_times_into_the_phase_histogram():
    registry = MetricsRegistry()
    with registry.phase("engine.runner", "probe"):
        pass
    value = registry.value(PHASE_METRIC, layer="engine.runner",
                           phase="probe")
    assert value["count"] == 1
    assert value["total"] >= 0.0
    assert tuple(value["bounds"]) == DEFAULT_BUCKETS


def test_histogram_handle_records_into_its_sample():
    registry = MetricsRegistry()
    handle = registry.histogram("repro_test_seconds", backend="serial")
    assert registry.histogram("repro_test_seconds",
                              backend="serial") is handle
    handle.observe(0.002)
    registry.histogram("repro_test_seconds",
                       backend="serial").observe(0.004)
    value = registry.value("repro_test_seconds", backend="serial")
    assert value["count"] == 2
    assert value["total"] == pytest.approx(0.006)


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------

def _loaded_registry():
    registry = MetricsRegistry()
    registry.inc("repro_test_total", 3, help="a counter",
                 backend="serial")
    registry.histogram("repro_test_seconds").observe(0.002)
    with registry.phase("lint.soundness", "variants"):
        pass
    return registry


def test_snapshot_round_trips_pickle_and_json():
    snapshot = _loaded_registry().snapshot()
    assert pickle.loads(pickle.dumps(snapshot)) == snapshot
    assert json.loads(json.dumps(snapshot)) == snapshot
    assert snapshot["repro_test_total"]["kind"] == "counter"
    assert snapshot["repro_test_total"]["help"] == "a counter"
