"""Integration tests: repro.stats threaded through the whole stack.

Covers the observability tentpole end to end — pipeline and memory
instrumentation consistency, plug-in counters, engine aggregation and
batch telemetry, the Figure 5 head-of-line attribution, disabled-mode
behaviour, result-cache persistence of metrics, and the ``stats`` CLI.
"""

import json
import os

from repro.__main__ import main as cli_main
from repro.attacks.amplification import amplified_probe_spec
from repro.engine import (
    ResultCache, RunResult, Session, SimStats, execute_spec, merge_all,
    run_batch,
)
from tests.spec_catalog import attack_specs


def amp_spec(matches, **kwargs):
    value = 0x1234 if matches else 0x4321
    return amplified_probe_spec(0x1234, value, gadget=True, **kwargs)


# ----------------------------------------------------------------------
# simulator-side instrumentation
# ----------------------------------------------------------------------


def test_run_metrics_agree_with_legacy_stats():
    result = execute_spec(amp_spec(False))
    counters = result.metrics["counters"]
    assert counters["pipeline.cycles"] == result.cycles
    # Memory-system counters mirror the hierarchy's legacy dict (the
    # flushed probe may legitimately see zero L1 hits, hence .get).
    hier = result.observations["hierarchy"]
    assert counters.get("mem.l1.hits", 0) == hier["l1_hits"]
    assert counters.get("mem.dram.accesses", 0) == \
        hier["memory_accesses"]
    assert counters["mem.writes"] == hier["writes"]
    # Plug-in counters mirror the plug-in's own dict.
    ss = result.observations["plugins"]["silent-stores"]
    assert counters["opt.silent_stores.ss_loads_issued"] == \
        ss["ss_loads_issued"]
    assert counters["opt.silent_stores.nonsilent"] == \
        ss["case_b_nonsilent"]
    assert counters["engine.trials"] == 1


def test_occupancy_and_high_water_metrics():
    result = execute_spec(amp_spec(False))
    counters = result.metrics["counters"]
    maxima = result.metrics["maxima"]
    cycles = counters["pipeline.cycles"]
    for queue in ("rob", "rs", "lq", "sq"):
        peak = maxima[f"pipeline.{queue}.high_water"]
        integral = counters[f"pipeline.{queue}.occupancy_integral"]
        assert peak >= 1
        assert 0 < integral <= peak * cycles
    assert maxima["pipeline.sq.high_water"] <= 5  # gadget SQ size


def test_silent_run_squashes_are_counted():
    # The gadget's own backpressure stores perform either way; the
    # *target* store is the one whose outcome flips with the guess.
    silent = execute_spec(amp_spec(True)).metrics["counters"]
    nonsilent = execute_spec(amp_spec(False)).metrics["counters"]
    assert silent["opt.silent_stores.squashes"] == \
        nonsilent.get("opt.silent_stores.squashes", 0) + 1
    assert nonsilent["opt.silent_stores.nonsilent"] == \
        silent.get("opt.silent_stores.nonsilent", 0) + 1


def test_fig5_amplification_attributed_to_head_of_line_stalls():
    """The Figure 5 mechanism, as seen by the metrics layer.

    The amplified non-silent probe is slower than the silent one
    because the performed store misses L1 and head-of-line blocks the
    committed store queue; the stall counter must account for the
    majority of the manufactured timing gap.
    """
    silent = execute_spec(amp_spec(True))
    nonsilent = execute_spec(amp_spec(False))
    gap = nonsilent.cycles - silent.cycles
    assert gap > 100

    def hol(result):
        return result.metrics["counters"].get(
            "pipeline.sq.head_of_line_stall_cycles", 0)

    hol_gap = hol(nonsilent) - hol(silent)
    assert hol_gap > 0.5 * gap
    # The non-silent store's fill is the long pole: the fill-latency
    # histogram saw a memory-latency store fill.
    fills = nonsilent.metrics["histograms"][
        "pipeline.sq.store_fill_latency"]
    assert fills["max"] >= 100


# ----------------------------------------------------------------------
# disabled mode
# ----------------------------------------------------------------------


def test_disabled_stats_change_nothing_but_the_payload():
    enabled = execute_spec(amp_spec(False))
    disabled = execute_spec(amp_spec(False).replace(collect_stats=False))
    assert disabled.cycles == enabled.cycles
    assert disabled.stats == enabled.stats
    assert disabled.observations == enabled.observations
    assert disabled.metrics == {}
    assert enabled.metrics


def test_from_parts_session_defaults_to_disabled():
    spec = amp_spec(False)
    session = Session.from_spec(spec)
    bare = Session.from_parts(session.cpu.program, session.hierarchy)
    assert not bare.cpu.metrics.enabled
    assert bare.run().metrics == {}


def test_from_parts_session_accepts_metrics():
    spec = amp_spec(False)
    built = Session.from_spec(spec)
    metrics = SimStats()
    session = Session.from_parts(
        built.cpu.program, spec.hierarchy.build(), metrics=metrics,
        plugins=[plugin_spec.build() for plugin_spec in spec.plugins])
    result = session.run()
    assert result.metrics["counters"]["pipeline.cycles"] == result.cycles
    assert metrics.counters["engine.trials"] == 1


# ----------------------------------------------------------------------
# engine aggregation
# ----------------------------------------------------------------------


def test_merged_worker_stats_equal_serial_stats():
    specs = [amp_spec(trial % 2 == 0, label=f"t{trial}").replace(
        seed=trial) for trial in range(6)]
    serial = run_batch(specs, workers=1)
    pooled = run_batch(specs, workers=3)
    assert merge_all(r.metrics for r in serial) == \
        merge_all(r.metrics for r in pooled)


def test_batch_telemetry_counts(tmp_path, monkeypatch):
    """The telemetry registry records each batch once: batches, trials
    executed, cache traffic, per-trial wall time and the runner's
    phase profile."""
    from repro import telemetry
    from repro.engine import REPRO_BACKEND_ENV
    monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
    registry = telemetry.REGISTRY
    saved = registry.enabled
    registry.reset()
    registry.set_enabled(True)
    try:
        cache = ResultCache(path=str(tmp_path / "cache"))
        specs = [amp_spec(False).replace(seed=trial)
                 for trial in range(3)]
        run_batch(specs, cache=cache)
        assert registry.total("repro_backend_trials_total") == 3
        assert registry.total("repro_cache_misses_total") == 3
        assert registry.total("repro_cache_hits_total") == 0

        run_batch(specs, cache=cache)
        assert registry.total("repro_backend_batches_total") == 2
        assert registry.total("repro_backend_trials_total") == 3
        assert registry.value("repro_backend_trials_total",
                              backend="serial") == 3
        assert registry.total("repro_cache_hits_total") == 3
        assert registry.value("repro_trial_seconds",
                              backend="serial")["count"] == 3
        # Both batches build and probe; only the cold one submits, and
        # it merges twice (results, then cache writes).
        phase_counts = {
            phase: registry.value(telemetry.PHASE_METRIC,
                                  layer="engine.runner",
                                  phase=phase)["count"]
            for phase in ("build", "probe", "submit", "merge")}
        assert phase_counts == {"build": 2, "probe": 2, "submit": 1,
                                "merge": 3}
    finally:
        registry.set_enabled(saved)
        registry.reset()


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------


def test_cache_round_trips_metrics(tmp_path):
    cache = ResultCache(path=str(tmp_path / "cache"))
    spec = amp_spec(False)
    fresh = run_batch([spec], cache=cache)[0]
    cache.clear()  # drop the in-memory layer, keep the files
    replayed = run_batch([spec], cache=cache)[0]
    assert replayed.cached
    assert replayed.metrics == fresh.metrics


def test_cache_put_is_atomic_and_exist_ok(tmp_path):
    path = str(tmp_path / "deep" / "cache")
    result = execute_spec(amp_spec(False))
    # Two cache instances race on the same directory: both construct,
    # both write the same fingerprint; last-writer-wins, no partial
    # files, no stray temporaries.
    first, second = ResultCache(path=path), ResultCache(path=path)
    first.put(result)
    second.put(result)
    files = os.listdir(path)
    assert files == [f"{result.fingerprint}.json"]
    assert not [name for name in files if name.endswith(".tmp")]
    with open(os.path.join(path, files[0])) as handle:
        assert RunResult.from_json(handle.read()).cycles == result.cycles


def test_legacy_cached_results_without_metrics_still_load():
    payload = {"fingerprint": "f" * 64, "label": "old", "cycles": 10,
               "stats": {}, "observations": {}, "cached": False}
    loaded = RunResult.from_json(json.dumps(payload))
    assert loaded.metrics == {}
    assert merge_all([loaded.metrics]) == SimStats()


def test_collect_stats_false_gets_its_own_fingerprint(tmp_path):
    """A metrics-less run must never satisfy a metrics-wanting lookup."""
    cache = ResultCache(path=str(tmp_path / "cache"))
    spec = amp_spec(False)
    run_batch([spec.replace(collect_stats=False)], cache=cache)
    hit = cache.get(spec.fingerprint())
    assert hit is None


# ----------------------------------------------------------------------
# every attack is observable
# ----------------------------------------------------------------------


def test_every_attack_spec_produces_metrics():
    for name, spec in sorted(attack_specs().items()):
        metrics = execute_spec(spec).metrics
        assert metrics["counters"]["pipeline.cycles"] > 0, name
        assert metrics["counters"]["engine.trials"] == 1, name


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_stats_renders_runresult_json(tmp_path, capsys):
    result = execute_spec(amp_spec(False, label="amp"))
    path = tmp_path / "run.json"
    path.write_text(result.to_json())
    assert cli_main(["stats", str(path)]) == 0
    out = capsys.readouterr().out
    assert "== amp ==" in out
    assert "pipeline.cycles" in out
    assert "mem.miss_latency" in out


def test_cli_stats_reports_payloads_without_stats(tmp_path, capsys):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"rows": [1, 2, 3]}))
    assert cli_main(["stats", str(path)]) == 0
    assert "no stats blocks found" in capsys.readouterr().out
