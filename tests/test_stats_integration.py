"""Integration tests: repro.stats threaded through the whole stack.

Covers the observability tentpole end to end — pipeline and memory
instrumentation consistency, plug-in counters, engine aggregation and
batch telemetry, the Figure 5 head-of-line attribution, which sessions
record, result-cache persistence of metrics, and the ``stats`` CLI.
"""

import ast
import dataclasses
import json
import os

import repro
from repro.__main__ import main as cli_main
from repro.attacks.amplification import amplified_probe_spec
from repro.engine import (
    PluginSpec, ResultCache, RunResult, Session, SimStats, execute_spec,
    merge_all, run_batch,
)
from repro.lint.progen import CaseGenerator
from repro.memory.hierarchy import MemoryHierarchy
from repro.stats import Histogram
from tests.spec_catalog import attack_specs
from tests.test_fastpath_equivalence import _catalog_specs
from tests.test_stats_payload_golden import (
    on_narrow_core, with_deep_memory,
)


def amp_spec(matches, **kwargs):
    value = 0x1234 if matches else 0x4321
    return amplified_probe_spec(0x1234, value, gadget=True, **kwargs)


# ----------------------------------------------------------------------
# simulator-side instrumentation
# ----------------------------------------------------------------------


def copied_counters(session, result):
    """Each copied counter's value, read from the statistics of the
    component that owns it: the core, the hierarchy, its TLB and the
    plug-ins."""
    stats = result.stats
    hier = result.observations["hierarchy"]
    plugins = result.observations["plugins"]
    expected = {
        "pipeline.cycles": result.cycles,
        "pipeline.sq.silent_dequeues": stats["silent_stores"],
        "mem.l1.hits": hier["l1_hits"],
        "mem.l1.misses": (hier["prefetch_buffer_hits"] + hier["l2_hits"]
                          + hier["memory_accesses"]),
        "mem.pb.hits": hier["prefetch_buffer_hits"],
        "mem.l2.hits": hier["l2_hits"],
        "mem.dram.accesses": hier["memory_accesses"],
        "mem.writes": hier["writes"],
        "mem.prefetches": hier["prefetches"],
    }
    for kind, count in stats["dispatch_stalls"].items():
        expected["pipeline.dispatch_stall." + kind] = count
    if session.hierarchy.l2 is not None:
        expected["mem.l2.misses"] = hier["memory_accesses"]
    tlb = session.hierarchy.tlb
    if tlb is not None:
        expected["mem.tlb.walks"] = tlb.stats["misses"]
        expected["mem.tlb.hits"] = tlb.stats["hits"]
    ss = plugins.get("silent-stores")
    if ss is not None:
        expected.update({
            "opt.silent_stores.ss_loads_issued": ss["ss_loads_issued"],
            "opt.silent_stores.squashes": ss["case_a_silent"],
            "opt.silent_stores.nonsilent": ss["case_b_nonsilent"],
            "opt.silent_stores.no_port": ss["case_c_no_port"],
            "opt.silent_stores.late_ss_loads": ss["case_d_late"]})
    vp = plugins.get("value-prediction")
    if vp is not None:
        expected.update({
            "opt.vp.predictions": vp["predictions"],
            "opt.vp.correct": vp["correct"],
            "opt.vp.mispredict_squashes": vp["incorrect"]})
    imp = plugins.get("indirect-memory-prefetcher")
    if imp is not None:
        expected.update({
            "opt.imp.jobs_launched": imp["jobs_launched"],
            "opt.imp.prefetches": imp["prefetches"]})
    return expected


def _progen_spec(plugin):
    case = CaseGenerator(seed=0).cases_for(plugin, 1)[0]
    return case.spec(plugins=(PluginSpec.of(plugin),))


LEGACY_INPUTS = {
    "amplification": amp_spec(False),
    "amplification/deep-memory": with_deep_memory(amp_spec(False)),
    "amplification/narrow-core": on_narrow_core(amp_spec(False)),
    "silent-stores/narrow-core":
        on_narrow_core(_progen_spec("silent-stores")),
    "value-prediction/deep-memory":
        with_deep_memory(_progen_spec("value-prediction")),
    "imp/deep-memory":
        with_deep_memory(_progen_spec("indirect-memory-prefetcher")),
}


def test_run_metrics_agree_with_legacy_stats():
    for name, spec in sorted(LEGACY_INPUTS.items()):
        session = Session.from_spec(spec)
        result = session.run()
        counters = result.metrics["counters"]
        # A copied counter equals its owner's and appears only when
        # non-zero; squashed instructions appear with every flush.
        for counter, value in copied_counters(session, result).items():
            assert counters.get(counter, 0) == value, (name, counter)
            assert (counter in counters) == bool(value), (name, counter)
        flushed = "pipeline.flushes" in counters
        assert ("pipeline.squashed_instructions" in counters) == flushed
        if flushed:
            assert counters["pipeline.squashed_instructions"] == \
                result.stats["squashed_instructions"], name
        assert counters["engine.trials"] == 1, name


def jittered(spec, jitter=9):
    """``spec`` with ±``jitter`` cycles of seeded DRAM jitter."""
    return spec.replace(hierarchy=dataclasses.replace(
        spec.hierarchy, latencies=dataclasses.replace(
            spec.hierarchy.latencies, jitter=jitter)))


def derived_histogram_corpus():
    """Catalog specs, the bare probe and generated silent-store and
    IMP cases, each jittered, jittered with an L2, a TLB and a prefetch
    buffer, jittered on the narrow core, and with the deep memory at
    fixed latencies."""
    specs = _catalog_specs()
    for plugin in ("silent-stores", "indirect-memory-prefetcher"):
        for index, case in enumerate(
                CaseGenerator(seed=0).cases_for(plugin, 3)):
            specs.append(case.spec(plugins=(PluginSpec.of(plugin),))
                         .replace(label=f"{plugin}/{index}"))
    corpus = []
    for spec in specs:
        for shape, variant in (
                ("jitter", jittered(spec)),
                ("jitter+deep", with_deep_memory(jittered(spec))),
                ("jitter+narrow", on_narrow_core(jittered(spec))),
                ("deep", with_deep_memory(spec))):
            corpus.append(variant.replace(label=f"{spec.label}/{shape}"))
    return corpus


def observed_latency_histograms(spec):
    """Run ``spec`` with wrappers that histogram the latency each access
    that missed L1 returned, and each store fill the core requested.

    Returns ``(result, misses, fills)``: the run's result and the
    two histograms the record's ``mem.miss_latency`` and
    ``pipeline.sq.store_fill_latency`` must equal.
    """
    session = Session.from_spec(spec)
    hierarchy = session.hierarchy
    misses, fills = Histogram(bin_width=8), Histogram(bin_width=8)
    cache_access = hierarchy._cache_access
    request_line_for_store = hierarchy.request_line_for_store

    def recorded_access(addr, fill):
        latency, level = cache_access(addr, fill)
        if level != "l1":
            misses.add(latency)
        return latency, level

    def recorded_fill(addr):
        latency = request_line_for_store(addr)
        fills.add(latency)
        return latency

    hierarchy._cache_access = recorded_access
    hierarchy.request_line_for_store = recorded_fill
    return session.run(), misses, fills


def derived_histogram_divergences(corpus):
    """Labels of the specs whose recorded latency histograms differ
    from the observed ones, plus what the corpus reached: prefetch
    buffer hits, L2 hits, distinct DRAM latencies and store fills."""
    diverging = []
    reached = {"pb": 0, "l2": 0, "dram_latencies": set(), "fills": 0}
    for spec in corpus:
        result, misses, fills = observed_latency_histograms(spec)
        recorded = result.metrics.get("histograms", {})
        for name, observed in (("mem.miss_latency", misses),
                               ("pipeline.sq.store_fill_latency", fills)):
            expected = observed.as_dict() if observed.count else None
            if recorded.get(name) != expected:
                diverging.append(f"{spec.label}:{name}")
        hier = result.observations["hierarchy"]
        reached["pb"] += hier["prefetch_buffer_hits"]
        reached["l2"] += hier["l2_hits"]
        reached["fills"] += fills.count
        reached["dram_latencies"].update(
            bin_lo for bin_lo in misses.bins if bin_lo >= 96)
    return diverging, reached


def test_latency_histograms_match_the_latencies_accesses_returned():
    """``mem.miss_latency`` and ``pipeline.sq.store_fill_latency`` are
    derived at the end of the run from counts (hit levels, jitter
    draws, the core's fill table); each must equal the histogram of
    the latencies the accesses actually returned, on jittered, deep
    and narrow machines."""
    diverging, reached = derived_histogram_divergences(
        derived_histogram_corpus())
    assert diverging == []
    # Not vacuous: every latency source occurred.
    assert reached["pb"] and reached["l2"] and reached["fills"]
    assert len(reached["dram_latencies"]) > 1


def test_the_latency_oracle_catches_dropped_prefetch_buffer_hits(
        monkeypatch):
    """Committed mutant: a ``snapshot_into`` that leaves prefetch-buffer
    hits out of the record makes the oracle above report specs."""
    snapshot_into = MemoryHierarchy.snapshot_into

    def drops_pb_hits(self, metrics):
        hits = self.stats["prefetch_buffer_hits"]
        self.stats["prefetch_buffer_hits"] = 0
        snapshot_into(self, metrics)
        self.stats["prefetch_buffer_hits"] = hits

    monkeypatch.setattr(MemoryHierarchy, "snapshot_into", drops_pb_hits)
    diverging, _ = derived_histogram_divergences(
        derived_histogram_corpus())
    assert diverging
    assert all(label.endswith(":mem.miss_latency") for label in diverging)


def simulator_modules():
    """``(name, syntax tree)`` of every module of the layers that only
    count: ``repro.pipeline``, ``repro.memory`` and ``repro.trace``."""
    package = os.path.dirname(repro.__file__)
    for layer in ("pipeline", "memory", "trace"):
        directory = os.path.join(package, layer)
        for filename in sorted(os.listdir(directory)):
            if filename.endswith(".py"):
                with open(os.path.join(directory, filename)) as handle:
                    yield f"{layer}/{filename}", ast.parse(handle.read())


def test_only_the_session_writes_the_record():
    """The pipeline, memory and trace layers count; only
    ``Session.run`` writes a record, and the one method it calls to
    do so (``MemoryHierarchy.snapshot_into``) is the only record writer
    there."""
    writers = []
    for name, tree in simulator_modules():
        for function in ast.walk(tree):
            if (not isinstance(function, ast.FunctionDef)
                    or function.name == "snapshot_into"):
                continue
            for node in ast.walk(function):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("inc", "observe", "peak")):
                    writers.append(f"{name}:{function.name}")
    assert writers == []


def test_the_simulator_does_not_import_the_stats_layer():
    """``Session`` is the one place that builds a record, so no module
    of the layers that only count imports ``repro.stats``."""
    importers = []
    for name, tree in simulator_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}"
                           for alias in node.names]
            else:
                continue
            if any(module == "repro.stats"
                   or module.startswith("repro.stats.")
                   for module in modules):
                importers.append(name)
    assert importers == []


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


def test_occupancy_metrics_are_the_per_cycle_samples():
    """Each occupancy integral is the sum, and each high-water mark the
    largest, of the structure's size at the start of every stepped
    cycle; the committed-SQ-head counter counts the cycles that began
    with a committed store at the head, and is absent when there are
    none."""
    for spec in _catalog_specs():
        session = Session.from_spec(spec.replace(fastpath=False))
        cpu = session.cpu
        samples = {"rob": [], "rs": [], "lq": [], "sq": []}
        head_committed = 0
        while not cpu.halted:
            samples["rob"].append(len(cpu.rob))
            samples["rs"].append(len(cpu.rs))
            samples["lq"].append(len(cpu.load_queue))
            samples["sq"].append(len(cpu.store_queue))
            if cpu.store_queue and cpu.store_queue[0].committed:
                head_committed += 1
            cpu.step()
        result = session.run()
        counters = result.metrics["counters"]
        maxima = result.metrics["maxima"]
        for queue, sizes in samples.items():
            assert counters[f"pipeline.{queue}.occupancy_integral"] == \
                sum(sizes), (spec.label, queue)
            assert maxima[f"pipeline.{queue}.high_water"] == max(sizes), \
                (spec.label, queue)
        assert counters.get("pipeline.sq.head_committed_cycles") == \
            (head_committed or None), spec.label


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
# which sessions record
# ----------------------------------------------------------------------


def test_from_parts_session_defaults_to_disabled():
    """Only a spec-built core samples occupancy; a session on reused
    parts neither samples nor records."""
    spec = amp_spec(False)
    session = Session.from_spec(spec)
    assert session.cpu.sample_occupancy
    bare = Session.from_parts(session.cpu.program, session.hierarchy)
    assert not bare.cpu.sample_occupancy
    assert bare.run().metrics == {}
    # A second run on the same (now warm) hierarchy has no record
    # either: whole-run totals would include the first run's events.
    again = Session.from_parts(session.cpu.program, session.hierarchy)
    assert again.run().metrics == {}


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
    executed, cache traffic and the runner's phase profile, the one
    record of a batch's wall time."""
    from repro import telemetry
    from repro.engine import REPRO_BACKEND_ENV
    monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
    registry = telemetry.REGISTRY
    registry.reset()
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
