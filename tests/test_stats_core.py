"""Unit tests for the repro.stats record types and merge semantics."""

import copy
import pickle

import pytest

from repro.stats import Histogram, SimStats, merge_all
from repro.stats.report import (
    extract_stats_blocks, render_stats, sparkline,
)

# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------


def test_histogram_binning_and_moments():
    hist = Histogram(bin_width=10)
    for value in (0, 5, 9, 10, 25, 25):
        hist.add(value)
    assert hist.bins == {0: 3, 10: 1, 20: 2}
    assert hist.count == 6
    assert hist.total == 74
    assert (hist.min, hist.max) == (0, 25)
    assert hist.mean == pytest.approx(74 / 6)
    assert hist.percentile(0.5) == 0
    assert hist.percentile(1.0) == 20


def test_histogram_merge_sums_bins_and_tracks_extremes():
    a = Histogram(bin_width=10)
    b = Histogram(bin_width=10)
    a.add(5)
    a.add(15)
    b.add(15)
    b.add(95)
    a.merge(b)
    assert a.bins == {0: 1, 10: 2, 90: 1}
    assert (a.count, a.min, a.max) == (4, 5, 95)


def test_histogram_merge_rejects_mismatched_bin_width():
    with pytest.raises(ValueError, match="bin width"):
        Histogram(bin_width=10).merge(Histogram(bin_width=16))


def test_histogram_merges_a_payload_as_it_merges_the_histogram():
    source = Histogram(bin_width=8)
    source.add(3)
    source.add(200, weight=4)
    source.add(-9)
    seeded = Histogram(bin_width=8)
    seeded.add(500)
    for start in (Histogram(bin_width=8), seeded):
        via_payload = copy.deepcopy(start).merge(source.as_dict())
        assert via_payload == copy.deepcopy(start).merge(source)
        assert set(via_payload.bins) <= {-16, 0, 200, 496}
    with pytest.raises(ValueError, match="bin width"):
        Histogram(bin_width=16).merge(source.as_dict())


def test_observe_count_equals_repeated_observations():
    once = SimStats()
    once.observe("mem.miss_latency", 37, bin_width=8, count=3)
    each = SimStats()
    for _ in range(3):
        each.observe("mem.miss_latency", 37, bin_width=8)
    assert once == each


def test_histogram_dict_roundtrip_and_equality():
    hist = Histogram(bin_width=8)
    hist.add(3)
    hist.add(200, weight=4)
    rebuilt = Histogram.from_dict(hist.as_dict())
    assert rebuilt == hist
    assert rebuilt.as_dict() == hist.as_dict()


def test_empty_histogram_defaults():
    hist = Histogram()
    assert hist.mean == 0.0
    assert hist.percentile(0.5) is None
    assert Histogram.from_dict(hist.as_dict()) == hist


# ----------------------------------------------------------------------
# SimStats
# ----------------------------------------------------------------------


def sample_stats(scale=1):
    stats = SimStats()
    stats.inc("pipeline.cycles", 100 * scale)
    stats.inc("mem.l1.hits")
    stats.peak("pipeline.rob.high_water", 10 * scale)
    stats.observe("mem.miss_latency", 120, bin_width=8)
    stats.observe("mem.miss_latency", 12 * scale, bin_width=8)
    return stats


def test_counter_peak_and_get_semantics():
    stats = SimStats()
    stats.inc("a")
    stats.inc("a", 4)
    stats.peak("hw", 3)
    stats.peak("hw", 2)  # lower value never wins
    assert stats.get("a") == 5
    assert stats.get("hw") == 3
    assert stats.get("missing") == 0
    assert stats.get("missing", default=-1) == -1
    assert stats.histogram("missing") is None
    assert bool(stats) and not bool(SimStats())


def test_merge_is_commutative_and_associative():
    def build(*scales):
        merged = SimStats()
        for scale in scales:
            merged.merge(sample_stats(scale))
        return merged

    assert build(1, 2, 3) == build(3, 1, 2)
    left = build(1, 2).merge(sample_stats(3))
    right = SimStats().merge(sample_stats(1)).merge(build(2, 3))
    assert left == right
    assert left.counters["pipeline.cycles"] == 600
    assert left.maxima["pipeline.rob.high_water"] == 30


def test_merge_accepts_dict_payloads_and_empties():
    stats = sample_stats()
    assert stats.merge(None) is stats
    assert stats.merge({}) is stats
    merged = SimStats().merge(sample_stats().as_dict()) \
                       .merge(sample_stats())
    assert merged.counters["pipeline.cycles"] == 200
    assert merged.histograms["mem.miss_latency"].count == 4


def test_merging_a_payload_equals_merging_its_record():
    payloads = [sample_stats(scale).as_dict() for scale in (1, 2, 3)]
    extra = SimStats()
    extra.inc("engine.trials")
    extra.peak("pipeline.sq.high_water", 5)
    extra.observe("pipeline.sq.stall", 40, bin_width=16)
    payloads.append(extra.as_dict())
    for start in (SimStats(), sample_stats(4)):
        direct = copy.deepcopy(start)
        via_record = copy.deepcopy(start)
        for payload in payloads:
            direct.merge(payload)
            via_record.merge(SimStats.from_dict(payload))
        assert direct == via_record
        assert direct.to_json() == via_record.to_json()
    # The merged record owns its histograms: changing it leaves every
    # payload as it was.
    kept = copy.deepcopy(payloads)
    direct.observe("mem.miss_latency", 500, bin_width=8)
    direct.observe("pipeline.sq.stall", 3, bin_width=16)
    direct.inc("pipeline.cycles", 7)
    direct.peak("pipeline.rob.high_water", 1_000)
    assert payloads == kept


def test_merge_does_not_alias_source_histograms():
    source = sample_stats()
    merged = SimStats().merge(source)
    merged.observe("mem.miss_latency", 500, bin_width=8)
    assert source.histograms["mem.miss_latency"].count == 2


def test_as_dict_roundtrip_and_json_determinism():
    stats = sample_stats()
    rebuilt = SimStats.from_dict(stats.as_dict())
    assert rebuilt == stats
    assert rebuilt.to_json() == stats.to_json()
    assert stats == stats.as_dict()  # dict comparison supported


def test_simstats_pickles():
    stats = sample_stats()
    clone = pickle.loads(pickle.dumps(stats))
    assert clone == stats
    clone.inc("pipeline.cycles")
    assert clone != stats


def test_merge_all_over_mixed_records():
    records = [sample_stats(), sample_stats(2).as_dict(), None, {}]
    merged = merge_all(records)
    assert merged.counters["pipeline.cycles"] == 300
    assert merged.maxima["pipeline.rob.high_water"] == 20
    assert merge_all([]) == SimStats()


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------


def test_render_stats_groups_by_prefix():
    report = render_stats(sample_stats(), title="trial")
    assert "== trial ==" in report
    assert "[pipeline]" in report and "[mem]" in report
    assert "pipeline.rob.high_water" in report and "(peak)" in report
    assert "mem.miss_latency" in report


def test_render_stats_handles_empty_record():
    assert "no recorded metrics" in render_stats(SimStats())


def test_sparkline_shape():
    hist = Histogram(bin_width=1)
    for value in (0, 0, 0, 31):
        hist.add(value)
    line = sparkline(hist, width=32)
    assert len(line) == 32
    assert line[0] == "█"
    assert sparkline(Histogram()) == ""


def test_extract_stats_blocks_variants():
    record = sample_stats().as_dict()
    assert extract_stats_blocks({"stats": record}, "bench") == \
        [("bench:stats", record)]
    labelled = extract_stats_blocks(
        {"stats": {"correct": record, "incorrect": record}}, "fig6")
    assert [label for label, _ in labelled] == \
        ["fig6:correct", "fig6:incorrect"]
    assert extract_stats_blocks({"metrics": record, "label": "run/0"}) \
        == [("run/0", record)]
    assert extract_stats_blocks(record, "bare") == [("bare", record)]
    assert extract_stats_blocks({"cycles": 5}) == []
    assert extract_stats_blocks([1, 2]) == []


def test_extract_stats_blocks_prefers_metrics_over_legacy_stats():
    # A serialized RunResult carries BOTH a legacy core-stats dict
    # ("stats") and the SimStats payload ("metrics"); only the latter
    # is a renderable record.
    record = sample_stats().as_dict()
    payload = {"label": "probe", "metrics": record,
               "stats": {"cycles": 10, "dispatch_stalls": {"rob": 1}}}
    assert extract_stats_blocks(payload) == [("probe", record)]
    # The legacy dict alone yields nothing (its values are not records).
    assert extract_stats_blocks(
        {"stats": {"cycles": 10, "dispatch_stalls": {"rob": 1}}}) == []
