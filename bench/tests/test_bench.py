"""Checks on the benchmark itself, at a quick size.

    PYTHONPATH=src python -m pytest bench/tests -q

Not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Ops per quick run: a few of each workload's ops.
QUICK = {"fig6-bsaes": 2, "fig7-urg": 8, "audit": 4, "sweep-cold": 16,
         "sweep-warm": 40}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_names_and_units_match_benchmark_json():
    spec = _spec()
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == \
        list(run.PER_LAYER + run.layer_metrics())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(QUICK)
    assert spec["run_seconds"] == run.RUN_SECONDS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("name", list(QUICK))
def test_two_in_process_runs_give_identical_digests(name):
    first = run.run_workload(name, seed=3, ops=QUICK[name])
    second = run.run_workload(name, seed=3, ops=QUICK[name])
    assert first["correct"] and second["correct"]
    assert first["digest"] == second["digest"]
    assert first["attempted"] == QUICK[name]


def test_wrong_leaked_byte_counts_as_failure(monkeypatch):
    from repro.attacks.dmp_attack import DMPSandboxAttack, LeakResult

    def wrong(self, target_addr, max_cycles=400_000):
        true_byte = self.hierarchy.memory.read(target_addr, 1)
        return LeakResult(target_addr=target_addr, true_byte=true_byte,
                          leaked_byte=(true_byte + 1) % 256)

    monkeypatch.setattr(DMPSandboxAttack, "leak_byte", wrong)
    record = run.run_workload("fig7-urg", seed=0, ops=4)
    assert record["failed"] == 4
    assert record["failed_frac"] > 0
    assert not record["correct"]


def _records(failed=None, faster=1.0, traced_counts=()):
    """Five untraced runs per workload, plus one traced run per entry of
    ``traced_counts`` (the value of every exact count in it).
    ``failed`` maps a workload to the failed ops of its first run."""
    spec = _spec()
    out = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for i in range(5):
            metrics = {}
            for metric in spec["end_to_end"]:
                value = 10.0 + 0.01 * i
                if metric["better"] == "higher":
                    metrics[metric["name"]] = value * faster
                else:
                    metrics[metric["name"]] = value / faster
            bad = (failed or {}).get(name, 0) if i == 0 else 0
            out.append({"workload": name, "seed": i, "trace": 0,
                        "attempted": 100, "failed": bad,
                        "correct": bad == 0, "metrics": metrics})
        for count in traced_counts:
            out.append({"workload": name, "seed": 0, "trace": 1,
                        "attempted": 10, "failed": 0, "correct": True,
                        "metrics": dict.fromkeys(compare.EXACT_COUNTS,
                                                 count)})
    return out


def _compare(tmp_path, before, after, *extra):
    paths = []
    for side, records in (("before", before), ("after", after)):
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps(records))
        paths.append(str(path))
    return compare.main(paths + list(extra))


def test_compare_passes_the_same_runs(tmp_path):
    assert _compare(tmp_path, _records(), _records()) == 0


def test_compare_fails_an_after_run_with_failed_ops(tmp_path, capsys):
    after = _records(failed={"fig7-urg": 3}, faster=2.0)
    status = _compare(tmp_path, _records(), after,
                      "--claim", "fig7-urg:ops_per_s")
    out = capsys.readouterr().out
    assert status == 1
    assert "FAILED fig7-urg: after 3 of 500 ops failed" in out
    # Twice as fast on every pair, but failing ops deny the claim.
    assert "wins 100% of 5 pairs; not met" in out


def test_compare_accepts_counts_that_change_between_sides(tmp_path, capsys):
    status = _compare(tmp_path, _records(traced_counts=(100, 100)),
                      _records(traced_counts=(80, 80)))
    assert status == 0
    assert "changed by AFTER" in capsys.readouterr().out
    status = _compare(tmp_path, _records(traced_counts=(100, 100)),
                      _records(traced_counts=(80, 81)))
    assert status == 1


def test_layer_map_covers_every_kernel_function():
    package = os.path.join(ROOT, "src", "repro")
    for filename, table in layers.KERNEL_FUNCTIONS.items():
        defined = set(layers.kernel_definitions(
            os.path.join(package, "pipeline", filename)).values())
        assert defined <= set(table), sorted(defined - set(table))
        assert set(table.values()) <= set(layers.LAYERS)
    assert set(layers.MODULE_LAYERS.values()) <= set(layers.LAYERS)


@pytest.mark.parametrize("name", list(QUICK))
def test_other_layer_is_below_five_percent(name):
    record = run.run_workload(name, seed=0, ops=QUICK[name], trace=True)
    metrics = record["metrics"]
    assert record["correct"]
    assert metrics["other.share"] < 0.05
    shares = sum(metrics[f"{layer}.share"] for layer in layers.LAYERS)
    assert shares == pytest.approx(1.0)
