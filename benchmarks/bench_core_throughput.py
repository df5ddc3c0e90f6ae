"""Simulator throughput — the fast-path kernel's KIPS scorecard.

Runs the three end-to-end workloads (Figure 5 amplification probes,
Figure 6 BSAES timing histogram, Figure 7 eBPF universal read gadget)
under both kernels and reports simulated KIPS (thousands of retired
instructions per wall-clock second), the wall-clock speedup, and —
crucially — whether the two kernels produced bitwise-identical per-run
cycle counts, stats, and attack outcomes.  A speedup bought with drift
is a bug; ``identical`` must be True for every workload.

Unlike the figure benches this one measures *wall time*, so its JSON
lands both in ``benchmarks/results/`` and as ``BENCH_PERF.json`` at the
repository root (the artifact CI uploads and gates on).  The bench
reads that file back and fails unless it renders to the same table.
"""

import json
import os

from conftest import emit, emit_json

from repro.analysis.throughput import render_table, run_suite, write_report

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir))


def test_core_throughput(once):
    report = once(run_suite)
    table = render_table(report)
    emit("core_throughput", table)
    emit_json("core_throughput", report)
    path = write_report(report,
                        path=os.path.join(REPO_ROOT, "BENCH_PERF.json"))
    with open(path) as handle:
        assert render_table(json.load(handle)) == table, \
            f"{path} does not read back to the table it was written from"

    workloads = report["workloads"]
    # Exactness is non-negotiable on every workload: the fast path must
    # change nothing but wall time.
    for name, entry in workloads.items():
        assert entry["identical"], f"{name}: kernels diverged"
        assert entry["fastpath"]["instructions"] > 0
        assert (entry["fastpath"]["sim_cycles"]
                == entry["reference"]["sim_cycles"])

    # The headline target is the fig6 end-to-end attack.  Locally it
    # lands near 3.2x; the gate is 2.5x (ratcheted from the initial 2x)
    # with headroom left for shared-CI jitter.
    assert workloads["fig6"]["speedup"] >= 2.5

    # Fast-forward must actually engage.
    counters = workloads["fig6"]["fastpath_counters"]
    assert counters["fastpath.cycles_skipped"] > 0
