"""One run report across all three observability layers.

``python -m repro report`` answers "where did the run actually go?" in
a single page by merging

* the **fleet** view — a telemetry snapshot (wall-clock phase
  profile, cache traffic, per-backend trial counts);
* the **simulated** view — merged :class:`~repro.stats.SimStats`
  records out of ``RunResult.metrics`` (simulated events: stalls,
  hits, squashes);
* the **throughput** view — the ``BENCH_PERF.json`` KIPS report, when
  one exists.

It is the telemetry registry's one front door: the registry records
in process, and this report is how a run's totals leave it.

:func:`run_demo_fleet` gives the CLI something real to report on
without arguments: it runs the Figure 5 amplified probes twice through
:func:`~repro.engine.runner.run_batch` against a scratch cache (the
second pass hits), so every phase, cache, and backend metric is
populated by genuine engine traffic.
"""

import json

from repro.telemetry.registry import PHASE_METRIC

__all__ = [
    "build_report", "load_perf", "phase_table", "render_report",
    "run_demo_fleet",
]


def run_demo_fleet(registry=None, backend=None):
    """Exercise the engine fleet; returns (telemetry snapshot, merged
    simulated-metrics dict).

    Two ``run_batch`` passes over the Figure 5 amplified probes against
    one in-memory cache: the first pass misses and executes, the second
    hits — so the snapshot carries every phase histogram, the cache
    hit *and* miss counters, and per-backend trial counts, which is
    exactly the surface the report table renders.
    """
    from repro.attacks.amplification import amplified_probe_spec
    from repro.engine.cache import ResultCache
    from repro.engine.runner import run_batch
    from repro.stats import merge_all
    if registry is None:
        from repro.telemetry import REGISTRY as registry
    secret = 0x1234
    specs = [
        amplified_probe_spec(secret, secret, gadget=True,
                             label="report_silent"),
        amplified_probe_spec(secret, 0x4321, gadget=True,
                             label="report_nonsilent"),
        amplified_probe_spec(secret, secret, gadget=False,
                             label="report_plain_silent"),
        amplified_probe_spec(secret, 0x4321, gadget=False,
                             label="report_plain_nonsilent"),
    ]
    cache = ResultCache()
    results = run_batch(specs, cache=cache, backend=backend)
    run_batch(specs, cache=cache, backend=backend)
    simulated = merge_all(result.metrics for result in results)
    return registry.snapshot(), simulated.as_dict()


def load_perf(path, required=False):
    """The ``BENCH_PERF.json`` payload at ``path``.

    An absent file is None unless ``required``.  Raises ``ValueError``
    naming the file when it cannot be read, is not JSON, or is not a
    throughput report the KIPS table can render (every workload needs
    its ``reference`` and ``fastpath`` rows).
    """
    from repro.analysis.throughput import render_table
    try:
        with open(path) as handle:
            perf = json.load(handle)
    except OSError as error:
        if isinstance(error, FileNotFoundError) and not required:
            return None
        raise ValueError(f"cannot read {path}: "
                         f"{error.strerror or error}") from None
    except ValueError as error:
        raise ValueError(f"{path} is not JSON: {error}") from None
    try:
        render_table(perf)
        renders = bool(perf["workloads"])
    except (AttributeError, LookupError, TypeError, ValueError):
        renders = False
    if not renders:
        raise ValueError(
            f"{path} is not a throughput report: every workload needs "
            "its reference and fastpath rows (run `python -m repro "
            "bench`)")
    return perf


def build_report(snapshot=None, simulated=None, perf=None):
    """Assemble the merged run-report payload (JSON-able)."""
    return {
        "report": "repro run report",
        "layers": {
            "telemetry": "wall-clock fleet (this process)",
            "simulated": "merged RunResult.metrics (simulated events)",
            "bench_perf": "BENCH_PERF.json throughput (if present)",
        },
        "telemetry": snapshot or {},
        "simulated": simulated or {},
        "bench_perf": perf,
    }


def phase_table(snapshot):
    """Rows ``(layer, phase, count, total_s, mean_ms)`` from a
    snapshot's :data:`PHASE_METRIC` family, slowest first."""
    family = (snapshot or {}).get(PHASE_METRIC)
    if not family:
        return []
    rows = []
    for key, value in family["samples"]:
        labels = dict(tuple(item) for item in key)
        count = value["count"]
        total = value["total"]
        rows.append((labels.get("layer", "?"), labels.get("phase", "?"),
                     count, total,
                     total / count * 1000.0 if count else 0.0))
    return sorted(rows, key=lambda row: -row[3])


def _render_fleet(snapshot, lines):
    rows = phase_table(snapshot)
    if rows:
        lines.append("  phase profile (wall-clock):")
        lines.append(f"    {'layer':22s} {'phase':10s} {'calls':>7s} "
                     f"{'total s':>9s} {'mean ms':>9s}")
        for layer, phase, count, total, mean_ms in rows:
            lines.append(f"    {layer:22s} {phase:10s} {count:7d} "
                         f"{total:9.3f} {mean_ms:9.3f}")
    scalars = []
    for name, payload in snapshot.items():
        if payload["kind"] != "counter":
            continue
        for key, value in payload["samples"]:
            labels = ",".join(f"{label}={text}"
                              for label, text in
                              (tuple(item) for item in key))
            suffix = f"{{{labels}}}" if labels else ""
            scalars.append(f"    {name + suffix:56s} {value:>14}")
    if scalars:
        lines.append("  counters:")
        lines.extend(scalars)
    if not rows and not scalars:
        lines.append("  (no fleet telemetry recorded)")


def _render_perf(perf, lines):
    if not perf:
        lines.append("  (no BENCH_PERF.json found — run "
                     "`python -m repro bench`)")
        return
    from repro.analysis.throughput import render_table
    lines.extend("  " + line for line in render_table(perf).splitlines())
    backends = perf.get("backends") or {}
    if "identical" in backends:
        lines.append(f"  backends identical: {backends['identical']}")


def render_report(report):
    """The human-readable single-page run report."""
    from repro.stats import render_stats
    lines = ["== run report =="]
    lines.append("")
    lines.append("-- fleet telemetry (wall-clock, this process) --")
    _render_fleet(report.get("telemetry") or {}, lines)
    lines.append("")
    lines.append("-- simulated metrics (merged RunResult.metrics) --")
    simulated = report.get("simulated") or {}
    if simulated:
        lines.append(render_stats(simulated, indent=""))
    else:
        lines.append("  (no simulated metrics in this report)")
    lines.append("")
    lines.append("-- simulator throughput (BENCH_PERF.json) --")
    _render_perf(report.get("bench_perf"), lines)
    return "\n".join(lines)
