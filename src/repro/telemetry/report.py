"""The run report: what one command recorded in the telemetry registry.

``python -m repro report [--out PATH] <command> [args...]`` resets the
process registry, runs the command in process, and renders what that
run recorded: the :data:`PHASE_METRIC` wall-clock phase profile,
slowest phase first, and every counter.  It is the registry's one
front door: the registry records in process, and this report is how a
run's totals leave it.
"""

from repro.telemetry.registry import PHASE_METRIC

__all__ = ["phase_table", "render_report"]


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


def render_report(snapshot, title):
    """The phase profile and counters of ``snapshot``, headed by
    ``title`` (the command that recorded them)."""
    lines = [f"== run report: {title} =="]
    rows = phase_table(snapshot)
    if rows:
        lines.append("  phase profile (wall-clock):")
        lines.append(f"    {'layer':22s} {'phase':10s} {'calls':>7s} "
                     f"{'total s':>9s} {'mean ms':>9s}")
        for layer, phase, count, total, mean_ms in rows:
            lines.append(f"    {layer:22s} {phase:10s} {count:7d} "
                         f"{total:9.3f} {mean_ms:9.3f}")
    counters = []
    for name, payload in snapshot.items():
        if payload["kind"] != "counter":
            continue
        for key, value in payload["samples"]:
            labels = ",".join(f"{label}={text}" for label, text in key)
            counters.append((f"{name}{{{labels}}}" if labels else name,
                             value))
    if counters:
        width = max(len(label) for label, _ in counters)
        lines.append("  counters:")
        lines.extend(f"    {label:{width}s} {value:>14}"
                     for label, value in counters)
    if not rows and not counters:
        lines.append("  (no telemetry recorded)")
    return "\n".join(lines)
