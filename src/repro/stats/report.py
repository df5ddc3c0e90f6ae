"""Render :class:`~repro.stats.core.SimStats` records for humans.

The ``python -m repro stats`` CLI uses this to turn the ``stats``
blocks persisted in ``benchmarks/results/*.json`` (and the ``metrics``
field of any :class:`~repro.engine.session.RunResult` JSON) into the
kind of run report hardware simulators print: grouped counters,
high-water marks, and sparkline histograms.
"""

from repro.stats.core import SimStats

_BARS = " ▁▂▃▄▅▆▇█"


def _group_of(name):
    """Counters are namespaced ``group.sub...``; report by top group."""
    return name.split(".", 1)[0] if "." in name else "(misc)"


def sparkline(hist, width=32):
    """A compact unicode rendering of a histogram's shape."""
    if not hist.bins:
        return ""
    lo = min(hist.bins)
    hi = max(hist.bins)
    span = max(1, hi + hist.bin_width - lo)
    buckets = [0] * width
    for bin_lo, count in hist.bins.items():
        slot = min(width - 1, (bin_lo - lo) * width // span)
        buckets[slot] += count
    top = max(buckets)
    return "".join(_BARS[(count * (len(_BARS) - 1) + top - 1) // top
                         if count else 0]
                   for count in buckets)


def render_stats(stats, title=None):
    """Multi-line report for one stats record (or ``as_dict`` payload)."""
    if isinstance(stats, dict):
        stats = SimStats.from_dict(stats)
    lines = []
    if title:
        lines.append(f"== {title} ==")
    if not stats:
        lines.append("  (no recorded metrics)")
        return "\n".join(lines)

    groups = {}
    for name in stats.counters:
        groups.setdefault(_group_of(name), []).append(("counter", name))
    for name in stats.maxima:
        groups.setdefault(_group_of(name), []).append(("peak", name))
    for group in sorted(groups):
        lines.append(f"  [{group}]")
        for kind, name in sorted(groups[group], key=lambda item: item[1]):
            if kind == "counter":
                lines.append(f"    {name:<44s} {stats.counters[name]:>12}")
            else:
                lines.append(f"    {name:<44s} "
                             f"{stats.maxima[name]:>12}  (peak)")
    if stats.histograms:
        lines.append("  [histograms]")
        for name in sorted(stats.histograms):
            hist = stats.histograms[name]
            lines.append(
                f"    {name:<44s} n={hist.count:<7d} "
                f"min={hist.min} mean={hist.mean:.1f} max={hist.max}")
            shape = sparkline(hist)
            if shape:
                lines.append(f"      |{shape}|")
    return "\n".join(lines)


def _is_record(obj):
    """Does ``obj`` look like a non-empty ``SimStats.as_dict`` payload?"""
    return isinstance(obj, dict) and any(
        key in obj for key in ("counters", "maxima", "histograms"))


def extract_stats_blocks(payload, source=""):
    """Find stats records inside a loaded results JSON payload.

    Recognizes a serialized :class:`RunResult` (``metrics`` field —
    checked first, because a RunResult also carries a legacy ``stats``
    dict of plain core counters), a bench payload whose ``stats`` block
    holds one merged record or a ``{label: record}`` mapping, or a bare
    ``SimStats.as_dict`` payload.  Returns ``[(label, dict)]``.
    """
    if not isinstance(payload, dict):
        return []
    if _is_record(payload.get("metrics")):
        label = payload.get("label") or source or "run"
        return [(label, payload["metrics"])]
    blocks = []
    block = payload.get("stats")
    if _is_record(block):
        blocks.append((f"{source}:stats" if source else "stats", block))
    elif isinstance(block, dict):
        blocks.extend(
            (f"{source}:{label}" if source else label, sub)
            for label, sub in sorted(block.items())
            if _is_record(sub))
    if blocks:
        return blocks
    if _is_record(payload):
        return [(source or "stats", payload)]
    return []
