"""Serialize a metrics registry as Prometheus text exposition.

:func:`render_prometheus` writes a :meth:`MetricsRegistry.snapshot` in
the Prometheus text exposition format (version 0.0.4): ``# HELP``/
``# TYPE`` headers, one sample line per label set, histograms as
cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``.  This
is what ``GET /metrics`` serves and what ``promtool``/any Prometheus
scraper ingests.  It accepts a live registry or a snapshot dict, so
pool-worker snapshots and the process registry render identically.
"""

__all__ = ["CONTENT_TYPE", "render_prometheus"]

#: The content type Prometheus scrapers expect from ``/metrics``.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _snapshot_of(source):
    if hasattr(source, "snapshot"):
        return source.snapshot()
    return source or {}


def _escape(value):
    return "".join(_ESCAPES.get(ch, ch) for ch in str(value))


def _format_value(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _label_text(items, extra=()):
    pairs = [f'{name}="{_escape(value)}"'
             for name, value in (*items, *extra)]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _help_text(text):
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def render_prometheus(source):
    """The registry/snapshot as Prometheus text exposition."""
    snapshot = _snapshot_of(source)
    lines = []
    for name, payload in snapshot.items():
        kind = payload["kind"]
        help_text = payload.get("help", "")
        if help_text:
            lines.append(f"# HELP {name} {_help_text(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for key, value in payload["samples"]:
            items = [tuple(item) for item in key]
            if kind == "histogram":
                cumulative = 0
                bounds = list(value["bounds"]) + ["+Inf"]
                for bound, count in zip(bounds, value["counts"]):
                    cumulative += count
                    le = bound if bound == "+Inf" \
                        else _format_value(bound)
                    lines.append(
                        f"{name}_bucket"
                        f"{_label_text(items, [('le', le)])} "
                        f"{cumulative}")
                lines.append(f"{name}_sum{_label_text(items)} "
                             f"{_format_value(value['total'])}")
                lines.append(f"{name}_count{_label_text(items)} "
                             f"{value['count']}")
            else:
                lines.append(f"{name}{_label_text(items)} "
                             f"{_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else "\n"
