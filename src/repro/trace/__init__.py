"""Cycle-accurate event tracing for every layer of the simulator.

* :mod:`repro.trace.buffer` — :class:`TraceBuffer`, a bounded ring of
  typed events with per-category filters and sampling, plus the
  disabled-mode :data:`NULL_TRACE`.
* :mod:`repro.trace.perfetto` — Chrome trace-event JSON export
  (Perfetto / ``chrome://tracing`` loadable).
* :mod:`repro.trace.timeline` — gem5-pipeview/Konata-style ASCII
  timeline rendering for terminals, and the Figure 4 store timelines.

Enable per-spec with ``SimSpec(trace=TraceSpec(), ...)``; drive from
the shell with ``python -m repro trace``.  See DESIGN.md ("The trace
layer") for the event taxonomy and the determinism boundary.
"""

from repro.trace.buffer import (
    CATEGORIES, NULL_TRACE, NullTraceBuffer, PIPELINE_CATEGORIES,
    TraceBuffer, TraceError, events_of,
)
from repro.trace.perfetto import (
    chrome_document, run_trace_events, write_chrome_trace,
)
from repro.trace.timeline import render_timeline, store_timelines

__all__ = [
    "CATEGORIES", "NULL_TRACE", "NullTraceBuffer",
    "PIPELINE_CATEGORIES", "TraceBuffer", "TraceError",
    "chrome_document", "events_of", "render_timeline",
    "run_trace_events", "store_timelines", "write_chrome_trace",
]
