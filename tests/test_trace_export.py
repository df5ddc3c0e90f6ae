"""Trace exporters: Chrome trace-event JSON schema, ASCII timelines.

The Chrome trace-event checks validate the subset of the format that
Perfetto and ``chrome://tracing`` require: every record has a phase in
{"X", "i", "M"}, complete spans carry integer ``ts``/``dur``, instants
carry a scope, metadata names threads/processes, and the whole
document is JSON-serializable with the ``traceEvents`` wrapper.
"""

import json

from repro.attacks.amplification import amplified_probe_spec
from repro.engine import TraceSpec, execute_spec
from repro.trace import (
    chrome_document, render_timeline, run_trace_events,
)


def _fig5_result(secret, store, label):
    spec = amplified_probe_spec(secret, store, label=label)
    return execute_spec(spec.replace(trace=TraceSpec()))


def _validate_chrome_events(events):
    assert events, "exporter produced no events"
    for event in events:
        assert event["ph"] in ("X", "i", "M"), event
        assert isinstance(event["pid"], int)
        assert isinstance(event["name"], str) and event["name"]
        if event["ph"] == "M":
            assert event["name"] in ("process_name", "thread_name")
            assert event["args"]["name"]
            continue
        assert isinstance(event["tid"], int)
        assert isinstance(event["ts"], int) and event["ts"] >= 0
        assert isinstance(event["cat"], str)
        if event["ph"] == "X":
            assert isinstance(event["dur"], int) and event["dur"] >= 1
        if event["ph"] == "i":
            assert event["s"] in ("t", "p", "g")


def test_run_trace_export_is_schema_valid():
    result = _fig5_result(0x2222, 0x1111, "fig5 non-silent")
    events = run_trace_events(result.trace, label=result.label, pid=1)
    _validate_chrome_events(events)
    document = chrome_document(events)
    assert set(document) == {"traceEvents", "displayTimeUnit"}
    json.dumps(document)  # must serialize cleanly

    names = {event["name"] for event in events}
    assert "hol_stall" in names, "Figure 5 stalls missing from export"
    spans = [event for event in events if event["ph"] == "X"]
    assert spans, "no instruction spans"
    # Lanes never hold overlapping spans (the pipeline-diagram view).
    lanes = {}
    for span in sorted(spans, key=lambda s: s["ts"]):
        assert lanes.get(span["tid"], 0) <= span["ts"]
        lanes[span["tid"]] = span["ts"] + span["dur"]


def test_run_trace_export_accepts_payload_and_buffer():
    result = _fig5_result(0x1111, 0x1111, "fig5 silent")
    from_payload = run_trace_events(result.trace)
    assert from_payload
    # The RunResult payload is plain JSON data all the way down.
    json.dumps(result.trace)


def test_timeline_shows_head_of_line_stalls():
    result = _fig5_result(0x2222, 0x1111, "fig5 non-silent")
    art = render_timeline(result.trace)
    assert "SQ head-of-line stalls" in art
    assert "!" in art
    assert "D dispatch" in art  # legend
    stalls = result.metrics["counters"][
        "pipeline.sq.head_of_line_stall_cycles"]
    assert f"({stalls} cycles)" in art


def test_timeline_of_empty_trace():
    assert "no pipeline events" in render_timeline({})


def test_timeline_truncation_is_reported():
    result = _fig5_result(0x1111, 0x1111, "fig5 silent")
    art = render_timeline(result.trace, max_rows=3)
    assert "more instructions not shown" in art
