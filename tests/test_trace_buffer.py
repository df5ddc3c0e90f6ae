"""The trace ring buffer: bounds, filters, sampling, determinism."""

import pytest

from repro.attacks.amplification import amplified_probe_spec
from repro.engine import TraceSpec, execute_spec
from repro.trace import (
    CATEGORIES, NULL_TRACE, TraceBuffer, TraceError, events_of,
)


def test_emit_and_read_back():
    buffer = TraceBuffer()
    buffer.emit("inst", "dispatch", cycle=3, seq=0, pc=0, info="li x1 7")
    buffer.emit("inst", "retire", cycle=9, seq=0, pc=0)
    assert len(buffer) == 2
    assert buffer.events() == [
        (3, "inst", "dispatch", 0, 0, -1, "li x1 7"),
        (9, "inst", "retire", 0, 0, -1, ""),
    ]
    assert buffer.emitted == 2
    assert buffer.dropped == 0


def test_clock_injection():
    buffer = TraceBuffer()
    now = {"cycle": 41}
    buffer.set_clock(lambda: now["cycle"])
    buffer.emit("sq", "hol_stall")
    now["cycle"] = 42
    buffer.emit("sq", "hol_stall")
    assert [event[0] for event in buffer.events()] == [41, 42]


def test_ring_drops_oldest_and_counts():
    buffer = TraceBuffer(capacity=4)
    for cycle in range(10):
        buffer.emit("mem", "l1_hit", cycle=cycle, addr=cycle)
    assert len(buffer) == 4
    # The ring keeps the newest events; the overwrites are visible.
    assert [event[0] for event in buffer.events()] == [6, 7, 8, 9]
    assert buffer.emitted == 10
    assert buffer.dropped == 6


def test_run_record_copies_the_dropped_count():
    """A spec-built run's record carries the ring's drop count as
    ``trace.dropped_events``, and no such counter when nothing was
    dropped."""
    spec = amplified_probe_spec(0x1234, 0x4321)
    small = execute_spec(spec.replace(trace=TraceSpec(capacity=16)))
    assert small.trace["dropped"] == small.trace["emitted"] - 16 > 0
    assert small.metrics["counters"]["trace.dropped_events"] == \
        small.trace["dropped"]
    whole = execute_spec(spec.replace(trace=TraceSpec()))
    assert whole.trace["dropped"] == 0
    assert "trace.dropped_events" not in whole.metrics["counters"]


def test_category_filter():
    buffer = TraceBuffer(categories=("sq",))
    buffer.emit("sq", "perform", cycle=1)
    buffer.emit("mem", "l1_hit", cycle=1)
    buffer.emit("fetch", "fetch", cycle=1)
    assert [event[1] for event in buffer.events()] == ["sq"]
    assert buffer.filtered == 2
    assert buffer.events(category="mem") == []


def test_per_category_sampling_is_positional():
    buffer = TraceBuffer(sample=3)
    for cycle in range(9):
        buffer.emit("mem", "l1_hit", cycle=cycle)
        buffer.emit("sq", "perform", cycle=cycle)
    # Every 3rd event per category, starting with the first.
    assert [e[0] for e in buffer.events(category="mem")] == [0, 3, 6]
    assert [e[0] for e in buffer.events(category="sq")] == [0, 3, 6]
    assert buffer.filtered == 12


def test_invalid_configurations_raise():
    with pytest.raises(TraceError):
        TraceBuffer(capacity=0)
    with pytest.raises(TraceError):
        TraceBuffer(sample=0)
    with pytest.raises(TraceError):
        TraceBuffer(categories=("inst", "bogus"))


def test_payload_round_trip():
    buffer = TraceBuffer(capacity=8, categories=("inst",), sample=1)
    buffer.emit("inst", "dispatch", cycle=1, seq=0, pc=0, info="halt")
    payload = buffer.as_payload()
    assert payload["capacity"] == 8
    assert payload["categories"] == ["inst"]
    assert payload["emitted"] == 1
    assert events_of(payload) == buffer.events()
    assert events_of({}) == []
    assert events_of(buffer) == buffer.events()


def test_clear_resets_everything():
    buffer = TraceBuffer(capacity=2)
    for _ in range(5):
        buffer.emit("opt", "silent-stores", cycle=1)
    buffer.clear()
    assert len(buffer) == 0
    assert buffer.emitted == buffer.dropped == buffer.filtered == 0


def test_null_trace_is_inert():
    before = len(NULL_TRACE)
    NULL_TRACE.emit("inst", "dispatch", cycle=1, seq=0)
    NULL_TRACE.set_clock(lambda: 99)
    assert not NULL_TRACE.enabled
    assert len(NULL_TRACE) == before == 0
    assert NULL_TRACE.as_payload()["events"] == []


def test_taxonomy_is_closed():
    buffer = TraceBuffer(categories=CATEGORIES)
    assert buffer.categories == frozenset(CATEGORIES)
