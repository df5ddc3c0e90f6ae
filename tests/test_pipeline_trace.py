"""Figure-4-style store timelines read off the spec-level trace."""

import pytest

from repro.engine import (
    HierarchySpec, PluginSpec, SimSpec, SpecError, TraceSpec,
    execute_spec,
)
from repro.isa.assembler import Assembler
from repro.trace import (
    PIPELINE_CATEGORIES, events_of, render_timeline, store_timelines,
)

PIPELINE_TRACE = TraceSpec(categories=PIPELINE_CATEGORIES)


def store_spec(value, trace=PIPELINE_TRACE):
    asm = Assembler()
    asm.li(1, 0x1000)
    asm.load(2, 1, 0)
    asm.li(3, value)
    asm.store(3, 1, 0)
    asm.halt()
    return SimSpec(program=asm.assemble(),
                   hierarchy=HierarchySpec(memory_size=1 << 16),
                   plugins=(PluginSpec.of("silent-stores"),),
                   mem_writes=((0x1000, 42, 8),), trace=trace)


def test_event_order_is_causal():
    asm = Assembler()
    asm.li(1, 7)
    asm.mul(2, 1, 1)
    asm.halt()
    run = execute_spec(SimSpec(program=asm.assemble(),
                               trace=PIPELINE_TRACE))
    lifecycle = {}
    for cycle, category, name, seq, *_ in events_of(run.trace):
        if category == "inst" and seq >= 0:
            lifecycle.setdefault(seq, {})[name] = cycle
    assert len(lifecycle) == 3
    order = ("dispatch", "issue", "complete", "retire")
    for events in lifecycle.values():
        cycles = [events[name] for name in order if name in events]
        assert cycles == sorted(cycles)
        assert "dispatch" in events and "retire" in events


def test_store_timeline_records_figure4_events():
    run = execute_spec(store_spec(42))
    assert run.stats["silent_stores"] == 1
    lines = store_timelines(run.trace)
    assert len(lines) == 1
    assert "address_resolves" in lines[0]
    assert "silent_dequeue" in lines[0]


def test_nonsilent_store_timeline():
    line = store_timelines(execute_spec(store_spec(7)).trace)[0]
    assert "performed_nonsilent" in line
    assert "dequeue" in line


def test_store_timelines_exact_lines():
    prefix = ("#3 store x3 0(x1): dispatch@3 -> issue@4 -> commit@126 "
              "-> address_resolves@5 -> ss_load_issued@5 "
              "-> ss_load_returned@7 -> dequeue@129")
    assert store_timelines(execute_spec(store_spec(42)).trace) == \
        [prefix + " -> silent_dequeue@129"]
    assert store_timelines(execute_spec(store_spec(7)).trace) == \
        [prefix + " -> performed_nonsilent@129"]


def test_tracer_changes_nothing():
    """Tracing changes no cycles, stats or observations."""
    for value in (42, 7):
        traced = execute_spec(store_spec(value))
        untraced = execute_spec(store_spec(value, trace=None))
        assert untraced.trace == {}
        assert traced.cycles == untraced.cycles
        assert traced.stats == untraced.stats
        assert traced.observations == untraced.observations


def test_tracer_consumes_engine_installed_buffer():
    """The timelines read any spec-level stream: a full-category trace
    gives the same lines as a pipeline-only one."""
    for value in (42, 7):
        full = execute_spec(store_spec(value, trace=TraceSpec()))
        pipeline = execute_spec(store_spec(value))
        assert any(event[1] == "mem" for event in events_of(full.trace))
        assert store_timelines(full.trace) == \
            store_timelines(pipeline.trace)


def test_tracer_installs_pipeline_only_buffer():
    """A ``PIPELINE_CATEGORIES`` trace records only ``inst``/``sq``:
    hierarchy events are filtered out, not recorded."""
    trace = execute_spec(store_spec(42)).trace
    assert trace["categories"] == ["inst", "sq"]
    assert trace["filtered"] > 0
    assert {event[1] for event in events_of(trace)} == {"inst", "sq"}


def test_untraced_timeline_message():
    assert store_timelines({}) == []
    assert render_timeline({}) == "(no pipeline events traced)"


def test_retired_tracer_is_an_unknown_plugin():
    with pytest.raises(SpecError):
        PluginSpec.of("pipeline-tracer").build()
