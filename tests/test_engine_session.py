"""Engine sessions and the trial runner: determinism regression tests.

The engine's core contract is that a :class:`SimSpec` fully determines
its run: building the same spec twice — in this process or across a
worker pool — must produce identical statistics and observations.
"""

import dataclasses
import gc
import json
import weakref

import pytest

from repro.engine import (
    HierarchySpec, LatencySpec, PluginSpec, ResultCache, Session,
    SimSpec, TraceSpec, derive_seed, execute_spec, run_batch,
)
from repro.isa.assembler import Assembler
from repro.lint.progen import CaseGenerator, TRIGGER_TEMPLATES
from repro.memory.cache import Cache
from repro.memory.flatmem import FlatMemory
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline import SimulationError
from repro.pipeline.config import CPUConfig
from tests.spec_catalog import attack_specs


def probe_program(store_value=42):
    asm = Assembler()
    asm.li(1, 0x1000)
    asm.load(2, 1, 0)
    asm.fence()
    asm.li(3, store_value)
    asm.store(3, 1, 0)
    asm.fence()
    asm.halt()
    return asm.assemble()


def probe_spec(store_value=42, seed=0, jitter=0, store_perform=1,
               label=""):
    return SimSpec(
        program=probe_program(store_value),
        config=CPUConfig(store_queue_size=5),
        hierarchy=HierarchySpec(
            memory_size=1 << 16,
            latencies=LatencySpec(jitter=jitter,
                                  store_perform=store_perform)),
        plugins=(PluginSpec.of("silent-stores"),),
        mem_writes=((0x1000, 42, 8),),
        seed=seed, label=label)


def result_key(result):
    return (result.fingerprint, result.cycles, result.stats,
            result.observations)


def test_same_spec_runs_identically():
    first = Session.from_spec(probe_spec(seed=3, jitter=4)).run()
    second = Session.from_spec(probe_spec(seed=3, jitter=4)).run()
    assert result_key(first) == result_key(second)
    assert first.stats == second.stats           # full CPUStats dict
    assert first.observations == second.observations


def test_silent_store_observed_through_spec():
    silent = Session.from_spec(probe_spec(store_value=42)).run()
    noisy = Session.from_spec(probe_spec(store_value=7)).run()
    assert silent.stats["silent_stores"] == 1
    assert noisy.stats["silent_stores"] == 0
    assert "silent-stores" in silent.observations["plugins"]
    assert silent.fingerprint != noisy.fingerprint


def test_pool_matches_serial_run():
    """workers=2 fans across processes with identical aggregates."""
    def specs():
        return [probe_spec(store_value=40 + trial,
                           seed=derive_seed(11, trial), jitter=6,
                           label=f"trial/{trial}")
                for trial in range(8)]

    serial = run_batch(specs(), workers=1)
    pooled = run_batch(specs(), workers=2)
    assert [result_key(r) for r in serial] \
        == [result_key(r) for r in pooled]
    assert [r.label for r in pooled] == [s.label for s in specs()]


def test_derived_seeds_vary_jitter_reproducibly():
    cycles = [Session.from_spec(
        probe_spec(seed=derive_seed(5, trial), jitter=8)).run().cycles
        for trial in range(6)]
    again = [Session.from_spec(
        probe_spec(seed=derive_seed(5, trial), jitter=8)).run().cycles
        for trial in range(6)]
    assert cycles == again          # reproducible...
    assert len(set(cycles)) > 1     # ...but varying across trials


def test_derive_seed_is_stable_and_mixed():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)
    assert derive_seed(7, 1) != derive_seed(8, 1)


def test_register_preload_and_recording():
    asm = Assembler()
    asm.add(3, 1, 2)
    asm.halt()
    spec = SimSpec(program=asm.assemble(),
                   hierarchy=HierarchySpec(memory_size=1 << 12),
                   regs=((1, 30), (2, 12)), record_regs=(3,))
    result = Session.from_spec(spec).run()
    assert result.observations["regs"]["3"] == 42


def test_both_kernels_attach_exactly_the_spec_plugins():
    """The kernel choice adds no plug-in of its own: a session lists
    the spec's plug-ins, in order, under either kernel."""
    for name, spec in attack_specs().items():
        expected = [plugin.name for plugin in spec.plugins]
        for fastpath in (True, False):
            session = Session.from_spec(spec.replace(fastpath=fastpath))
            assert [p.name for p in session.plugins] == expected, \
                (name, fastpath)


def test_from_parts_session_is_not_content_addressed():
    """Persistent-hierarchy callers run fine but never enter the cache."""
    hierarchy = MemoryHierarchy(FlatMemory(1 << 16), l1=Cache())
    session = Session.from_parts(probe_program(), hierarchy,
                                 config=CPUConfig(), label="parts")
    result = session.run()
    assert result.cycles > 0
    assert result.label == "parts"
    assert result.fingerprint == ""
    cache = ResultCache()
    cache.put(result)
    assert len(cache) == 0


def _spin_spec(spec_limit, config_limit, fastpath):
    """A program that never halts, under both cycle-limit sources."""
    asm = Assembler()
    asm.label("spin")
    asm.addi(1, 1, 1)
    asm.jmp("spin")
    return SimSpec(program=asm.assemble(),
                   config=CPUConfig(max_cycles=config_limit),
                   hierarchy=HierarchySpec(memory_size=1 << 12),
                   max_cycles=spec_limit, fastpath=fastpath)


def _limit_reached(spec, max_cycles=None):
    """``(cycle, message)`` at which ``Session.run`` gives up."""
    session = Session.from_spec(spec)
    with pytest.raises(SimulationError) as caught:
        session.run(max_cycles)
    return session.cpu.cycle, str(caught.value)


@pytest.mark.parametrize("max_cycles, spec_limit, expected", [
    (200, 300, 200),       # the explicit argument wins
    (None, 300, 300),      # then the spec's limit
    (None, None, 500),     # then the core config's
])
def test_cycle_limit_resolution(max_cycles, spec_limit, expected):
    """Both kernels stop at the resolved limit, with the same message."""
    outcomes = {_limit_reached(_spin_spec(spec_limit, 500, fastpath),
                               max_cycles)
                for fastpath in (False, True)}
    assert outcomes == {
        (expected, f"exceeded {expected} cycles without halting")}


def test_run_replay_accepts_specs():
    """run_replay drives SimSpec-producing measures through the engine.

    A lone silent store is timing-invisible (Figure 5's point), so the
    replayed probe is the amplification gadget: only the matching
    store value times fast.
    """
    from repro.analysis.experiments import run_replay
    from repro.attacks.amplification import amplified_probe_spec
    series = run_replay(
        lambda value: amplified_probe_spec(42, value),
        [41, 42, 43], name="equality-probe", workers=2)
    fast_precondition, _cycles = series.fastest()
    assert fast_precondition == 42          # the silent (matching) store
    assert series.outliers() == [series.fastest()]


@pytest.mark.parametrize("fastpath", [True, False])
def test_finished_trials_free_their_sessions(monkeypatch, fastpath):
    """A trial's core, hierarchy and memory are freed by reference
    counting as soon as its result is returned: with the cyclic
    collector off, no core built by ``execute_spec`` stays alive."""
    cores = []
    build = Session.from_spec.__func__

    def tracking(cls, spec, fingerprint=None):
        session = build(cls, spec, fingerprint)
        cores.append(weakref.ref(session.cpu))
        return session

    monkeypatch.setattr(Session, "from_spec", classmethod(tracking))
    catalog = list(attack_specs().values())
    specs = catalog + [spec.replace(trace=TraceSpec()) for spec in catalog]
    for plugin in sorted(TRIGGER_TEMPLATES):
        budget = len(TRIGGER_TEMPLATES[plugin]) + 1
        specs += [case.spec((PluginSpec.of(plugin),))
                  for case in CaseGenerator(seed=0).cases_for(plugin,
                                                              budget)]
    collecting = gc.isenabled()
    gc.disable()
    try:
        for spec in specs:
            execute_spec(spec.replace(fastpath=fastpath))
        alive = sum(core() is not None for core in cores)
    finally:
        if collecting:
            gc.enable()
    assert len(cores) == len(specs)
    assert alive == 0


def test_result_json_is_byte_identical_to_the_asdict_form():
    """``RunResult.to_json`` dumps the fields as they stand; its bytes
    equal the ``dataclasses.asdict`` form, which deep-copied first,
    over the stats golden's corpus, traced and untraced, fresh and
    as a cache hit."""
    from tests.test_stats_payload_golden import corpus
    for spec in corpus():
        for run in (spec, spec.replace(trace=TraceSpec())):
            result = execute_spec(run)
            for form in (result, dataclasses.replace(result, cached=True)):
                assert form.to_json() == json.dumps(
                    dataclasses.asdict(form), sort_keys=True)
    assert result.to_json(indent=1) == json.dumps(
        dataclasses.asdict(result), sort_keys=True, indent=1)
