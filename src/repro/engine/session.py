"""Simulation sessions and structured run results.

A :class:`Session` is one ready-to-run simulation: the built memory,
hierarchy, plug-ins and core.  Sessions come from two places:

* :meth:`Session.from_spec` — the declarative path: a picklable
  :class:`~repro.engine.specs.SimSpec` is instantiated from scratch
  (this is what the trial runner ships to worker processes);
* :meth:`Session.from_parts` — the escape hatch for callers that must
  run on a *persistent* hierarchy (the sandbox runtime's Prime+Probe
  receiver state lives in the hierarchy across phases).  Such sessions
  carry no stats record, and their cores skip the per-cycle occupancy
  sample that only a record reads.

``Session.run`` returns a :class:`RunResult`: the cycle count, the
core's statistics, and a generic observation record (hierarchy
counters, plug-in counters, requested architectural registers) that is
JSON-serializable — the unit the result cache stores and benches dump
under ``benchmarks/results/*.json``.  ``Session.run`` builds and
writes every spec-built run's :mod:`repro.stats` record: the core,
hierarchy, plug-ins and trace buffer only count, and the record is
written once from their counts at the end of the run.

A trial the engine runs (:func:`~repro.engine.backends.execute_spec`)
is released with :meth:`Session.release` right after its run, so
reference counting frees it; a session a caller builds and runs itself
stays as it is.
"""

import dataclasses
import json
from dataclasses import dataclass, field

from repro.isa.bits import mask
from repro.pipeline.cpu import CPU
from repro.pipeline.fastpath import FastPathCPU
from repro.stats import SimStats


@dataclass
class RunResult:
    """Outcome of one simulation run, serializable to JSON.

    ``metrics`` is the run's :class:`~repro.stats.SimStats` record in
    ``as_dict`` form.  It holds only deterministic, simulation-derived
    quantities (no wall time, no process ids), so results stay bitwise
    identical across serial and pooled execution and across cache
    replays.  Old cached results without the field load as ``{}``.

    ``trace`` is the :meth:`repro.trace.TraceBuffer.as_payload` form of
    the run's event trace when the spec carried a
    :class:`~repro.engine.specs.TraceSpec` (``{}`` otherwise).  Like
    ``metrics`` it is purely simulation-derived — event cycles, never
    wall time — so traced results obey the same bitwise-determinism
    contract; engine wall-clock telemetry lives in the
    :mod:`repro.telemetry` registry instead.
    """

    fingerprint: str
    label: str
    cycles: int
    stats: dict
    observations: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)
    cached: bool = False

    def to_json(self, **kwargs):
        return json.dumps(dataclasses.asdict(self), sort_keys=True,
                          **kwargs)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls(**{f.name: data[f.name]
                      for f in dataclasses.fields(cls) if f.name in data})


class Session:
    """One built simulation: program + memory system + core + plug-ins.

    The plug-ins hold the core (``plugin.cpu``) and the core's event
    wheel holds bound methods of it, so a session is a reference cycle
    until :meth:`release` breaks it.
    """

    def __init__(self, cpu, spec=None, fingerprint=""):
        self.cpu = cpu
        self.spec = spec
        self._fingerprint = fingerprint

    # -- construction --------------------------------------------------

    @classmethod
    def from_spec(cls, spec, fingerprint=None):
        """Build a session; ``fingerprint`` skips recomputing the hash
        when the caller (runner, cache) already derived it."""
        memory = spec.build_memory()
        hierarchy = spec.hierarchy.build(memory=memory,
                                         extra_seed=spec.seed)
        plugins = [plugin_spec.build() for plugin_spec in spec.plugins]
        trace = spec.trace.build() if spec.trace is not None else None
        cpu_cls = FastPathCPU if spec.fastpath else CPU
        cpu = cpu_cls(spec.program, hierarchy, config=spec.config,
                      plugins=plugins, trace=trace,
                      sample_occupancy=True)
        for index, value in spec.regs:
            cpu.prf_value[cpu.rename_map[index]] = mask(value)
        if fingerprint is None:
            fingerprint = spec.fingerprint()
        return cls(cpu, spec=spec, fingerprint=fingerprint)

    @classmethod
    def from_parts(cls, program, hierarchy, config=None, plugins=(),
                   label="", fastpath=True):
        """Wrap pre-built simulator parts (persistent-state callers).

        Runs carry no stats record: reused parts hold earlier runs'
        counts, which a whole-run copy would charge to this run.  So
        the core is built without the per-cycle occupancy sample.
        """
        cpu_cls = FastPathCPU if fastpath else CPU
        cpu = cpu_cls(program, hierarchy, config=config,
                      plugins=list(plugins))
        session = cls(cpu)
        session._label = label
        return session

    # -- conveniences --------------------------------------------------

    @property
    def hierarchy(self):
        return self.cpu.hierarchy

    @property
    def memory(self):
        return self.cpu.memory

    @property
    def plugins(self):
        return self.cpu.plugins

    def arch_reg(self, index):
        return self.cpu.arch_reg(index)

    def release(self):
        """Break the finished core's reference cycles.

        Each plug-in's ``cpu`` back-reference, the callbacks still on
        the halted core's event wheel and a trace buffer's clock tie
        the core, its hierarchy and its memory into cycles that only
        the cyclic collector frees.  Clearing them lets reference
        counting free the session as soon as its last holder drops it.
        The plug-ins' ``stats`` stay readable; a released session must
        not run again.
        """
        cpu = self.cpu
        for plugin in cpu.plugins:
            plugin.cpu = None
        cpu._events.clear()
        cpu.trace.set_clock(None)

    # -- running -------------------------------------------------------

    def run(self, max_cycles=None):
        """Run to completion and package a :class:`RunResult`.

        The cycle limit is ``max_cycles``, else the spec's
        ``max_cycles``, else the core config's default.  A spec-built
        run's stats record is written here, once, from the counts the
        core (occupancy included), hierarchy, plug-ins and trace buffer
        kept; nothing writes it during the run.
        """
        spec = self.spec
        cpu = self.cpu
        if max_cycles is None and spec is not None:
            max_cycles = spec.max_cycles
        stats = cpu.run(max_cycles=max_cycles)
        observations = {
            "hierarchy": dict(self.hierarchy.stats),
            "plugins": {plugin.name: dict(plugin.stats)
                        for plugin in cpu.plugins
                        if isinstance(getattr(plugin, "stats", None),
                                      dict)},
        }
        if spec is not None and spec.record_regs:
            observations["regs"] = {
                str(index): cpu.arch_reg(index)
                for index in spec.record_regs}
        payload = {}
        if spec is not None:
            metrics = SimStats()
            # The record is empty until here, so the core's and
            # plug-ins' counts are written straight into it: every
            # occupancy integral and peak, other counts when non-zero,
            # squashed instructions whenever there was a flush, and one
            # histogram entry per distinct store-fill latency.
            counters, maxima = metrics.counters, metrics.maxima
            counters["engine.trials"] = 1
            counters["pipeline.rob.occupancy_integral"] = cpu.rob_integral
            counters["pipeline.rs.occupancy_integral"] = cpu.rs_integral
            counters["pipeline.lq.occupancy_integral"] = cpu.lq_integral
            counters["pipeline.sq.occupancy_integral"] = cpu.sq_integral
            maxima["pipeline.rob.high_water"] = cpu.rob_peak
            maxima["pipeline.rs.high_water"] = cpu.rs_peak
            maxima["pipeline.lq.high_water"] = cpu.lq_peak
            maxima["pipeline.sq.high_water"] = cpu.sq_peak
            for name, count in (
                    ("pipeline.cycles", stats.cycles),
                    ("pipeline.sq.silent_dequeues", stats.silent_stores),
                    ("pipeline.sq.head_committed_cycles",
                     cpu.sq_head_committed_cycles),
                    ("pipeline.sq.head_of_line_stall_cycles",
                     cpu.hol_stall_cycles),
                    ("trace.dropped_events", cpu.trace.dropped)):
                if count:
                    counters[name] = count
            for kind, count in stats.dispatch_stalls.items():
                if count:
                    counters["pipeline.dispatch_stall." + kind] = count
            if cpu.flushes:
                counters["pipeline.flushes"] = cpu.flushes
                counters["pipeline.squashed_instructions"] = \
                    stats.squashed_instructions
            fills = cpu.store_fill_latencies
            if fills:
                counters["pipeline.sq.store_fills"] = sum(fills.values())
                for latency, count in fills.items():
                    metrics.observe("pipeline.sq.store_fill_latency",
                                    latency, bin_width=8, count=count)
            for plugin in cpu.plugins:
                counts = plugin.stats
                for key, name in plugin.metric_names.items():
                    if counts[key]:
                        # Two plug-ins of one class share their names.
                        counters[name] = counters.get(name, 0) + counts[key]
            self.hierarchy.snapshot_into(metrics)
            payload = metrics.as_dict()
        traced = spec is not None and spec.trace is not None
        return RunResult(
            fingerprint=self._fingerprint,
            label=(spec.label if spec is not None
                   else getattr(self, "_label", "")),
            cycles=stats.cycles,
            stats=stats.as_dict(),
            observations=observations,
            metrics=payload,
            trace=cpu.trace.as_payload() if traced else {})
