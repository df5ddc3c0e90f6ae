"""Fast-path simulation kernel: the reference core, only faster.

:class:`FastPathCPU` is a drop-in subclass of the reference
:class:`~repro.pipeline.cpu.CPU` with a hard guarantee: **bitwise
identical** cycle counts, retired-instruction streams, architectural
state, :class:`~repro.pipeline.cpu.CPUStats`, :mod:`repro.stats`
metrics and :mod:`repro.trace` event streams.  It changes how the
simulation is computed, never what it computes — the same contract
production simulators make for their fast paths (gem5's O3 event
queue, Sniper's interval core).  Every pipeline stage is the
reference stage; the one mechanism added is idle-cycle fast-forward.

Its run loop steps the reference :meth:`~repro.pipeline.cpu.CPU.step`
and checks whether each cycle was *quiet*: no events fired, nothing
dispatched / issued / retired / squashed / dequeued, fetch idle, no
memory-system activity (:attr:`MemoryHierarchy.epoch`), and no ready
instruction blocked in a way whose retry may act without a timed
input.  The reference issue stage raises ``_issue_blocked`` for
exactly those retries: a load or store that finds its port exhausted,
an ALU op that finds no port and no packing partner (ports refill
every cycle), and a mul/div that finds every unit busy while some
plug-in overrides ``lookup_reuse`` (each retry is a lookup that
plug-in counts).  Other blocked retries do not count: an instruction
whose sources are not ready, a load held by disambiguation or
forwarding, and a mul/div waiting without such a plug-in (its retry
calls no hook that does anything, and the busy unit's writeback is
already on the event wheel).  A cycle with events due or a squash
pending cannot be quiet, so the loop skips its before/after snapshot.

A quiet cycle proves the machine is in a fixpoint that only a *timed*
input can break, and every timed input is enumerable — the event
wheel: the earliest scheduled event (FU completions, writebacks, load
responses, SS-Load returns), the store-queue head's
dequeue-eligibility or DRAM-fill-ready cycle, and each plug-in's
declared wakeup
(:attr:`~repro.pipeline.plugins.OptimizationPlugin.ff_policy`).  The
clock jumps to the earliest of those, charging the skipped span's
per-cycle accounting exactly as if ticked: the core's occupancy
integrals, committed-SQ-head count and head-of-line stall cycles
(copied into the stats record at the end of the run, like every
stepped cycle's; the last is ``pipeline.sq.head_of_line_stall_cycles``,
the Figure 5 amplification counter — the >100-cycle gap must survive
fast-forward bit-exactly), per-cycle ``sq/hol_stall`` trace events with
explicit cycle stamps, and dispatch-stall attribution.  A plug-in that makes no declaration
defaults to ``FF_EVERY_CYCLE``, which pins the jump target to the next
cycle — fast-forward around unknown plug-ins is *disabled*, never
approximate.

The speedup telemetry (:class:`FastPathStats`, exposed as
``cpu.fastpath``) deliberately stays **out** of the run's stats,
metrics and :class:`~repro.engine.session.RunResult`: a reference run
and a fast-path run share one spec fingerprint, so their results must
be byte-for-byte interchangeable — including through the result cache.
Wall-clock-ish quantities live caller-side, like the engine's batch
telemetry.
"""

from repro.pipeline.cpu import CPU, SimulationError
from repro.pipeline.plugins import FF_PURE, FF_WAKEUP


class FastPathStats:
    """Fast-path telemetry; never part of a :class:`RunResult`.

    ``template_hits``, ``template_misses``, ``pool_reuses`` and
    ``pool_allocations`` always read 0 and are left out of
    :meth:`as_dict`: the kernel has no decoded templates or instruction
    pool, but the repository benchmark (``bench/run.py``) still reads
    those counters by name after every trial.
    """

    __slots__ = ("cycles_skipped", "fast_forwards")

    template_hits = 0
    template_misses = 0
    pool_reuses = 0
    pool_allocations = 0

    def __init__(self):
        self.cycles_skipped = 0
        self.fast_forwards = 0

    def as_dict(self):
        return {"fastpath." + name: getattr(self, name)
                for name in self.__slots__}

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<FastPathStats {inner}>"


class FastPathCPU(CPU):
    """The reference core with idle-cycle fast-forward."""

    def __init__(self, program, hierarchy, config=None, plugins=(),
                 trace=None, sample_occupancy=False):
        self.fastpath = FastPathStats()
        self._cycle_stall = None
        super().__init__(program, hierarchy, config=config,
                         plugins=plugins, trace=trace,
                         sample_occupancy=sample_occupancy)

    def _dispatch_stall(self, kind):
        self._cycle_stall = kind
        super()._dispatch_stall(kind)

    # ------------------------------------------------------------------
    # quiet-cycle detection and fast-forward
    # ------------------------------------------------------------------

    def run(self, max_cycles=None):
        limit = (max_cycles if max_cycles is not None
                 else self.config.max_cycles)
        stats = self.stats
        while not self.halted:
            if self.cycle >= limit:
                raise SimulationError(
                    f"exceeded {limit} cycles without halting")
            # A cycle with due events or a pending squash is not quiet.
            if self.cycle + 1 in self._events or self._squash_req is not None:
                self.step()
                continue
            before = (stats.retired, stats.issued, stats.dispatched,
                      stats.silent_stores, stats.stores_performed,
                      stats.squashed_instructions, len(self.fetch_buffer),
                      self.fetch_pc, self.fetching_halted,
                      self.hierarchy.epoch)
            self._cycle_stall = None
            self._issue_blocked = False
            self.step()
            if not (self.halted or self._issue_blocked
                    or self._squash_req is not None
                    or before != (stats.retired, stats.issued,
                                  stats.dispatched, stats.silent_stores,
                                  stats.stores_performed,
                                  stats.squashed_instructions,
                                  len(self.fetch_buffer), self.fetch_pc,
                                  self.fetching_halted,
                                  self.hierarchy.epoch)):
                self._fast_forward(limit)
        self.stats.cycles = self.cycle
        return self.stats

    def _fast_forward(self, limit):
        """Jump over the provably-inactive span after a quiet cycle.

        Every candidate below is a cycle at which *something* may act;
        anything later than all of them provably replays the quiet
        cycle verbatim.  Over-waking (a candidate earlier than the real
        next action) merely ticks an extra quiet cycle — always exact.
        """
        cycle = self.cycle
        candidates = []
        if self._events:
            candidates.append(min(self._events))
        head = self.store_queue[0] if self.store_queue else None
        head_waiting = head is not None and head.committed
        hol_stall = False
        if head_waiting:
            eligible = head.committed_cycle + self.config.store_dequeue_delay
            if cycle < eligible:
                candidates.append(eligible)
            elif (head.fill_requested
                    and head.fill_ready_cycle is not None
                    and cycle < head.fill_ready_cycle):
                candidates.append(head.fill_ready_cycle)
                hol_stall = True
            else:
                # A dequeue-eligible head on a quiet cycle should be
                # impossible; degrade to plain ticking, never skip it.
                candidates.append(cycle + 1)
        for plugin in self.plugins:
            policy = plugin.ff_policy
            if policy is FF_PURE or policy == FF_PURE:
                continue
            if policy == FF_WAKEUP:
                wake = plugin.ff_next_cycle()
                if wake is not None:
                    candidates.append(wake if wake > cycle else cycle + 1)
            else:  # FF_EVERY_CYCLE or anything unrecognized
                candidates.append(cycle + 1)
        target = min(candidates) if candidates else limit
        if target > limit:
            target = limit
        skipped = target - cycle - 1
        if skipped <= 0:
            return
        fp = self.fastpath
        fp.cycles_skipped += skipped
        fp.fast_forwards += 1
        # -- charge the span's per-cycle accounting as if ticked -------
        # Dispatch stalls go to CPUStats only; the run's stats record
        # copies them (and the cycle count) once, at the end of the run.
        stall_kind = self._cycle_stall
        if stall_kind is not None:
            self.stats.dispatch_stalls[stall_kind] += skipped
        # The occupancy counts, like the core's other counts, are read
        # only from a spec-built run (whose stepped cycles sample them
        # too), so the span is charged whether or not the core samples.
        # High-water peaks were already recorded this cycle at the
        # same occupancies; re-peaking would be a no-op.
        self.rob_integral += len(self.rob) * skipped
        self.rs_integral += len(self.rs) * skipped
        self.lq_integral += len(self.load_queue) * skipped
        self.sq_integral += len(self.store_queue) * skipped
        if head_waiting:
            self.sq_head_committed_cycles += skipped
        if hol_stall:
            self.hol_stall_cycles += skipped
        if hol_stall and self.trace.enabled:
            dyn = head.dyn
            for when in range(cycle + 1, target):
                self.trace.emit("sq", "hol_stall", cycle=when,
                                seq=dyn.seq, pc=dyn.pc, addr=head.addr)
        self.cycle = target - 1
