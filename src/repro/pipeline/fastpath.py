"""Fast-path simulation kernel: the reference core, only faster.

:class:`FastPathCPU` is a drop-in subclass of the reference
:class:`~repro.pipeline.cpu.CPU` with a hard guarantee: **bitwise
identical** cycle counts, retired-instruction streams, architectural
state, :class:`~repro.pipeline.cpu.CPUStats`, :mod:`repro.stats`
metrics and :mod:`repro.trace` event streams.  It changes how the
simulation is computed, never what it computes — the same contract
production simulators make for their fast paths (gem5's O3 event
queue, Sniper's interval core).  Fetch, dispatch, commit and the
load/store queue are the reference stages; two mechanisms differ:

**Idle-cycle fast-forward.**  After each executed cycle the core checks
whether the cycle was *quiet*: no events fired, nothing dispatched /
issued / retired / squashed / dequeued, fetch idle, no memory-system
activity (:attr:`MemoryHierarchy.epoch`), and no ready instruction
blocked in a way whose retry has plug-in-visible side effects (a
mul/div waiting for a busy unit counts only under a plug-in that
overrides ``lookup_reuse``; without one its retry calls no hook that
does anything, and the unit's writeback is already on the event
wheel).  A quiet cycle proves the machine is in a fixpoint that only a
*timed* input can break, and every timed input is enumerable — the
event wheel: the earliest scheduled event (FU completions, writebacks,
load responses, SS-Load returns), the store-queue head's
dequeue-eligibility or DRAM-fill-ready cycle, and each plug-in's
declared wakeup
(:attr:`~repro.pipeline.plugins.OptimizationPlugin.ff_policy`).  The
clock jumps to the earliest of those, charging the skipped span's
per-cycle accounting exactly as if ticked: occupancy integrals,
``pipeline.sq.head_of_line_stall_cycles`` (the Figure 5 amplification
counter — the >100-cycle gap must survive fast-forward bit-exactly),
per-cycle ``sq/hol_stall`` trace events with explicit cycle stamps, and
dispatch-stall attribution.  A plug-in that makes no declaration
defaults to ``FF_EVERY_CYCLE``, which pins the jump target to the next
cycle — fast-forward around unknown plug-ins is *disabled*, never
approximate.

**The issue ready list.**  The reference issue stage re-scans the
whole reservation-station window every cycle, re-testing operand
readiness per entry.  Here a seq-ordered ready list holds exactly the
instructions whose issue-gating sources (``op.issue_sources``, the one
rule both kernels read) are all ready; instructions with unready
sources register as waiters on those physical registers and are woken
(and re-inserted in program order) by the producing writeback.
Program-order issue priority — and therefore port allocation, packing
and timing — is preserved exactly; source values are still captured at
scan time, which matters when a value-predicted producer is corrected
in the same cycle a consumer issues.

Dispatch is the reference stage; the new reservation-station entries
are registered with the ready list after its loop, not one by one.
That is exact because no source's readiness changes during the loop:
no writeback fires in it (the cycle's events fired before commit), and
no register is freed in it (commit and squash ran earlier in the
cycle).  Rename marks only fresh destination registers not ready, and
a fresh register comes off the free list, so no in-flight source reads
it.  Value prediction's ``on_dispatch`` marks ready only the
dispatching instruction's own destination, which no older instruction
reads.

The speedup telemetry (:class:`FastPathStats`, exposed as
``cpu.fastpath``) deliberately stays **out** of the run's stats,
metrics and :class:`~repro.engine.session.RunResult`: a reference run
and a fast-path run share one spec fingerprint, so their results must
be byte-for-byte interchangeable — including through the result cache.
Wall-clock-ish quantities live caller-side, like the engine's batch
telemetry.
"""

from bisect import insort
from operator import attrgetter

from repro.pipeline.cpu import CPU, SimulationError
from repro.pipeline.dyninst import InstState
from repro.pipeline.plugins import FF_PURE, FF_WAKEUP

_SEQ = attrgetter("seq")


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
    """The reference core with an issue ready list and fast-forward."""

    def __init__(self, program, hierarchy, config=None, plugins=(),
                 metrics=None, trace=None):
        self.fastpath = FastPathStats()
        self._ready = []        # dispatched, all needed sources ready
        self._waiters = {}      # preg -> [DynInst] awaiting its writeback
        self._cycle_stall = None
        self._issue_blocked = False
        self._quiet = False
        super().__init__(program, hierarchy, config=config,
                         plugins=plugins, metrics=metrics, trace=trace)
        # A mul/div that finds every unit busy retries next cycle.  The
        # retry calls lookup_reuse and no other hook, and the busy
        # unit's writeback is already on the event wheel at its
        # busy_until, so the wait blocks skipping only when some
        # plug-in's lookup_reuse is not the base-class no-op.
        self._reuse_hooked = bool(self._hooked["lookup_reuse"])

    # ------------------------------------------------------------------
    # dispatch: the reference stage, then ready-list registration
    # ------------------------------------------------------------------

    def _dispatch(self):
        rs = self.rs
        first = len(rs)
        super()._dispatch()
        if len(rs) > first:
            self._watch_sources(rs[first:])

    def _dispatch_stall(self, kind):
        self._cycle_stall = kind
        super()._dispatch_stall(kind)

    # ------------------------------------------------------------------
    # issue: ready work-list instead of full-window scan
    # ------------------------------------------------------------------

    def _watch_sources(self, entries):
        """Put each new entry on the ready list, or on the waiter list
        of every issue-gating source register not yet ready."""
        prf_ready = self.prf_ready
        waiters = self._waiters
        ready = self._ready
        for dyn in entries:
            waits = 0
            src_pregs = dyn.src_pregs
            for index in dyn.inst.op.issue_sources:
                preg = src_pregs[index]
                if preg is not None and not prf_ready[preg]:
                    waiters.setdefault(preg, []).append(dyn)
                    waits += 1
            dyn.waits = waits
            if waits == 0:
                ready.append(dyn)  # dispatch order == seq order

    def _wake(self, preg):
        waiters = self._waiters.pop(preg, None)
        if not waiters:
            return
        for dyn in waiters:
            # Stale entries: squashed waiters stay in the list until
            # the register is rewritten.
            if dyn.squashed:
                continue
            dyn.waits -= 1
            if dyn.waits == 0 and dyn.state is InstState.DISPATCHED:
                insort(self._ready, dyn, key=_SEQ)

    def _writeback(self, dyn, value):
        if dyn.squashed:
            return
        super()._writeback(dyn, value)
        if dyn.pdst is not None:
            self._wake(dyn.pdst)

    def _apply_squash(self):
        if self._squash_req is None:
            return
        super()._apply_squash()
        self._ready = [d for d in self._ready if not d.squashed]

    def _issue(self):
        ready = self._ready
        if not ready:
            return
        cfg = self.config
        ports = self.ports
        issued = 0
        issued_alu_ops = ports["alu_issued"]
        packed_partners = ports["packed"]
        taken = None
        prf_value = self.prf_value
        trace_on = self.trace.enabled
        for dyn in ready:
            if issued >= cfg.issue_width:
                break
            op = dyn.inst.op
            src_pregs = dyn.src_pregs
            src_values = dyn.src_values
            # Capture operand values at scan time, as the reference
            # scan does: a value-predicted producer corrected earlier
            # this cycle must be read back corrected.
            for index in op.issue_sources:
                preg = src_pregs[index]
                src_values[index] = (prf_value[preg]
                                     if preg is not None else 0)
            if op.is_load:
                if ports["load"] <= 0:
                    self._issue_blocked = True
                    continue
                if not self._try_issue_load(dyn):
                    # Disambiguation/forwarding wait: the retry is
                    # side-effect-free, so it does not block skipping.
                    continue
                ports["load"] -= 1
            elif op.is_store:
                if ports["store"] <= 0:
                    self._issue_blocked = True
                    continue
                ports["store"] -= 1
                self._issue_store_agen(dyn)
            elif op.is_mul:
                if not self._issue_arith(dyn, cfg.latency_mul,
                                         self.mul_busy_until):
                    if self._reuse_hooked:
                        self._issue_blocked = True
                    continue
            elif op.is_div:
                if not self._issue_arith(dyn, cfg.latency_div,
                                         self.div_busy_until):
                    if self._reuse_hooked:
                        self._issue_blocked = True
                    continue
            else:  # ALU-class: simple ops, branches, LI, RDCYCLE
                if ports["alu"] > 0:
                    ports["alu"] -= 1
                    self._issue_alu(dyn)
                    issued_alu_ops.append(dyn)
                else:
                    partner = self._find_pack_partner(
                        dyn, issued_alu_ops, packed_partners)
                    if partner is None:
                        self._issue_blocked = True
                        continue
                    packed_partners.add(id(partner))
                    self.stats.packed_alu_pairs += 1
                    self._issue_alu(dyn)
                    issued_alu_ops.append(dyn)
            dyn.state = InstState.ISSUED
            dyn.issue_cycle = self.cycle
            issued += 1
            self.stats.issued += 1
            if trace_on:
                self.trace.emit("inst", "issue", cycle=self.cycle,
                                seq=dyn.seq, pc=dyn.pc)
            if taken is None:
                taken = []
            taken.append(dyn)
        if taken:
            taken_ids = set(map(id, taken))
            self.rs = [d for d in self.rs if id(d) not in taken_ids]
            self._ready = [d for d in ready if id(d) not in taken_ids]

    def _record_cycle_metrics(self):
        # Dict-identical inline of the reference accounting
        # (:meth:`CPU._record_cycle_metrics`): on the fast path this is
        # the hottest per-executed-cycle block, and SimStats.inc/peak
        # are plain dict updates worth the call elision.
        metrics = self.metrics
        counters = metrics.counters
        maxima = metrics.maxima
        get = counters.get
        rob = len(self.rob)
        rs = len(self.rs)
        lq = len(self.load_queue)
        sq = len(self.store_queue)
        counters["pipeline.rob.occupancy_integral"] = (
            get("pipeline.rob.occupancy_integral", 0) + rob)
        counters["pipeline.rs.occupancy_integral"] = (
            get("pipeline.rs.occupancy_integral", 0) + rs)
        counters["pipeline.lq.occupancy_integral"] = (
            get("pipeline.lq.occupancy_integral", 0) + lq)
        counters["pipeline.sq.occupancy_integral"] = (
            get("pipeline.sq.occupancy_integral", 0) + sq)
        if rob > maxima.get("pipeline.rob.high_water", rob - 1):
            maxima["pipeline.rob.high_water"] = rob
        if rs > maxima.get("pipeline.rs.high_water", rs - 1):
            maxima["pipeline.rs.high_water"] = rs
        if lq > maxima.get("pipeline.lq.high_water", lq - 1):
            maxima["pipeline.lq.high_water"] = lq
        if sq > maxima.get("pipeline.sq.high_water", sq - 1):
            maxima["pipeline.sq.high_water"] = sq
        if sq and self.store_queue[0].committed:
            counters["pipeline.sq.head_committed_cycles"] = (
                get("pipeline.sq.head_committed_cycles", 0) + 1)

    # ------------------------------------------------------------------
    # quiet-cycle detection and fast-forward
    # ------------------------------------------------------------------

    def step(self):
        stats = self.stats
        events_due = (self.cycle + 1) in self._events
        squash_before = self._squash_req is not None
        before = (stats.retired, stats.issued, stats.dispatched,
                  stats.silent_stores, stats.stores_performed,
                  stats.squashed_instructions, len(self.fetch_buffer),
                  self.fetch_pc, self.fetching_halted,
                  self.hierarchy.epoch)
        self._cycle_stall = None
        self._issue_blocked = False
        super().step()
        after = (stats.retired, stats.issued, stats.dispatched,
                 stats.silent_stores, stats.stores_performed,
                 stats.squashed_instructions, len(self.fetch_buffer),
                 self.fetch_pc, self.fetching_halted,
                 self.hierarchy.epoch)
        self._quiet = not (events_due or squash_before or self.halted
                           or self._issue_blocked
                           or self._squash_req is not None
                           or before != after)

    def run(self, max_cycles=None):
        limit = (max_cycles if max_cycles is not None
                 else self.config.max_cycles)
        while not self.halted:
            if self.cycle >= limit:
                raise SimulationError(
                    f"exceeded {limit} cycles without halting")
            self.step()
            if self._quiet:
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
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("pipeline.rob.occupancy_integral",
                        len(self.rob) * skipped)
            metrics.inc("pipeline.rs.occupancy_integral",
                        len(self.rs) * skipped)
            metrics.inc("pipeline.lq.occupancy_integral",
                        len(self.load_queue) * skipped)
            metrics.inc("pipeline.sq.occupancy_integral",
                        len(self.store_queue) * skipped)
            # High-water peaks were already recorded this cycle at the
            # same occupancies; re-peaking would be a no-op.
            if head_waiting:
                metrics.inc("pipeline.sq.head_committed_cycles", skipped)
            if hol_stall:
                metrics.inc("pipeline.sq.head_of_line_stall_cycles",
                            skipped)
        if hol_stall and self.trace.enabled:
            dyn = head.dyn
            for when in range(cycle + 1, target):
                self.trace.emit("sq", "hol_stall", cycle=when,
                                seq=dyn.seq, pc=dyn.pc, addr=head.addr)
        self.cycle = target - 1
