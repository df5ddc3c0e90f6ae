"""Fast-path simulation kernel: the reference core, only faster.

:class:`FastPathCPU` is a drop-in subclass of the reference
:class:`~repro.pipeline.cpu.CPU` with a hard guarantee: **bitwise
identical** cycle counts, retired-instruction streams, architectural
state, :class:`~repro.pipeline.cpu.CPUStats`, :mod:`repro.stats`
metrics and :mod:`repro.trace` event streams.  It changes how the
simulation is computed, never what it computes — the same contract
production simulators make for their fast paths (gem5's O3 event
queue, Sniper's interval core).  Three mechanisms:

**Decoded-instruction templates.**  Operand-class analysis (which
source registers need renaming, whether there is a destination, the
issue port kind, ...) is a pure function of a static instruction, yet
the reference core re-derives it per dynamic instance from the opcode's
flags (``op.reads_rs1``, ``op.writes_rd``, ...; see
:mod:`repro.isa.opcodes`) and the register fields.  Templates are
decoded once per distinct static instruction — keyed by the interned
operand tuple (:meth:`repro.isa.Instruction.intern_key`), so equal
instructions anywhere in a process share one template — and dispatch
becomes a cheap stamp.  :class:`~repro.pipeline.dyninst.DynInst`
objects are recycled through a free-list pool (:meth:`DynInst.stamp`
re-initializes every slot).  Only provably unreferenced objects are
pooled: non-store instructions at commit (their single completion event
has fired, their queue entries are gone) and stores when their queue
entry performs.  Squashed instructions are *not* pooled — squash-guarded
events and lazy waiter lists may still reference them, and a recycled
object would make those guards lie.

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

**Stage work-lists.**  The reference issue stage re-scans the whole
reservation-station window every cycle, re-testing operand readiness
per entry.  Here a seq-ordered ready list holds exactly the
instructions whose needed sources are all ready; instructions with
unready sources register as waiters on those physical registers and are
woken (and re-inserted in program order) by the producing writeback.
Program-order issue priority — and therefore port allocation, packing
and timing — is preserved exactly; source values are still captured at
scan time, which matters when a value-predicted producer is corrected
in the same cycle a consumer issues.

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

from repro.pipeline.cpu import CPU, FENCE, SimulationError
from repro.pipeline.dyninst import DynInst, InstState, LQEntry, SQEntry
from repro.pipeline.plugins import (
    FF_PURE, FF_WAKEUP, OptimizationPlugin,
)

_SEQ = attrgetter("seq")

#: Process-wide decoded-template cache, keyed by the interned operand
#: tuple.  Bounded by the number of distinct static instructions.
_TEMPLATE_CACHE = {}

#: Free-list pool ceiling per core; beyond this, retired DynInsts go to
#: the garbage collector like in the reference core.
_POOL_CAP = 512


class InstTemplate:
    """Everything decode-time about one static instruction.

    ``kind`` selects the issue path (``alu``/``load``/``store``/
    ``mul``/``div``); ``src_needed`` are the operand indices whose
    readiness gates issue (note a store's data operand does not gate
    its address generation — exactly the reference
    ``_sources_ready`` rule).
    """

    __slots__ = ("op", "kind", "needs_rs", "wants_dest", "ren1", "ren2",
                 "src_needed")

    def __init__(self, inst):
        op = inst.op
        self.op = op
        if op.is_load:
            self.kind = "load"
        elif op.is_store:
            self.kind = "store"
        elif op.is_mul:
            self.kind = "mul"
        elif op.is_div:
            self.kind = "div"
        else:
            self.kind = "alu"
        self.needs_rs = op.needs_rs
        self.wants_dest = op.writes_rd and inst.rd != 0
        self.ren1 = op.reads_rs1 and inst.rs1 != 0
        self.ren2 = op.reads_rs2 and inst.rs2 != 0
        needed = []
        if op.reads_rs1:
            needed.append(0)
        if op.reads_rs2 and not op.is_store:
            needed.append(1)
        self.src_needed = tuple(needed)


class FastPathStats:
    """Fast-path telemetry; never part of a :class:`RunResult`."""

    __slots__ = ("cycles_skipped", "fast_forwards", "template_hits",
                 "template_misses", "pool_reuses", "pool_allocations")

    def __init__(self):
        self.cycles_skipped = 0
        self.fast_forwards = 0
        self.template_hits = 0
        self.template_misses = 0
        self.pool_reuses = 0
        self.pool_allocations = 0

    def as_dict(self):
        return {"fastpath." + name: getattr(self, name)
                for name in self.__slots__}

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<FastPathStats {inner}>"


class _PoolRecycler(OptimizationPlugin):
    """Internal hook that returns dead DynInsts to the core's pool.

    Appended *last* to the plug-in list by :class:`FastPathCPU`, so real
    plug-ins observe commit/perform before the object is eligible for
    re-stamping (which can only happen at a later dispatch anyway).  It
    overrides only ``on_commit`` and ``on_store_performed``, so the
    kernels call it for those two hooks alone.  It carries no ``stats``
    dict, so it never appears in observations.
    """

    name = "fastpath-pool"
    ff_policy = FF_PURE

    def on_commit(self, dyn):
        # Stores stay referenced by their SQ entry until they perform.
        if dyn.tmpl is not None and dyn.tmpl.kind != "store":
            self.cpu._recycle(dyn)

    def on_store_performed(self, entry):
        dyn = entry.dyn
        if (dyn.tmpl is not None and not dyn.squashed
                and dyn.state is InstState.COMMITTED):
            self.cpu._recycle(dyn)


class FastPathCPU(CPU):
    """The reference core with templates, work-lists and fast-forward."""

    def __init__(self, program, hierarchy, config=None, plugins=(),
                 metrics=None, trace=None):
        self.fastpath = FastPathStats()
        self._pool = []
        self._ready = []        # dispatched, all needed sources ready
        self._waiters = {}      # preg -> [DynInst] awaiting its writeback
        self._cycle_stall = None
        self._issue_blocked = False
        self._quiet = False
        super().__init__(program, hierarchy, config=config,
                         plugins=list(plugins) + [_PoolRecycler()],
                         metrics=metrics, trace=trace)
        self._templates = [self._template_for(inst) for inst in program]
        # A mul/div that finds every unit busy retries next cycle.  The
        # retry calls lookup_reuse and no other hook, and the busy
        # unit's writeback is already on the event wheel at its
        # busy_until, so the wait blocks skipping only when some
        # plug-in's lookup_reuse is not the base-class no-op.
        self._reuse_hooked = bool(self._hooked["lookup_reuse"])

    # ------------------------------------------------------------------
    # decoded-instruction templates and the DynInst pool
    # ------------------------------------------------------------------

    def _template_for(self, inst):
        key = inst.key
        if key is None:
            key = inst.intern_key()
        tmpl = _TEMPLATE_CACHE.get(key)
        if tmpl is None:
            tmpl = InstTemplate(inst)
            _TEMPLATE_CACHE[key] = tmpl
            self.fastpath.template_misses += 1
        return tmpl

    def _recycle(self, dyn):
        if len(self._pool) < _POOL_CAP:
            self._pool.append(dyn)

    # ------------------------------------------------------------------
    # dispatch: template stamp instead of re-decode
    # ------------------------------------------------------------------

    def _dispatch(self):
        cfg = self.config
        templates = self._templates
        fp = self.fastpath
        count = 0
        while self.fetch_buffer and count < cfg.dispatch_width:
            inst, pred_taken, pred_target = self.fetch_buffer[0]
            tmpl = templates[inst.pc]
            kind = tmpl.kind
            if len(self.rob) >= cfg.rob_size:
                self._dispatch_stall("rob")
                break
            if tmpl.op is FENCE:
                if self.rob or self.store_queue:
                    self._dispatch_stall("fence")
                    break
            if tmpl.needs_rs and len(self.rs) >= cfg.rs_size:
                self._dispatch_stall("rs")
                break
            if kind == "load" and len(self.load_queue) >= cfg.load_queue_size:
                self._dispatch_stall("lq")
                break
            if kind == "store" and len(self.store_queue) >= cfg.store_queue_size:
                self._dispatch_stall("sq")
                break
            pdst = None
            if tmpl.wants_dest:
                if self.free_list:
                    pdst = self.free_list.popleft()
                else:
                    for plugin in self._hooked["provide_phys_reg"]:
                        pdst = plugin.provide_phys_reg()
                        if pdst is not None:
                            break
                if pdst is None:
                    self._dispatch_stall("preg")
                    break
            self.fetch_buffer.popleft()
            if self._pool:
                dyn = self._pool.pop()
                dyn.stamp(self._seq, inst)
                fp.pool_reuses += 1
            else:
                dyn = DynInst(self._seq, inst)
                fp.pool_allocations += 1
            dyn.tmpl = tmpl
            fp.template_hits += 1
            self._seq += 1
            dyn.pred_taken = pred_taken
            dyn.pred_target = pred_target
            if tmpl.ren1:
                dyn.src_pregs[0] = self.rename_map[inst.rs1]
            if tmpl.ren2:
                dyn.src_pregs[1] = self.rename_map[inst.rs2]
            if tmpl.wants_dest:
                dyn.pdst = pdst
                dyn.old_pdst = self.rename_map[inst.rd]
                self.rename_map[inst.rd] = pdst
                self.prf_ready[pdst] = False
                self.arch_version[inst.rd] += 1
            if self.trace.enabled:
                self.trace.emit("inst", "dispatch", cycle=self.cycle,
                                seq=dyn.seq, pc=dyn.pc, info=str(inst))
            self.rob.append(dyn)
            if tmpl.needs_rs:
                self.rs.append(dyn)
            else:
                dyn.state = InstState.DONE
                dyn.done_cycle = self.cycle
            if kind == "load":
                self.load_queue.append(LQEntry(dyn))
            elif kind == "store":
                self.store_queue.append(SQEntry(dyn))
            for plugin in self._hooked["on_dispatch"]:
                plugin.on_dispatch(dyn)
            if tmpl.needs_rs:
                self._watch_sources(dyn, tmpl)
            self.stats.dispatched += 1
            count += 1

    def _dispatch_stall(self, kind):
        self._cycle_stall = kind
        super()._dispatch_stall(kind)

    # ------------------------------------------------------------------
    # issue: ready work-list instead of full-window scan
    # ------------------------------------------------------------------

    def _watch_sources(self, dyn, tmpl):
        waits = 0
        prf_ready = self.prf_ready
        waiters = self._waiters
        for index in tmpl.src_needed:
            preg = dyn.src_pregs[index]
            if preg is not None and not prf_ready[preg]:
                waiters.setdefault(preg, []).append(dyn)
                waits += 1
        dyn.waits = waits
        if waits == 0:
            self._ready.append(dyn)  # dispatch order == seq order

    def _wake(self, preg):
        waiters = self._waiters.pop(preg, None)
        if not waiters:
            return
        for dyn in waiters:
            # Stale entries: squashed waiters stay in the list until
            # the register is rewritten; skipping them here is the
            # reason squashed DynInsts are never pool-recycled.
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
            tmpl = dyn.tmpl
            src_pregs = dyn.src_pregs
            src_values = dyn.src_values
            # Capture operand values at scan time, as the reference
            # scan does: a value-predicted producer corrected earlier
            # this cycle must be read back corrected.
            for index in tmpl.src_needed:
                preg = src_pregs[index]
                src_values[index] = (prf_value[preg]
                                     if preg is not None else 0)
            kind = tmpl.kind
            if kind == "alu":
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
            elif kind == "load":
                if ports["load"] <= 0:
                    self._issue_blocked = True
                    continue
                if not self._try_issue_load(dyn):
                    # Disambiguation/forwarding wait: the retry is
                    # side-effect-free, so it does not block skipping.
                    continue
                ports["load"] -= 1
            elif kind == "store":
                if ports["store"] <= 0:
                    self._issue_blocked = True
                    continue
                ports["store"] -= 1
                self._issue_store_agen(dyn)
            elif kind == "mul":
                if not self._issue_arith(dyn, cfg.latency_mul,
                                         self.mul_busy_until):
                    if self._reuse_hooked:
                        self._issue_blocked = True
                    continue
            else:  # div
                if not self._issue_arith(dyn, cfg.latency_div,
                                         self.div_busy_until):
                    if self._reuse_hooked:
                        self._issue_blocked = True
                    continue
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
