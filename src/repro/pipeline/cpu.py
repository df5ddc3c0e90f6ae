"""A cycle-level out-of-order core with pluggable optimizations.

This is the repo's stand-in for the paper's gem5 substrate (Section V-A1).
It models exactly the mechanisms the paper's proofs-of-concept depend on:

* register renaming against a finite physical register file (so that
  register-file compression has something to relieve),
* a unified reservation-station window with per-cycle ALU / load / store
  ports and non-pipelined multiply/divide units (so that computation
  simplification, operand packing and computation reuse change timing),
* a load/store queue with store-to-load forwarding, conservative memory
  disambiguation and — critically — **in-order store dequeue gated on the
  line being present in L1** (Section V-A1; the amplification gadget of
  Figure 5 is built on this),
* branch prediction with squash/recovery, reused by value prediction,
* a cycle counter instruction (``rdcycle``) as the receiver's timer.

Architectural results are differentially tested against the golden-model
interpreter: optimizations may change *when*, never *what*.
"""

from collections import deque

from repro.isa.bits import mask
from repro.isa.opcodes import Op
from repro.isa.semantics import ALU_FUNCS, branch_taken, effective_address
from repro.pipeline.branch_predictor import BranchPredictor
from repro.pipeline.config import CPUConfig
from repro.pipeline.dyninst import (
    DynInst, InstState, LQEntry, SilentState, SQEntry,
)
from repro.pipeline.plugins import HOOKS, OptimizationPlugin
from repro.trace.buffer import NULL_TRACE

# The opcodes the stage loops test by identity, bound once: a module
# global loads about ten times faster than an Enum class attribute.
HALT, JMP, RDCYCLE, FENCE = Op.HALT, Op.JMP, Op.RDCYCLE, Op.FENCE

NUM_ARCH_REGS = 32
SILENT_DEQUEUE_WIDTH = 4  # consecutive silent stores retired per cycle

#: Plug-in class tuple -> {hook name: positions of the plug-ins whose
#: class overrides that hook}, for the hooks any of them overrides;
#: filled by ``CPU.__init__``.
_HOOK_TABLES = {}


class SimulationError(Exception):
    """Raised when a simulation exceeds its cycle budget or deadlocks."""


class CPUStats:
    """Counters exposed after a run."""

    def __init__(self):
        self.cycles = 0
        self.retired = 0
        self.dispatched = 0
        self.issued = 0
        self.branch_squashes = 0
        self.vp_squashes = 0
        self.squashed_instructions = 0
        self.stores_performed = 0
        self.silent_stores = 0
        self.loads_forwarded = 0
        self.loads_from_memory = 0
        self.dispatch_stalls = {
            "rob": 0, "rs": 0, "sq": 0, "lq": 0, "preg": 0, "fence": 0,
        }
        self.packed_alu_pairs = 0
        self.reuse_hits = 0

    def as_dict(self):
        data = {k: v for k, v in vars(self).items()
                if not k.startswith("_")}
        return data

    @property
    def ipc(self):
        return self.retired / self.cycles if self.cycles else 0.0


class CPU:
    """The out-of-order core.

    Parameters
    ----------
    program:
        An assembled :class:`repro.isa.Program`.
    hierarchy:
        A :class:`repro.memory.MemoryHierarchy`; its backing
        :class:`FlatMemory` is the architectural data memory.
    config:
        A :class:`CPUConfig`; defaults model the paper's Baseline.
    plugins:
        Iterable of :class:`repro.pipeline.plugins.OptimizationPlugin`.
    trace:
        A :class:`repro.trace.TraceBuffer` receiving cycle-accurate
        pipeline events, shared with the hierarchy and plug-ins;
        defaults to the disabled :data:`~repro.trace.NULL_TRACE`
        (emission sites are skipped behind one ``enabled`` check).
    sample_occupancy:
        Count structure occupancy on every stepped cycle (see
        :meth:`_record_cycle_metrics`).  Only ``Session.from_spec``
        sets it: a spec-built run's stats record reads the counts.  The
        core keeps all its counts as plain attributes and never sees
        the record, which ``Session.run`` writes from them.
    """

    def __init__(self, program, hierarchy, config=None, plugins=(),
                 trace=None, sample_occupancy=False):
        self.program = program
        # Fetch reads the (immutable) instruction list directly.
        self._instructions = program.instructions
        self._program_len = len(program.instructions)
        self.hierarchy = hierarchy
        self.memory = hierarchy.memory
        self.config = config if config is not None else CPUConfig()
        self.plugins = plugins = list(plugins)
        # Hook name -> the plug-ins whose class overrides it, in order
        # (an empty tuple for a hook none overrides).  A base-class hook
        # does nothing, so the stages call only these.  Which plug-ins
        # they are depends only on their classes, so the positions come
        # from a table built once per tuple of plug-in classes.
        kinds = tuple(map(type, plugins))
        table = _HOOK_TABLES.get(kinds)
        if table is None:
            table = {}
            for hook in HOOKS:
                indices = [index for index, kind in enumerate(kinds)
                           if getattr(kind, hook)
                           is not getattr(OptimizationPlugin, hook)]
                if indices:
                    table[hook] = indices
            _HOOK_TABLES[kinds] = table
        self._hooked = hooked = dict.fromkeys(HOOKS, ())
        for hook, indices in table.items():
            hooked[hook] = [plugins[index] for index in indices]
        self._end_of_cycle = self._hooked["end_of_cycle"]
        self.stats = CPUStats()
        self.sample_occupancy = sample_occupancy
        self.trace = NULL_TRACE
        self.install_trace(trace if trace is not None else NULL_TRACE)
        self.branch_predictor = BranchPredictor(self.config.use_branch_predictor)

        # Physical register file.  Plug-ins may carve extra hidden pregs
        # via allocate_plugin_pool (register-file compression headroom).
        total_pregs = self.config.num_phys_regs
        self.prf_value = [0] * total_pregs
        self.prf_ready = [True] * total_pregs
        self.rename_map = list(range(NUM_ARCH_REGS))
        self.free_list = deque(range(NUM_ARCH_REGS, self.config.num_phys_regs))
        self.arch_version = [0] * NUM_ARCH_REGS

        # Windows and queues.
        self.rob = deque()
        self.rs = []
        self.load_queue = []
        self.store_queue = []
        self.fetch_buffer = deque()
        self.fetch_pc = 0
        self.fetching_halted = False

        # Execution resources.  ``ports`` is per-cycle issue bandwidth;
        # an SMT wrapper may replace it (and the busy-until lists) with
        # objects shared between sibling threads.
        self.mul_busy_until = [0] * self.config.num_mul_units
        self.div_busy_until = [0] * self.config.num_div_units
        self.ports = {"alu": 0, "load": 0, "store": 0}
        self._owns_ports = True

        # Event wheel: cycle -> list of ``(fn, args)`` calls, in
        # scheduling order.
        self._events = {}
        self.cycle = 0
        self.halted = False
        self._seq = 0
        self._squash_req = None  # (seq, redirect_pc)
        # Raised by the issue stage when a ready instruction is held
        # back and its retry next cycle may act before any scheduled
        # event: ports refill every cycle, and under a plug-in that
        # overrides lookup_reuse a mul/div retry is a counted lookup.
        # Only the fast path reads it (FastPathCPU.run).
        self._issue_blocked = False

        # Occupancy integrals and high-water marks, and the cycles a
        # committed store sat at the SQ head (see _record_cycle_metrics).
        self.rob_integral = self.rs_integral = 0
        self.lq_integral = self.sq_integral = 0
        self.rob_peak = self.rs_peak = self.lq_peak = self.sq_peak = 0
        self.sq_head_committed_cycles = 0
        # Squash flushes, the cycles a committed SQ head waited for its
        # line (the Figure 5 amplification), and each store fill's
        # latency -> how many fills took it.  Counted on every run;
        # Session.run copies them into a spec-built run's stats record.
        self.flushes = 0
        self.hol_stall_cycles = 0
        self.store_fill_latencies = {}

        for plugin in self.plugins:
            plugin.attach(self)

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------

    def install_trace(self, buffer):
        """Adopt ``buffer`` as this core's event sink.

        Clocks the buffer off this core's cycle counter and shares it
        with the memory hierarchy when enabled (a disabled buffer never
        displaces a hierarchy's existing one, so persistent-hierarchy
        callers keep their own tracing).
        """
        self.trace = buffer
        buffer.set_clock(lambda: self.cycle)
        if buffer.enabled:
            self.hierarchy.trace = buffer

    # ------------------------------------------------------------------
    # plug-in support
    # ------------------------------------------------------------------

    def allocate_plugin_pool(self, size):
        """Extend the PRF with ``size`` hidden registers for a plug-in.

        Returns the list of new physical-register indices.  These never
        enter the core's own free list; the plug-in hands them out via
        ``provide_phys_reg`` and takes them back via ``reclaim_phys_reg``.
        """
        start = len(self.prf_value)
        self.prf_value.extend([0] * size)
        self.prf_ready.extend([True] * size)
        return list(range(start, start + size))

    # ------------------------------------------------------------------
    # event machinery
    # ------------------------------------------------------------------

    def schedule(self, delay, fn, *args):
        """Call ``fn(*args)`` at ``self.cycle + delay`` (delay >= 1);
        events due in one cycle run in the order they were scheduled."""
        when = self.cycle + (delay if delay > 1 else 1)
        due = self._events.get(when)
        if due is None:
            self._events[when] = [(fn, args)]
        else:
            due.append((fn, args))

    def request_squash(self, seq, redirect_pc):
        """Squash everything younger than ``seq``; refetch at ``redirect_pc``."""
        if self._squash_req is None or seq < self._squash_req[0]:
            self._squash_req = (seq, redirect_pc)

    # ------------------------------------------------------------------
    # top-level run loop
    # ------------------------------------------------------------------

    def run(self, max_cycles=None):
        """Run to HALT (or end of program); returns :class:`CPUStats`."""
        limit = max_cycles if max_cycles is not None else self.config.max_cycles
        while not self.halted:
            if self.cycle >= limit:
                raise SimulationError(
                    f"exceeded {limit} cycles without halting")
            self.step()
        self.stats.cycles = self.cycle
        return self.stats

    def step(self):
        """Advance one cycle: fire the due events, then run squash,
        commit, store-queue upkeep, issue, dispatch, fetch and the
        plug-ins' end-of-cycle work.  A stage with no input (no pending
        squash; an empty ROB, store queue, reservation station or fetch
        buffer; halted fetch; no ``end_of_cycle`` override) is not
        called: it would do nothing."""
        self.cycle += 1
        if self.sample_occupancy:
            self._record_cycle_metrics()
        if self._owns_ports:
            self.refill_ports()
        for fn, args in self._events.pop(self.cycle, ()):
            fn(*args)
        if self._squash_req is not None:
            self._apply_squash()
        if self.rob:
            self._commit()
            if self.halted:
                self.stats.cycles = self.cycle
                return
        if self.store_queue:
            self._lsq_step()
        if self.rs:
            self._issue()
        if self.fetch_buffer:
            self._dispatch()
        if not self.fetching_halted:
            self._fetch()
        if self._end_of_cycle:
            self._plugins_end_of_cycle()
        # End-of-program fallback for programs without an explicit HALT.
        if (not self.rob and not self.fetch_buffer and not self.store_queue
                and (self.fetching_halted
                     or self.fetch_pc >= self._program_len)):
            if not any(self._events.values()):
                self.halted = True
                self.stats.cycles = self.cycle

    def _record_cycle_metrics(self):
        """Count this cycle's structure occupancy (cores built with
        ``sample_occupancy`` only: :meth:`step` tests it per cycle).

        :meth:`Session.run` copies the counts into the stats record:
        integrals as counters paired with ``pipeline.cycles`` (a merged
        record's mean occupancy is ``integral / cycles``), high-water
        marks as maxima."""
        rob = len(self.rob)
        rs = len(self.rs)
        lq = len(self.load_queue)
        sq = len(self.store_queue)
        self.rob_integral += rob
        self.rs_integral += rs
        self.lq_integral += lq
        self.sq_integral += sq
        if rob > self.rob_peak:
            self.rob_peak = rob
        if rs > self.rs_peak:
            self.rs_peak = rs
        if lq > self.lq_peak:
            self.lq_peak = lq
        if sq > self.sq_peak:
            self.sq_peak = sq
        if sq and self.store_queue[0].committed:
            self.sq_head_committed_cycles += 1

    # ------------------------------------------------------------------
    # squash / recovery
    # ------------------------------------------------------------------

    def _apply_squash(self):
        seq, redirect = self._squash_req
        self._squash_req = None
        self.flushes += 1
        trace_on = self.trace.enabled
        if trace_on:
            self.trace.emit("inst", "flush", cycle=self.cycle,
                            info=f"redirect={redirect}")
        while self.rob and self.rob[-1].seq > seq:
            dyn = self.rob.pop()
            dyn.squashed = True
            self.stats.squashed_instructions += 1
            if trace_on:
                self.trace.emit("inst", "squash", cycle=self.cycle,
                                seq=dyn.seq, pc=dyn.pc)
            if dyn.pdst is not None:
                self.rename_map[dyn.inst.rd] = dyn.old_pdst
                self._free_preg(dyn.pdst)
        self.rs = [d for d in self.rs if not d.squashed]
        self.load_queue = [e for e in self.load_queue if not e.dyn.squashed]
        self.store_queue = [e for e in self.store_queue
                            if not e.dyn.squashed]
        self.fetch_buffer.clear()
        self.fetch_pc = redirect
        self.fetching_halted = False

    def _free_preg(self, preg):
        for plugin in self._hooked["reclaim_phys_reg"]:
            if plugin.reclaim_phys_reg(preg):
                return
        self.free_list.append(preg)

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit(self):
        committed = 0
        while self.rob and committed < self.config.commit_width:
            dyn = self.rob[0]
            if dyn.state is not InstState.DONE:
                break
            op = dyn.inst.op
            if op is HALT and self.store_queue:
                break  # drain outstanding stores before halting
            self.rob.popleft()
            dyn.state = InstState.COMMITTED
            self.stats.retired += 1
            committed += 1
            if self.trace.enabled:
                self.trace.emit("inst", "retire", cycle=self.cycle,
                                seq=dyn.seq, pc=dyn.pc)
            for plugin in self._hooked["on_commit"]:
                plugin.on_commit(dyn)
            if dyn.pdst is not None and dyn.old_pdst is not None:
                self._free_preg(dyn.old_pdst)
            entry = dyn.lsq
            if entry is not None:
                # Unlinked, the pair is freed without the cyclic GC.
                dyn.lsq = None
                if op.is_store:
                    entry.committed = True
                    entry.committed_cycle = self.cycle
                else:
                    self.load_queue.remove(entry)
                    # Plug-ins (e.g. the IMP) train on the retired load
                    # stream: program order, no wrong paths.  Forwarded
                    # loads never reached the memory system, so they
                    # stay invisible.
                    if not entry.forwarded:
                        for plugin in self._hooked["on_load_response"]:
                            plugin.on_load_response(dyn, entry.addr,
                                                    dyn.result)
            if op is HALT:
                self.halted = True
                return

    # ------------------------------------------------------------------
    # load/store queue upkeep and store dequeue
    # ------------------------------------------------------------------

    def _lsq_step(self):
        lat = self.hierarchy.latencies
        for entry in self.store_queue:
            dyn = entry.dyn
            if not entry.data_ready:
                preg = dyn.src_pregs[1]
                if preg is None:
                    entry.data = 0
                    entry.data_ready = True
                elif self.prf_ready[preg]:
                    entry.data = self.prf_value[preg] & (
                        (1 << (8 * entry.width)) - 1)
                    entry.data_ready = True
            if (entry.addr_ready and entry.data_ready
                    and dyn.state is not InstState.DONE):
                dyn.state = InstState.DONE
                dyn.done_cycle = self.cycle
            if (entry.ss_load_returned and entry.data_ready
                    and entry.silent is SilentState.UNKNOWN
                    and not entry.performed):
                if entry.ss_load_value == entry.data:
                    entry.silent = SilentState.SILENT
                else:
                    entry.silent = SilentState.NONSILENT

        # In-order store dequeue.  Consecutive silent stores dequeue in the
        # same cycle (Section V-A1); at most one store performs to memory.
        silent_budget = SILENT_DEQUEUE_WIDTH
        dequeue_delay = self.config.store_dequeue_delay
        trace_on = self.trace.enabled
        while self.store_queue and self.store_queue[0].committed:
            head = self.store_queue[0]
            if self.cycle < head.committed_cycle + dequeue_delay:
                break
            if head.silent is SilentState.SILENT:
                if silent_budget <= 0:
                    break
                silent_budget -= 1
                head.performed = True
                head.dequeue_cycle = self.cycle
                self.stats.silent_stores += 1
                if trace_on:
                    self.trace.emit("sq", "silent_dequeue",
                                    cycle=self.cycle, seq=head.dyn.seq,
                                    pc=head.dyn.pc, addr=head.addr)
                self.store_queue.pop(0)
                for plugin in self._hooked["on_store_performed"]:
                    plugin.on_store_performed(head)
                continue
            # Non-silent (or not-yet-decided) store: needs its line in L1.
            # Every cycle a committed head store spends waiting for its
            # line is head-of-line blocking: nothing younger can dequeue
            # behind it.  This counter is what attributes the Figure 5
            # amplification to the store queue.
            if head.fill_requested:
                if self.cycle < head.fill_ready_cycle:
                    self.hol_stall_cycles += 1
                    if trace_on:
                        self.trace.emit("sq", "hol_stall",
                                        cycle=self.cycle,
                                        seq=head.dyn.seq,
                                        pc=head.dyn.pc, addr=head.addr)
                    break
            elif not self.hierarchy.line_in_l1(head.addr):
                head.fill_requested = True
                fill_latency = self.hierarchy.request_line_for_store(head.addr)
                head.fill_ready_cycle = self.cycle + fill_latency
                self.hol_stall_cycles += 1
                fills = self.store_fill_latencies
                fills[fill_latency] = fills.get(fill_latency, 0) + 1
                if trace_on:
                    self.trace.emit("sq", "fill_request",
                                    cycle=self.cycle, seq=head.dyn.seq,
                                    pc=head.dyn.pc, addr=head.addr,
                                    info=f"latency={fill_latency}")
                    self.trace.emit("sq", "hol_stall", cycle=self.cycle,
                                    seq=head.dyn.seq, pc=head.dyn.pc,
                                    addr=head.addr)
                break
            if head.silent is SilentState.UNKNOWN:
                head.silent = SilentState.NO_CANDIDATE
            self.hierarchy.write(head.addr, head.data, head.width)
            # Store-store snoop: this write stales any SS-Load value a
            # younger overlapping store already captured — cancel its
            # candidacy (it will perform normally, always correct).
            for other in self.store_queue[1:]:
                if not other.overlaps(head.addr, head.width):
                    continue
                if (other.ss_load_returned
                        or other.silent in (SilentState.SILENT,
                                            SilentState.NONSILENT)):
                    other.silent = SilentState.NO_CANDIDATE
                    other.ss_load_returned = False
            head.performed = True
            head.dequeue_cycle = self.cycle + lat.store_perform
            self.stats.stores_performed += 1
            if trace_on:
                self.trace.emit("sq", "perform", cycle=self.cycle,
                                seq=head.dyn.seq, pc=head.dyn.pc,
                                addr=head.addr, info=head.silent.value)
            self.store_queue.pop(0)
            for plugin in self._hooked["on_store_performed"]:
                plugin.on_store_performed(head)
            break  # one memory write port per cycle

    # ------------------------------------------------------------------
    # issue
    # ------------------------------------------------------------------

    def refill_ports(self):
        """Reset per-cycle issue bandwidth (called once per cycle by
        the owner of the port state — this core, or an SMT wrapper)."""
        self.ports["alu"] = self.config.num_alu_ports
        self.ports["load"] = self.config.num_load_ports
        self.ports["store"] = self.config.num_store_ports
        # ALU ops issued this cycle (across SMT siblings when shared):
        # the candidates for operand packing, and the ones already
        # packed (at most ``issue_width`` per thread).
        self.ports["alu_issued"] = []
        self.ports["packed"] = []

    def _issue(self):
        cfg = self.config
        ports = self.ports
        issued = 0
        issued_alu_ops = ports["alu_issued"]
        packed_partners = ports["packed"]
        rs = self.rs
        prf_ready = self.prf_ready
        prf_value = self.prf_value
        taken = []

        for dyn in rs:
            if issued >= cfg.issue_width:
                break
            # An entry issues once every issue-gating source is ready;
            # then it reads their values (an x0 or unused source is 0).
            op = dyn.inst.op
            sources = op.issue_sources
            src_pregs = dyn.src_pregs
            waiting = False
            for index in sources:
                preg = src_pregs[index]
                if preg is not None and not prf_ready[preg]:
                    waiting = True
                    break
            if waiting:
                continue
            src_values = dyn.src_values
            for index in sources:
                preg = src_pregs[index]
                src_values[index] = (prf_value[preg] if preg is not None
                                     else 0)
            if op.is_load:
                if ports["load"] <= 0:
                    self._issue_blocked = True
                    continue
                if not self._try_issue_load(dyn):
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
                    if self._hooked["lookup_reuse"]:
                        self._issue_blocked = True
                    continue
            elif op.is_div:
                if not self._issue_arith(dyn, cfg.latency_div,
                                         self.div_busy_until):
                    if self._hooked["lookup_reuse"]:
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
                    packed_partners.append(partner)
                    self.stats.packed_alu_pairs += 1
                    self._issue_alu(dyn)
                    issued_alu_ops.append(dyn)
            dyn.state = InstState.ISSUED
            dyn.issue_cycle = self.cycle
            issued += 1
            self.stats.issued += 1
            if self.trace.enabled:
                self.trace.emit("inst", "issue", cycle=self.cycle,
                                seq=dyn.seq, pc=dyn.pc)
            taken.append(dyn)

        for dyn in taken:
            rs.remove(dyn)  # DynInst has no __eq__: by identity

    def _find_pack_partner(self, dyn, issued_alu_ops, packed_partners):
        """Operand packing: find an already-issued ALU op to share a slot."""
        plugins = self._hooked["pack_pair"]
        if not plugins or not dyn.inst.op.is_alu:
            return None
        for partner in issued_alu_ops:
            if partner in packed_partners:
                continue
            if not partner.inst.op.is_alu:
                continue
            for plugin in plugins:
                if plugin.pack_pair(partner, dyn):
                    return partner
        return None

    def _issue_arith(self, dyn, latency, busy_until):
        """Issue a multiply/divide; returns False when all units are busy.

        Every attempt asks the plug-ins that override ``lookup_reuse``
        for a reuse hit (the reuse plug-in counts each lookup); the
        result is computed only once the op issues.
        """
        hit = False
        for plugin in self._hooked["lookup_reuse"]:
            if plugin.lookup_reuse(dyn):
                hit = True
                break
        if hit:
            dyn.reused = True
            self.stats.reuse_hits += 1
            value = self._compute_result(dyn)
            self.schedule(1, self._writeback, dyn, value)
            return True
        unit_index = None
        for index, until in enumerate(busy_until):
            if until <= self.cycle:
                unit_index = index
                break
        if unit_index is None:
            return False
        value = self._compute_result(dyn)
        for plugin in self._hooked["execute_latency"]:
            latency = plugin.execute_latency(dyn, latency)
        busy_until[unit_index] = self.cycle + latency
        self.schedule(latency, self._writeback, dyn, value)
        return True

    def _issue_alu(self, dyn):
        op = dyn.inst.op
        latency = self.config.latency_alu
        for plugin in self._hooked["execute_latency"]:
            latency = plugin.execute_latency(dyn, latency)
        if op.is_branch:
            self.schedule(latency, self._resolve_branch, dyn)
            return
        if op is RDCYCLE:
            value = mask(self.cycle)
        else:
            hit = False
            for plugin in self._hooked["lookup_reuse"]:
                if plugin.lookup_reuse(dyn):
                    hit = True
                    break
            if hit:
                dyn.reused = True
                self.stats.reuse_hits += 1
                latency = 1
            value = self._compute_result(dyn)
        self.schedule(latency, self._writeback, dyn, value)

    def _compute_result(self, dyn):
        inst = dyn.inst
        return ALU_FUNCS[inst.op](dyn.src_values[0], dyn.src_values[1],
                                  inst.imm)

    def _issue_store_agen(self, dyn):
        addr = effective_address(dyn.src_values[0], dyn.inst.imm)
        self.schedule(self.config.latency_agen, self._store_addr_resolved,
                      dyn, addr)

    def _store_addr_resolved(self, dyn, addr):
        if dyn.squashed:
            return
        entry = dyn.lsq
        entry.addr = addr
        entry.addr_ready = True
        if self.trace.enabled:
            self.trace.emit("sq", "address_resolved", cycle=self.cycle,
                            seq=dyn.seq, pc=dyn.pc, addr=addr)
        for plugin in self._hooked["on_store_address_resolved"]:
            plugin.on_store_address_resolved(entry)

    def _try_issue_load(self, dyn):
        """Disambiguate and launch a load; False if it must wait."""
        addr = effective_address(dyn.src_values[0], dyn.inst.imm)
        width = dyn.inst.width
        forward_entry = None
        for entry in reversed(self.store_queue):
            if entry.dyn.seq > dyn.seq:
                continue
            if entry.performed:
                continue
            if not entry.addr_ready:
                return False  # unknown older store address: wait
            if entry.overlaps(addr, width):
                if (entry.addr == addr and entry.width >= width
                        and entry.data_ready):
                    forward_entry = entry
                    break
                return False  # partial overlap or data not ready: wait
        lq_entry = dyn.lsq
        lq_entry.addr = addr
        if forward_entry is not None:
            value = forward_entry.data & ((1 << (8 * width)) - 1)
            lq_entry.forwarded = True
            self.stats.loads_forwarded += 1
            self.schedule(self.config.latency_forward, self._writeback,
                          dyn, value)
            return True
        value, mem_latency, _level = self.hierarchy.read(addr, width)
        self.stats.loads_from_memory += 1
        self.schedule(self.config.latency_agen + mem_latency,
                      self._writeback, dyn, value)
        return True

    # ------------------------------------------------------------------
    # writeback
    # ------------------------------------------------------------------

    def _writeback(self, dyn, value):
        if dyn.squashed:
            return
        dyn.result = value
        dyn.state = InstState.DONE
        dyn.done_cycle = self.cycle
        if dyn.pdst is not None:
            self.prf_value[dyn.pdst] = value
            self.prf_ready[dyn.pdst] = True
        if self.trace.enabled:
            self.trace.emit("inst", "complete", cycle=self.cycle,
                            seq=dyn.seq, pc=dyn.pc)
        for plugin in self._hooked["on_result"]:
            plugin.on_result(dyn, value)
        if dyn.vp_predicted and value != dyn.vp_value:
            self.stats.vp_squashes += 1
            if self.trace.enabled:
                self.trace.emit("inst", "squash_request",
                                cycle=self.cycle, seq=dyn.seq,
                                pc=dyn.pc, info="vp")
            self.request_squash(dyn.seq, dyn.pc + 1)

    def _resolve_branch(self, dyn):
        if dyn.squashed:
            return
        taken = branch_taken(dyn.inst.op, dyn.src_values[0],
                             dyn.src_values[1])
        target = dyn.inst.target if taken else dyn.pc + 1
        predicted_target = dyn.pred_target if dyn.pred_taken else dyn.pc + 1
        mispredicted = (taken != dyn.pred_taken or
                        (taken and predicted_target != dyn.inst.target))
        self.branch_predictor.update(dyn.pc, taken, dyn.inst.target,
                                     mispredicted)
        dyn.result = 1 if taken else 0
        dyn.state = InstState.DONE
        dyn.done_cycle = self.cycle
        if self.trace.enabled:
            self.trace.emit("inst", "complete", cycle=self.cycle,
                            seq=dyn.seq, pc=dyn.pc,
                            info="taken" if taken else "not-taken")
        if mispredicted:
            self.stats.branch_squashes += 1
            if self.trace.enabled:
                self.trace.emit("inst", "squash_request",
                                cycle=self.cycle, seq=dyn.seq,
                                pc=dyn.pc, info="branch")
            self.request_squash(dyn.seq, target)

    # ------------------------------------------------------------------
    # dispatch / rename
    # ------------------------------------------------------------------

    def _dispatch_stall(self, kind):
        self.stats.dispatch_stalls[kind] += 1

    def _dispatch(self):
        cfg = self.config
        fetch_buffer = self.fetch_buffer
        rob = self.rob
        rs = self.rs
        rename_map = self.rename_map
        count = 0
        while fetch_buffer and count < cfg.dispatch_width:
            inst, pred_taken, pred_target = fetch_buffer[0]
            op = inst.op
            if len(rob) >= cfg.rob_size:
                self._dispatch_stall("rob")
                break
            if op is FENCE:
                if rob or self.store_queue:
                    self._dispatch_stall("fence")
                    break
            needs_rs = op.needs_rs
            if needs_rs and len(rs) >= cfg.rs_size:
                self._dispatch_stall("rs")
                break
            if op.is_load and len(self.load_queue) >= cfg.load_queue_size:
                self._dispatch_stall("lq")
                break
            if op.is_store and len(self.store_queue) >= cfg.store_queue_size:
                self._dispatch_stall("sq")
                break
            wants_dest = op.writes_rd and inst.rd != 0
            pdst = None
            if wants_dest:
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
            fetch_buffer.popleft()
            dyn = DynInst(self._seq, inst)
            self._seq += 1
            dyn.pred_taken = pred_taken
            dyn.pred_target = pred_target
            if op.reads_rs1 and inst.rs1 != 0:
                dyn.src_pregs[0] = rename_map[inst.rs1]
            if op.reads_rs2 and inst.rs2 != 0:
                dyn.src_pregs[1] = rename_map[inst.rs2]
            if wants_dest:
                dyn.pdst = pdst
                dyn.old_pdst = rename_map[inst.rd]
                rename_map[inst.rd] = pdst
                self.prf_ready[pdst] = False
                self.arch_version[inst.rd] += 1
            if self.trace.enabled:
                self.trace.emit("inst", "dispatch", cycle=self.cycle,
                                seq=dyn.seq, pc=dyn.pc, info=str(inst))
            rob.append(dyn)
            if needs_rs:
                rs.append(dyn)
            else:
                dyn.state = InstState.DONE
                dyn.done_cycle = self.cycle
            if op.is_load:
                dyn.lsq = entry = LQEntry(dyn)
                self.load_queue.append(entry)
            elif op.is_store:
                dyn.lsq = entry = SQEntry(dyn)
                self.store_queue.append(entry)
            for plugin in self._hooked["on_dispatch"]:
                plugin.on_dispatch(dyn)
            self.stats.dispatched += 1
            count += 1

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------

    def _fetch(self):
        cfg = self.config
        fetched = 0
        capacity = 2 * cfg.fetch_width
        trace_on = self.trace.enabled
        while fetched < cfg.fetch_width and len(self.fetch_buffer) < capacity:
            if not 0 <= self.fetch_pc < self._program_len:
                self.fetching_halted = True
                break
            inst = self._instructions[self.fetch_pc]
            op = inst.op
            if trace_on:
                self.trace.emit("fetch", "fetch", cycle=self.cycle,
                                pc=self.fetch_pc)
            if op is HALT:
                self.fetch_buffer.append((inst, False, None))
                self.fetching_halted = True
                break
            if op is JMP:
                self.fetch_buffer.append((inst, True, inst.target))
                self.fetch_pc = inst.target
            elif op.is_branch:
                taken, target = self.branch_predictor.predict(self.fetch_pc)
                self.fetch_buffer.append((inst, taken, target))
                self.fetch_pc = target if taken else self.fetch_pc + 1
            else:
                self.fetch_buffer.append((inst, False, None))
                self.fetch_pc += 1
            fetched += 1

    # ------------------------------------------------------------------
    # plug-ins
    # ------------------------------------------------------------------

    def _plugins_end_of_cycle(self):
        ports = self.ports
        free_ports = max(0, ports["load"])
        for plugin in self._end_of_cycle:
            used = plugin.end_of_cycle(free_ports)
            used = used or 0
            ports["load"] = max(0, ports["load"] - used)
            free_ports = max(0, free_ports - used)

    # ------------------------------------------------------------------
    # inspection helpers (for tests and attack tooling)
    # ------------------------------------------------------------------

    def arch_reg(self, index):
        """Current architectural value of ``x<index>``."""
        if index == 0:
            return 0
        return self.prf_value[self.rename_map[index]]


def run_on_cpu(program, hierarchy, config=None, plugins=(),
               regs=None, max_cycles=None):
    """One-shot helper: build a CPU, preload registers, run, return it."""
    cpu = CPU(program, hierarchy, config=config, plugins=plugins)
    if regs:
        for index, value in regs.items():
            cpu.prf_value[cpu.rename_map[index]] = mask(value)
    cpu.run(max_cycles=max_cycles)
    return cpu
