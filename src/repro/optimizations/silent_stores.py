"""Silent stores (Section IV-C1, V-A of the paper).

Implements the *read-port stealing* scheme of Lepak & Lipasti ("Silent
stores for free", MICRO'00), as the paper does in gem5: once a store's
address resolves, a free load port is stolen to issue an *SS-Load* that
reads the current memory contents at the store address.  If the SS-Load
returns before the store is performed and the loaded value equals the
store data, the store is marked silent and later dequeues without
touching memory.

The four possible sequences of Figure 4 map to outcomes as follows:

* Case A — SS-Load returns in time, values equal → ``SILENT``.
* Case B — SS-Load returns in time, values differ → ``NONSILENT``.
* Case C — no free load port when the address resolved → no candidacy.
* Case D — SS-Load returns after the store performed (here: the SS-Load
  missed L1 and, with the default no-allocate policy, never returns) →
  no candidacy.

A store without candidacy behaves exactly as on a machine without silent
stores (the paper notes Case C is "operationally equivalent" to the
baseline).
"""

from repro.isa.opcodes import Op
from repro.pipeline.dyninst import SilentState
from repro.pipeline.plugins import FF_WAKEUP, OptimizationPlugin


class SilentStorePlugin(OptimizationPlugin):
    """Read-port-stealing silent-store detection."""

    name = "silent-stores"

    #: Static leakage contract (:mod:`repro.lint.contracts`): the
    #: dynamic MLD elides a store iff the value being stored equals the
    #: word already in memory, so both sides of that comparison feed
    #: the observable outcome (Figure 4's silent/non-silent cases).
    LINT_CONTRACT = {
        "mld": "store_silence",
        "rows": (
            {"ops": (Op.STORE,),
             "taps": ("store_value", "old_memory_value"),
             "detail": "store is elided iff the stored value equals "
                       "the old memory value"},
        ),
        "defaults": {"ss_load_allocates": False},
        # The silence MLD does not depend on how the SS-Load fills the
        # cache; the synthesizer verifies this by re-fuzzing with the
        # flag flipped and expecting the leak to persist.
        "domains": {"ss_load_allocates": (False, True)},
    }

    #: ``end_of_cycle`` retries the port steal (and ages the Case C
    #: retry window) every cycle while candidates are pending, so
    #: fast-forward must tick through those cycles; with an empty
    #: pending list every remaining hook is event-driven.
    ff_policy = FF_WAKEUP

    #: A Case A store's write is squashed (it dequeues without touching
    #: memory), hence the paper's term for the counter.
    metric_names = {
        "ss_loads_issued": "opt.silent_stores.ss_loads_issued",
        "case_a_silent": "opt.silent_stores.squashes",
        "case_b_nonsilent": "opt.silent_stores.nonsilent",
        "case_c_no_port": "opt.silent_stores.no_port",
        "case_d_late": "opt.silent_stores.late_ss_loads",
    }

    def ff_next_cycle(self):
        return self.cpu.cycle + 1 if self._pending else None

    def __init__(self, ss_load_allocates=False, retry_cycles=0):
        super().__init__()
        #: When True, an SS-Load that misses L1 performs a full (filling)
        #: memory access and still returns; the default models a port
        #: steal that only reads the L1 array.
        self.ss_load_allocates = ss_load_allocates
        #: How many extra cycles to retry for a free load port before
        #: giving up on candidacy (paper's Case C is a single attempt).
        self.retry_cycles = retry_cycles
        self._pending = []
        self.stats = {
            "ss_loads_issued": 0,
            "case_a_silent": 0,
            "case_b_nonsilent": 0,
            "case_c_no_port": 0,
            "case_d_late": 0,
        }

    def reset(self):
        self._pending.clear()

    def on_store_address_resolved(self, entry):
        self._pending.append((entry, self.cpu.cycle))

    def end_of_cycle(self, free_load_ports):
        if not self._pending:
            return 0
        used = 0
        keep = []
        for entry, resolved_cycle in self._pending:
            if (entry.dyn.squashed or entry.performed
                    or entry.ss_load_issued):
                continue
            if used < free_load_ports:
                used += 1
                self._issue_ss_load(entry)
            elif self.cpu.cycle - resolved_cycle >= self.retry_cycles:
                entry.silent = SilentState.NO_CANDIDATE
                self.stats["case_c_no_port"] += 1
                if self.trace.enabled:
                    self.trace.emit("opt", self.name,
                                    seq=entry.dyn.seq, pc=entry.dyn.pc,
                                    addr=entry.addr if entry.addr_ready
                                    else -1,
                                    info="case_c_no_port")
            else:
                keep.append((entry, resolved_cycle))
        self._pending = keep
        return used

    def _issue_ss_load(self, entry):
        entry.ss_load_issued = True
        self.stats["ss_loads_issued"] += 1
        if self.trace.enabled:
            self.trace.emit("sq", "ss_load_issued", seq=entry.dyn.seq,
                            pc=entry.dyn.pc, addr=entry.addr)
        hierarchy = self.cpu.hierarchy
        if hierarchy.l1.lookup(entry.addr):
            latency = hierarchy.latencies.l1_hit
        elif self.ss_load_allocates:
            latency = hierarchy.access_latency(entry.addr)
        else:
            # The port steal only reads the L1 array; a miss means the
            # SS-Load never returns (Case D by the time the store
            # performs).
            return
        self.cpu.schedule(latency, lambda e=entry: self._ss_response(e))

    def _ss_response(self, entry):
        if entry.dyn.squashed:
            return
        if entry.performed:
            return  # Case D; counted when the store performed
        entry.ss_load_value = self.cpu.memory.read(entry.addr, entry.width)
        entry.ss_load_returned = True
        if self.trace.enabled:
            self.trace.emit("sq", "ss_load_returned", seq=entry.dyn.seq,
                            pc=entry.dyn.pc, addr=entry.addr)

    def on_store_performed(self, entry):
        outcome = None
        if entry.silent is SilentState.SILENT:
            outcome = "case_a_silent"
        elif entry.silent is SilentState.NONSILENT:
            outcome = "case_b_nonsilent"
        elif entry.ss_load_issued and not entry.ss_load_returned:
            outcome = "case_d_late"
        if outcome is None:
            return
        self.stats[outcome] += 1
        if self.trace.enabled:
            self.trace.emit("opt", self.name, seq=entry.dyn.seq,
                            pc=entry.dyn.pc, addr=entry.addr,
                            info=outcome)
