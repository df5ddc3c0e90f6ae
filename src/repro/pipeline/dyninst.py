"""Dynamic (in-flight) instruction state for the out-of-order core.

A :class:`DynInst` is the paper's ``Inst`` MLD input made concrete: a
dynamic instance of a static instruction together with its operand and
result values as they become known in the pipeline.
"""

import enum


class InstState(enum.Enum):
    DISPATCHED = "dispatched"   # in ROB/RS, waiting on operands
    ISSUED = "issued"           # executing on a functional unit
    DONE = "done"               # result produced / address+data resolved
    COMMITTED = "committed"


class SilentState(enum.Enum):
    """Candidacy outcome of a store under the read-port-stealing scheme.

    The four cases of Figure 4 map onto these values: Case A ends SILENT,
    Case B ends NONSILENT, Case C (no free load port) and Case D (SS-Load
    returned after the store performed) end NO_CANDIDATE.
    """

    UNKNOWN = "unknown"
    SILENT = "silent"
    NONSILENT = "nonsilent"
    NO_CANDIDATE = "no-candidate"


class DynInst:
    """One in-flight dynamic instruction."""

    __slots__ = (
        "seq", "inst", "pc", "state", "squashed",
        "src_pregs", "src_values", "pdst", "old_pdst", "result",
        "pred_taken", "pred_target", "issue_cycle", "done_cycle",
        "vp_predicted", "vp_value", "reused", "exec_info",
    )

    def __init__(self, seq, inst):
        self.seq = seq
        self.inst = inst
        self.pc = inst.pc
        self.state = InstState.DISPATCHED
        self.squashed = False
        # src_pregs[i] is the physical register for source i, or None when
        # the source is x0 / unused (then src_values[i] is already final).
        self.src_pregs = [None, None]
        self.src_values = [0, 0]
        self.pdst = None
        self.old_pdst = None
        self.result = None
        self.pred_taken = False
        self.pred_target = None
        self.issue_cycle = None
        self.done_cycle = None
        self.vp_predicted = False
        self.vp_value = None
        self.reused = False
        self.exec_info = None  # free-form tag set by optimization plug-ins

    def __repr__(self):
        return (f"<DynInst #{self.seq} pc={self.pc} {self.inst.op.value} "
                f"{self.state.value}{' SQUASHED' if self.squashed else ''}>")


class SQEntry:
    """A store-queue entry (program-ordered)."""

    __slots__ = (
        "dyn", "addr", "width", "data", "addr_ready", "data_ready",
        "committed", "committed_cycle", "performed", "silent",
        "ss_load_issued", "ss_load_value", "ss_load_returned",
        "fill_requested", "fill_ready_cycle", "dequeue_cycle",
    )

    def __init__(self, dyn):
        self.dyn = dyn
        self.addr = None
        self.width = dyn.inst.width
        self.data = None
        self.addr_ready = False
        self.data_ready = False
        self.committed = False
        self.committed_cycle = None
        self.performed = False
        self.silent = SilentState.UNKNOWN
        self.ss_load_issued = False
        self.ss_load_value = None
        self.ss_load_returned = False
        self.fill_requested = False
        self.fill_ready_cycle = None
        self.dequeue_cycle = None

    def overlaps(self, addr, width):
        """Byte-range overlap test against another access."""
        if not self.addr_ready:
            return True  # unknown address: conservatively conflicts
        return self.addr < addr + width and addr < self.addr + self.width

    def __repr__(self):
        return (f"<SQEntry #{self.dyn.seq} addr={self.addr} "
                f"silent={self.silent.value} committed={self.committed} "
                f"performed={self.performed}>")


class LQEntry:
    """A load-queue entry."""

    __slots__ = ("dyn", "addr", "width", "issued_to_memory", "forwarded")

    def __init__(self, dyn):
        self.dyn = dyn
        self.addr = None
        self.width = dyn.inst.width
        self.issued_to_memory = False
        self.forwarded = False
