"""Pipeline compression (Section IV-B2 of the paper).

Two members of the family are modeled:

* **Operand packing** (Brooks & Martonosi, HPCA'99; Figure 3, Example 4):
  two arithmetic operations share one execution-unit slot in a cycle when
  *all four* operand values are narrow (``msb < 16``).  The observable
  outcome is issue throughput — exactly the two-outcome MLD of Example 4.

* **Early-terminating (digit-serial) multiplication** (Großschädl et
  al., ICISC'09): multiply latency shrinks with the significance of an
  operand, the mechanism behind a demonstrated constant-time break.
"""

from repro.isa.bits import is_narrow, significant_bytes
from repro.isa.opcodes import Op, SIMPLE_ALU_OPS
from repro.pipeline.plugins import FF_PURE, OptimizationPlugin

NARROW_BITS = 16


def operand_values(dyn):
    """The arithmetic operand values of a dynamic instruction.

    Register-immediate forms contribute their immediate as the second
    operand; LI contributes only its immediate.
    """
    op = dyn.inst.op
    if op is Op.LI:
        return (dyn.inst.imm,)
    if op.reads_rs2:
        return (dyn.src_values[0], dyn.src_values[1])
    return (dyn.src_values[0], dyn.inst.imm)


class OperandPackingPlugin(OptimizationPlugin):
    """Pack two narrow-operand ALU ops into one slot."""

    name = "operand-packing"

    #: Only ``pack_pair`` (invoked at issue) — pure.
    ff_policy = FF_PURE

    #: Static leakage contract (:mod:`repro.lint.contracts`): a pair
    #: packs iff every operand of both instructions is narrow, so the
    #: register operands' widths feed the MLD (immediates are program
    #: text, never secret).
    LINT_CONTRACT = {
        "mld": "pack_width",
        "rows": (
            {"ops": SIMPLE_ALU_OPS, "taps": ("rs1", "rs2"),
             "detail": "two ALU ops share one slot iff all their "
                       "operands are narrow"},
        ),
        "defaults": {"narrow_bits": NARROW_BITS},
        # Widening the narrowness threshold changes *which* values
        # pack, never *whether* operand values decide it.
        "domains": {"narrow_bits": (NARROW_BITS, 32)},
    }

    def __init__(self, narrow_bits=NARROW_BITS):
        super().__init__()
        self.narrow_bits = narrow_bits
        self.stats = {"pack_checks": 0, "packs": 0}

    def _narrow(self, dyn):
        return all(is_narrow(value & ((1 << 64) - 1), self.narrow_bits)
                   for value in operand_values(dyn))

    def pack_pair(self, first, second):
        if (first.inst.op not in SIMPLE_ALU_OPS
                or second.inst.op not in SIMPLE_ALU_OPS):
            return False
        self.stats["pack_checks"] += 1
        if self._narrow(first) and self._narrow(second):
            self.stats["packs"] += 1
            return True
        return False


class EarlyTerminatingMultiplierPlugin(OptimizationPlugin):
    """Digit-serial multiply: latency tracks operand significance.

    Latency is ``1 + ceil(significant_bytes(rs2) / digit_bytes)`` capped
    at the baseline multiply latency, so an all-narrow multiplier stream
    runs measurably faster — the significance-compression channel.
    """

    name = "early-terminating-multiplier"

    #: Only ``execute_latency`` (invoked at issue) — pure.
    ff_policy = FF_PURE

    #: Static leakage contract (:mod:`repro.lint.contracts`): the
    #: digit-serial array terminates after rs2's significant digits,
    #: so only the multiplier operand feeds the latency MLD.
    LINT_CONTRACT = {
        "mld": "early_termination",
        "rows": (
            {"ops": (Op.MUL,), "taps": ("rs2",),
             "detail": "multiply latency tracks the significant bytes "
                       "of rs2"},
        ),
        "defaults": {"digit_bytes": 2},
        # Coarser digits quantize the latency staircase without making
        # it value-independent.
        "domains": {"digit_bytes": (2, 4)},
    }

    def __init__(self, digit_bytes=2):
        super().__init__()
        self.digit_bytes = digit_bytes
        self.stats = {"early_terminations": 0}

    def execute_latency(self, dyn, default_latency):
        if dyn.inst.op is not Op.MUL:
            return default_latency
        digits = -(-significant_bytes(dyn.src_values[1]) // self.digit_bytes)
        latency = 1 + digits
        if latency < default_latency:
            self.stats["early_terminations"] += 1
            return latency
        return default_latency
