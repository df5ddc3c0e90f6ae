"""Opcode definitions for the simulator's RISC-like ISA.

The ISA is deliberately small: enough to express the attack programs and
victims from the paper (pointer chases, crypto inner loops, covert-channel
receivers) while keeping the out-of-order pipeline model tractable.  It is
modeled after RV64I plus the M extension and a cycle counter.

Each opcode is decoded once, at import: every :class:`Op` member carries
the boolean flags listed in :data:`OP_FLAGS`, each one its membership in
the matching op set below, so callers read ``op.is_load`` or
``op.reads_rs2`` instead of testing set membership.  From those flags it
also gets ``issue_sources``, the source operands whose readiness gates
issue.  ``Op`` hashes by identity, so the sets and any ``Op``-keyed dict
hash in C rather than through ``Enum.__hash__``.
"""

import enum


class Op(enum.Enum):
    """Every opcode understood by the assembler, interpreter and pipeline.

    The flags and ``issue_sources`` are annotations, not values, so
    they are not members; each member gets the flags at import from
    :data:`OP_FLAGS`, and ``issue_sources`` from its flags.
    """

    is_alu: bool        # single-cycle ALU op, immediates and LI included
    is_mul: bool
    is_div: bool        # DIV and REM
    is_load: bool
    is_store: bool
    is_branch: bool     # conditional branches
    is_control: bool    # branches, JMP and HALT
    writes_rd: bool     # produces a destination-register value
    reads_rs1: bool
    reads_rs2: bool     # a store's rs2 is its data operand
    needs_rs: bool      # takes a reservation-station entry
    # Operand indices whose readiness gates issue: rs1 if read, and rs2
    # if read by anything but a store (its data operand does not gate
    # address generation).
    issue_sources: tuple

    # Members are singletons: hash them by identity, in C.
    __hash__ = object.__hash__

    # Register-register ALU.
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    SLT = "slt"
    SLTU = "sltu"
    # Multi-cycle integer units.
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    # Register-immediate ALU.
    ADDI = "addi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLLI = "slli"
    SRLI = "srli"
    SLTI = "slti"
    # Wide immediate load (pseudo-instruction, one slot).
    LI = "li"
    # Memory.
    LOAD = "load"
    STORE = "store"
    # Control flow.
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLTU = "bltu"
    BGEU = "bgeu"
    JMP = "jmp"
    # Misc.
    RDCYCLE = "rdcycle"
    FENCE = "fence"
    NOP = "nop"
    HALT = "halt"


#: Register-register ALU ops (single cycle on the baseline machine).
ALU_RR_OPS = frozenset({
    Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR,
    Op.SLL, Op.SRL, Op.SRA, Op.SLT, Op.SLTU,
})

#: Register-immediate ALU ops.
ALU_RI_OPS = frozenset({
    Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLLI, Op.SRLI, Op.SLTI,
})

#: Simple integer ops, the "Int simple ops" row of Table I.
SIMPLE_ALU_OPS = ALU_RR_OPS | ALU_RI_OPS | {Op.LI}

#: Multi-cycle arithmetic ops.
MUL_OPS = frozenset({Op.MUL})
DIV_OPS = frozenset({Op.DIV, Op.REM})

#: Conditional branches.
BRANCH_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU})

#: All control-flow ops.
CONTROL_OPS = BRANCH_OPS | {Op.JMP, Op.HALT}

MEMORY_OPS = frozenset({Op.LOAD, Op.STORE})

#: Each :class:`Op` flag and the ops it is true for.
OP_FLAGS = {
    "is_alu": SIMPLE_ALU_OPS,
    "is_mul": MUL_OPS,
    "is_div": DIV_OPS,
    "is_load": frozenset({Op.LOAD}),
    "is_store": frozenset({Op.STORE}),
    "is_branch": BRANCH_OPS,
    "is_control": CONTROL_OPS,
    "writes_rd": SIMPLE_ALU_OPS | MUL_OPS | DIV_OPS | {Op.LOAD, Op.RDCYCLE},
    "reads_rs1": frozenset(Op) - {
        Op.LI, Op.JMP, Op.RDCYCLE, Op.NOP, Op.HALT, Op.FENCE},
    "reads_rs2": ALU_RR_OPS | MUL_OPS | DIV_OPS | BRANCH_OPS | {Op.STORE},
    # NOP, HALT, FENCE and JMP are done at dispatch.
    "needs_rs": frozenset(Op) - {Op.NOP, Op.HALT, Op.FENCE, Op.JMP},
}

for _op in Op:
    for _flag, _ops in OP_FLAGS.items():
        setattr(_op, _flag, _op in _ops)
    _op.issue_sources = ((0,) if _op.reads_rs1 else ()) + (
        (1,) if _op.reads_rs2 and not _op.is_store else ())
del _op, _flag, _ops
