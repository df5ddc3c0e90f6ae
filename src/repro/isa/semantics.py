"""Pure functional semantics shared by the interpreter and the pipeline.

Keeping arithmetic and branch evaluation in one place guarantees that the
out-of-order core and the golden-model interpreter can never diverge on
*what* a program computes — they may only differ on *when*.

:data:`ALU_FUNCS` maps every arithmetic op to its result function, so a
caller that already knows its op is arithmetic (both kernels, through
``CPU._compute_result``, and the lint layer's constant folding) pays one
dict lookup instead of a walk down the opcode list; :func:`alu_result`
is the checked entry point the golden-model interpreter uses.
:data:`BRANCH_FUNCS` and :func:`branch_taken` do the same for the
conditional branches.
"""

from repro.isa.bits import WORD_MASK, mask, to_signed
from repro.isa.opcodes import Op


class SemanticsError(Exception):
    """Raised for undefined operations (unknown opcode for a helper)."""


def _div(a, b, imm):
    if b == 0:
        return WORD_MASK
    sa, sb = to_signed(a), to_signed(b)
    q = abs(sa) // abs(sb)
    return (-q if (sa < 0) != (sb < 0) else q) & WORD_MASK


def _rem(a, b, imm):
    if b == 0:
        return a
    sa = to_signed(a)
    r = abs(sa) % abs(to_signed(b))
    return (-r if sa < 0 else r) & WORD_MASK


#: ``op -> f(a, b, imm)`` for every arithmetic op: ``a`` and ``b`` are
#: the unsigned 64-bit source-register values, ``imm`` the (possibly
#: negative) immediate, and the result is an unsigned 64-bit word.
#: Division follows RISC-V M semantics: division by zero yields all-ones
#: (DIV) / the dividend (REM) rather than trapping.
ALU_FUNCS = {
    Op.ADD: lambda a, b, imm: (a + b) & WORD_MASK,
    Op.SUB: lambda a, b, imm: (a - b) & WORD_MASK,
    Op.AND: lambda a, b, imm: a & b,
    Op.OR: lambda a, b, imm: a | b,
    Op.XOR: lambda a, b, imm: a ^ b,
    Op.SLL: lambda a, b, imm: (a << (b & 63)) & WORD_MASK,
    Op.SRL: lambda a, b, imm: a >> (b & 63),
    Op.SRA: lambda a, b, imm: (to_signed(a) >> (b & 63)) & WORD_MASK,
    Op.SLT: lambda a, b, imm: 1 if to_signed(a) < to_signed(b) else 0,
    Op.SLTU: lambda a, b, imm: 1 if a < b else 0,
    Op.MUL: lambda a, b, imm: (a * b) & WORD_MASK,
    Op.DIV: _div,
    Op.REM: _rem,
    Op.ADDI: lambda a, b, imm: (a + imm) & WORD_MASK,
    Op.ANDI: lambda a, b, imm: a & (imm & WORD_MASK),
    Op.ORI: lambda a, b, imm: a | (imm & WORD_MASK),
    Op.XORI: lambda a, b, imm: a ^ (imm & WORD_MASK),
    Op.SLLI: lambda a, b, imm: (a << (imm & 63)) & WORD_MASK,
    Op.SRLI: lambda a, b, imm: a >> (imm & 63),
    Op.SLTI: lambda a, b, imm: 1 if to_signed(a) < imm else 0,
    Op.LI: lambda a, b, imm: imm & WORD_MASK,
}


def alu_result(op, a, b, imm):
    """Compute the result of an arithmetic instruction (see
    :data:`ALU_FUNCS`); raises :class:`SemanticsError` for any other op."""
    func = ALU_FUNCS.get(op)
    if func is None:
        raise SemanticsError(f"{op} is not an arithmetic op")
    return func(a, b, imm)


#: ``op -> f(a, b)`` for every conditional branch: whether it is taken
#: on the unsigned 64-bit source-register values ``a`` and ``b``.
BRANCH_FUNCS = {
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLT: lambda a, b: to_signed(a) < to_signed(b),
    Op.BGE: lambda a, b: to_signed(a) >= to_signed(b),
    Op.BLTU: lambda a, b: a < b,
    Op.BGEU: lambda a, b: a >= b,
}


def branch_taken(op, a, b):
    """Evaluate a conditional branch (see :data:`BRANCH_FUNCS`); raises
    :class:`SemanticsError` for any other op."""
    func = BRANCH_FUNCS.get(op)
    if func is None:
        raise SemanticsError(f"{op} is not a conditional branch")
    return func(a, b)


def effective_address(base, imm):
    """Address of a load/store given its base-register value."""
    return mask(base + imm)
