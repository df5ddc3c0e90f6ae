"""The arithmetic/branch semantics against Python's own arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.bits import WORD_MASK, to_signed
from repro.isa.opcodes import (
    BRANCH_OPS, DIV_OPS, MUL_OPS, SIMPLE_ALU_OPS, Op,
)
from repro.isa.semantics import (
    ALU_FUNCS, BRANCH_FUNCS, SemanticsError, alu_result, branch_taken,
    effective_address,
)

words = st.integers(min_value=0, max_value=WORD_MASK)
negative_imms = st.integers(min_value=-(1 << 31), max_value=-1)


@given(words, words)
def test_add_sub_wraparound(a, b):
    assert alu_result(Op.ADD, a, b, 0) == (a + b) & WORD_MASK
    assert alu_result(Op.SUB, a, b, 0) == (a - b) & WORD_MASK


@given(words, words)
def test_bitwise(a, b):
    assert alu_result(Op.AND, a, b, 0) == a & b
    assert alu_result(Op.OR, a, b, 0) == a | b
    assert alu_result(Op.XOR, a, b, 0) == a ^ b


@given(words, st.integers(min_value=0, max_value=63))
def test_shifts(a, sh):
    assert alu_result(Op.SLL, a, sh, 0) == (a << sh) & WORD_MASK
    assert alu_result(Op.SRL, a, sh, 0) == a >> sh
    assert alu_result(Op.SRA, a, sh, 0) == (to_signed(a) >> sh) & WORD_MASK


@given(words, words)
def test_comparisons(a, b):
    assert alu_result(Op.SLTU, a, b, 0) == int(a < b)
    assert alu_result(Op.SLT, a, b, 0) == int(to_signed(a) < to_signed(b))


@given(words, words)
def test_mul_low_word(a, b):
    assert alu_result(Op.MUL, a, b, 0) == (a * b) & WORD_MASK


def test_div_by_zero_riscv_semantics():
    assert alu_result(Op.DIV, 42, 0, 0) == WORD_MASK  # all ones
    assert alu_result(Op.REM, 42, 0, 0) == 42


@given(words, words)
def test_div_rem_identity(a, b):
    if b == 0:
        return
    q = to_signed(alu_result(Op.DIV, a, b, 0))
    r = to_signed(alu_result(Op.REM, a, b, 0))
    sa, sb = to_signed(a), to_signed(b)
    # RISC-V M: truncated division, remainder keeps the dividend's sign.
    if sa != -(1 << 63) or sb != -1:  # skip the overflow corner
        assert q * sb + r == sa
        assert abs(r) < abs(sb) or r == 0


def test_div_truncates_toward_zero():
    minus7 = (-7) & WORD_MASK
    assert to_signed(alu_result(Op.DIV, minus7, 2, 0)) == -3
    assert to_signed(alu_result(Op.REM, minus7, 2, 0)) == -1


@given(words, st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1))
def test_addi(a, imm):
    assert alu_result(Op.ADDI, a, 0, imm) == (a + imm) & WORD_MASK


def test_li_masks_immediate():
    assert alu_result(Op.LI, 0, 0, -1) == WORD_MASK


@given(words, words, negative_imms)
def test_logical_immediates_sign_extend(a, b, imm):
    extended = imm + (1 << 64)      # the immediate as a 64-bit word
    assert alu_result(Op.ANDI, a, b, imm) == a & extended
    assert alu_result(Op.ORI, a, b, imm) == a | extended
    assert alu_result(Op.XORI, a, b, imm) == a ^ extended


@given(words, words, negative_imms)
def test_shift_immediates_use_the_low_six_bits(a, b, imm):
    assert alu_result(Op.SLLI, a, b, imm) == (a << (imm % 64)) & WORD_MASK
    assert alu_result(Op.SRLI, a, b, imm) == a >> (imm % 64)


@given(words, words, negative_imms)
def test_slti_compares_signed(a, b, imm):
    assert alu_result(Op.SLTI, a, b, imm) == int(to_signed(a) < imm)


def test_alu_funcs_cover_exactly_the_arithmetic_ops():
    assert set(ALU_FUNCS) == SIMPLE_ALU_OPS | MUL_OPS | DIV_OPS


@pytest.mark.parametrize("op", [op for op in Op if op not in ALU_FUNCS],
                         ids=lambda op: op.name)
def test_alu_result_rejects_every_other_op(op):
    with pytest.raises(SemanticsError):
        alu_result(op, 1, 2, 3)


@given(words, words)
def test_branch_consistency(a, b):
    assert branch_taken(Op.BEQ, a, b) == (a == b)
    assert branch_taken(Op.BNE, a, b) == (a != b)
    assert branch_taken(Op.BLTU, a, b) == (a < b)
    assert branch_taken(Op.BGEU, a, b) == (a >= b)
    assert branch_taken(Op.BLT, a, b) == (to_signed(a) < to_signed(b))
    assert branch_taken(Op.BGE, a, b) == (to_signed(a) >= to_signed(b))


def test_branch_funcs_cover_exactly_the_branch_ops():
    assert set(BRANCH_FUNCS) == BRANCH_OPS


@pytest.mark.parametrize("op", [op for op in Op if op not in BRANCH_OPS],
                         ids=lambda op: op.name)
def test_branch_taken_rejects_every_other_op(op):
    with pytest.raises(SemanticsError, match="not a conditional branch"):
        branch_taken(op, 1, 2)


def test_non_arith_op_rejected():
    with pytest.raises(SemanticsError):
        alu_result(Op.LOAD, 0, 0, 0)
    with pytest.raises(SemanticsError):
        branch_taken(Op.ADD, 0, 0)


def test_effective_address_wraps():
    assert effective_address(WORD_MASK, 1) == 0
    assert effective_address(0x1000, -16) == 0x0FF0
