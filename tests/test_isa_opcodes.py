"""The opcode decode table: per-member flags and identity hashing."""

import os
import subprocess
import sys

import pytest

import repro
from repro.isa.opcodes import (
    BRANCH_OPS, CONTROL_OPS, DIV_OPS, MUL_OPS, OP_FLAGS, SIMPLE_ALU_OPS, Op,
)

#: The execution-class flags and the op sets they come from.
CLASS_SETS = {
    "is_alu": SIMPLE_ALU_OPS,
    "is_mul": MUL_OPS,
    "is_div": DIV_OPS,
    "is_load": {Op.LOAD},
    "is_store": {Op.STORE},
    "is_branch": BRANCH_OPS,
    "is_control": CONTROL_OPS,
}

#: The operand and reservation-station rules, written out by op name.
TRUTH_TABLES = {
    "writes_rd": {
        "ADD", "ADDI", "AND", "ANDI", "DIV", "LI", "LOAD", "MUL", "OR",
        "ORI", "RDCYCLE", "REM", "SLL", "SLLI", "SLT", "SLTI", "SLTU",
        "SRA", "SRL", "SRLI", "SUB", "XOR", "XORI",
    },
    "reads_rs1": {
        "ADD", "ADDI", "AND", "ANDI", "BEQ", "BGE", "BGEU", "BLT", "BLTU",
        "BNE", "DIV", "LOAD", "MUL", "OR", "ORI", "REM", "SLL", "SLLI",
        "SLT", "SLTI", "SLTU", "SRA", "SRL", "SRLI", "STORE", "SUB", "XOR",
        "XORI",
    },
    "reads_rs2": {
        "ADD", "AND", "BEQ", "BGE", "BGEU", "BLT", "BLTU", "BNE", "DIV",
        "MUL", "OR", "REM", "SLL", "SLT", "SLTU", "SRA", "SRL", "STORE",
        "SUB", "XOR",
    },
    "needs_rs": {
        "ADD", "ADDI", "AND", "ANDI", "BEQ", "BGE", "BGEU", "BLT", "BLTU",
        "BNE", "DIV", "LI", "LOAD", "MUL", "OR", "ORI", "RDCYCLE", "REM",
        "SLL", "SLLI", "SLT", "SLTI", "SLTU", "SRA", "SRL", "SRLI",
        "STORE", "SUB", "XOR", "XORI",
    },
}


def test_every_flag_is_declared_and_decoded():
    assert set(Op.__annotations__) == set(OP_FLAGS)
    assert set(OP_FLAGS) == set(CLASS_SETS) | set(TRUTH_TABLES)
    assert not set(OP_FLAGS) & set(Op.__members__)


@pytest.mark.parametrize("flag", sorted(OP_FLAGS))
def test_flag_is_membership_in_its_set(flag):
    if flag in CLASS_SETS:
        assert OP_FLAGS[flag] == CLASS_SETS[flag]
    for op in Op:
        assert getattr(op, flag) is (op in OP_FLAGS[flag]), op


@pytest.mark.parametrize("flag", sorted(TRUTH_TABLES))
def test_operand_flags_match_the_truth_table(flag):
    assert {op.name for op in Op if getattr(op, flag)} == TRUTH_TABLES[flag]


def test_ops_hash_by_identity():
    assert all(hash(op) == object.__hash__(op) for op in Op)
    assert Op("div") is Op.DIV and {Op.DIV: 1}[Op["DIV"]] == 1


def _stdout_by_hash_seed(*argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "repro", *argv],
                              cwd=root, env=env, capture_output=True,
                              check=False)
        assert done.returncode in (0, 1), done.stderr.decode()
        assert done.stdout
        outputs.append(done.stdout)
    return outputs


@pytest.mark.parametrize("argv", [
    ("lint", "examples/programs/ct_checksum.s",
     "examples/programs/gated_store.s", "examples/programs/leaky_window.s",
     "examples/programs/ss_probe.s", "--json"),
    ("synthesize", "--budget", "2", "--json"),
], ids=["lint", "synthesize"])
def test_no_output_depends_on_hash_order(argv):
    """Set order follows memory layout and string hashes; neither may
    reach a report."""
    first, second = _stdout_by_hash_seed(*argv)
    assert first == second
