"""Odds and ends: stats surfaces, listing output, edge behaviours."""

import pytest

from repro.isa.assembler import Assembler
from repro.isa.opcodes import Op
from repro.memory.cache import Cache
from repro.memory.flatmem import FlatMemory
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.cpu import CPU


def run(asm, init_mem=(), plugins=()):
    memory = FlatMemory(1 << 14)
    for addr, value in init_mem:
        memory.write(addr, value)
    cpu = CPU(asm.assemble(), MemoryHierarchy(memory, l1=Cache()),
              plugins=list(plugins))
    cpu.run()
    return cpu


def test_opcode_classification_is_partitioned():
    """Every opcode lands in exactly one execution class."""
    for op in Op:
        classes = [op.is_alu, op.is_mul, op.is_div, op.is_load,
                   op.is_store, op.is_branch,
                   op in (Op.JMP, Op.HALT, Op.NOP, Op.FENCE,
                          Op.RDCYCLE)]
        overlap = sum(1 for c in classes[:6] if c)
        assert overlap <= 1, op
        assert overlap == 1 or classes[6], op


def test_register_read_write_metadata():
    assert Op.ADD.writes_rd and Op.LOAD.writes_rd
    assert Op.RDCYCLE.writes_rd
    assert not Op.STORE.writes_rd
    assert not Op.BEQ.writes_rd
    assert Op.ADD.reads_rs1 and Op.ADD.reads_rs2
    assert Op.ADDI.reads_rs1 and not Op.ADDI.reads_rs2
    assert Op.STORE.reads_rs2
    assert not Op.LI.reads_rs1
    assert Op.JMP.is_control and Op.BEQ.is_control


def test_cpu_stats_as_dict_and_ipc():
    asm = Assembler()
    asm.li(1, 1)
    asm.halt()
    cpu = run(asm)
    data = cpu.stats.as_dict()
    assert data["retired"] == 2
    assert "dispatch_stalls" in data
    assert cpu.stats.ipc == pytest.approx(2 / cpu.stats.cycles)


def test_empty_stats_ipc_is_zero():
    from repro.pipeline.cpu import CPUStats
    assert CPUStats().ipc == 0.0


def test_instruction_str_forms():
    asm = Assembler()
    asm.annotate("note")
    asm.load(1, 2, 8)
    asm.store(3, 4, -8, width=2)
    asm.beq(5, 6, "end")
    asm.label("end")
    asm.halt()
    program = asm.assemble()
    texts = [str(inst) for inst in program]
    assert "8(x2)" in texts[0] and "# note" in texts[0]
    assert "-8(x4)" in texts[1]
    assert "->" in texts[2]


def test_x0_destination_is_discarded_by_pipeline():
    asm = Assembler()
    asm.li(0, 99)
    asm.addi(0, 0, 5)
    asm.add(1, 0, 0)
    asm.halt()
    cpu = run(asm)
    assert cpu.arch_reg(0) == 0
    assert cpu.arch_reg(1) == 0


def test_back_to_back_fences():
    asm = Assembler()
    asm.fence()
    asm.fence()
    asm.li(1, 5)
    asm.fence()
    asm.halt()
    cpu = run(asm)
    assert cpu.arch_reg(1) == 5


def test_store_to_address_zero():
    asm = Assembler()
    asm.li(1, 7)
    asm.store(1, 0, 0)       # base register x0: address 0
    asm.halt()
    cpu = run(asm)
    assert cpu.memory.read(0) == 7


def test_jmp_only_program():
    asm = Assembler()
    asm.jmp("end")
    asm.li(1, 1)             # skipped
    asm.label("end")
    asm.halt()
    cpu = run(asm)
    assert cpu.arch_reg(1) == 0


def test_negative_immediates_through_pipeline():
    asm = Assembler()
    asm.li(1, 10)
    asm.addi(2, 1, -3)
    asm.li(3, -1)
    asm.halt()
    cpu = run(asm)
    assert cpu.arch_reg(2) == 7
    assert cpu.arch_reg(3) == (1 << 64) - 1


def test_dyninst_repr_mentions_state():
    from repro.isa.instruction import Instruction
    from repro.pipeline.dyninst import DynInst
    dyn = DynInst(3, Instruction(op=Op.ADD, rd=1, rs1=2, rs2=3, pc=7))
    assert "#3" in repr(dyn) and "add" in repr(dyn)
    dyn.squashed = True
    assert "SQUASHED" in repr(dyn)


def test_sq_entry_repr_and_overlap():
    from repro.isa.instruction import Instruction
    from repro.pipeline.dyninst import DynInst, SQEntry
    dyn = DynInst(1, Instruction(op=Op.STORE, rs1=1, rs2=2, width=4))
    entry = SQEntry(dyn)
    assert entry.overlaps(0x100, 8)          # unknown addr: conservative
    entry.addr = 0x100
    entry.addr_ready = True
    assert entry.overlaps(0x102, 1)
    assert not entry.overlaps(0x104, 4)
    assert "silent=unknown" in repr(entry)


def test_mld_observation_domain_container():
    from repro.core.mld import ObservationDomain
    domain = ObservationDomain("operands", [(1,), (2,)])
    assert len(domain) == 2
    assert list(domain) == [(1,), (2,)]
