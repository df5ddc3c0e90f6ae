"""The static instruction representation shared by all simulator layers."""

from dataclasses import dataclass

from repro.isa.opcodes import Op


@dataclass(slots=True)
class Instruction:
    """One static instruction.

    Fields unused by a given opcode are left at their defaults.  ``target``
    holds a label name before assembly and the resolved instruction index
    afterwards.  ``pc`` is the instruction's index within its program;
    the machine is word-indexed at the instruction level (one pc per
    instruction) which keeps control flow simple without losing anything
    the paper's experiments need.
    """

    op: Op
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    width: int = 8
    target: object = None
    pc: int = -1
    annotation: str = ""

    @property
    def is_load(self):
        return self.op.is_load

    @property
    def is_store(self):
        return self.op.is_store

    @property
    def is_branch(self):
        return self.op.is_branch

    def __str__(self):
        parts = [self.op.value]
        if self.rd:
            parts.append(f"x{self.rd}")
        if self.op in (Op.LOAD,):
            parts.append(f"{self.imm}(x{self.rs1})")
        elif self.op in (Op.STORE,):
            parts = [self.op.value, f"x{self.rs2}", f"{self.imm}(x{self.rs1})"]
        else:
            if self.rs1:
                parts.append(f"x{self.rs1}")
            if self.rs2:
                parts.append(f"x{self.rs2}")
            if self.imm:
                parts.append(str(self.imm))
        if self.target is not None:
            parts.append(f"-> {self.target}")
        text = " ".join(parts)
        if self.annotation:
            text += f"  # {self.annotation}"
        return text
