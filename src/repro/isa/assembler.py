"""A tiny builder-style assembler for simulator programs.

Attack gadgets and victim kernels are constructed programmatically::

    asm = Assembler()
    asm.li("x1", 0x1000)
    asm.label("loop")
    asm.load("x2", "x1", 0)
    asm.addi("x1", "x1", 8)
    asm.bne("x2", "x0", "loop")
    asm.halt()
    program = asm.assemble()

Register operands are accepted as ``"x7"`` strings or bare ints.  ``x0``
is hard-wired to zero, as in RISC-V.
"""

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op

NUM_ARCH_REGS = 32


class AssemblyError(Exception):
    """Raised for malformed programs (bad registers, unresolved labels)."""


def normalize_regions(regions, kind="region"):
    """Validate and canonicalize taint regions.

    Each region is a ``(start, end)`` byte range with an exclusive end,
    mirroring Python slices.  The canonical form — sorted, de-duplicated
    tuple of int pairs — makes region sets comparable across the
    assemble/render/decode round trips regardless of declaration order.
    """
    canonical = set()
    for region in regions:
        try:
            start, end = region
            start, end = int(start), int(end)
        except (TypeError, ValueError) as exc:
            raise AssemblyError(
                f"{kind} {region!r} is not a (start, end) pair") from exc
        if start < 0:
            raise AssemblyError(f"{kind} start {start:#x} is negative")
        if end <= start:
            raise AssemblyError(
                f"{kind} {start:#x}..{end:#x} is empty (end is exclusive)")
        canonical.add((start, end))
    return tuple(sorted(canonical))


def parse_reg(reg):
    """Accept ``'x12'`` or ``12`` and return the architectural index."""
    if type(reg) is int and 0 <= reg < NUM_ARCH_REGS:
        return reg
    if isinstance(reg, str):
        if not reg.startswith("x"):
            raise AssemblyError(f"bad register name {reg!r}")
        reg = int(reg[1:])
    if not 0 <= reg < NUM_ARCH_REGS:
        raise AssemblyError(f"register index {reg} out of range")
    return reg


class Program:
    """An assembled program: a list of instructions plus its label map.

    ``secret_regions`` / ``public_regions`` carry the ``.secret`` /
    ``.public`` assembler directives: canonicalized ``(start, end)``
    byte ranges (end exclusive) naming which memory the program treats
    as secret-tainted (resp. explicitly attacker-visible).  They seed
    the :mod:`repro.lint` taint analysis and ride the wire encoding, but
    only when non-empty — directive-free programs encode byte-identically
    to pre-directive builds, so engine fingerprints are unaffected.
    """

    def __init__(self, instructions, labels, secret_regions=(),
                 public_regions=()):
        self.instructions = instructions
        self.labels = dict(labels)
        self.secret_regions = normalize_regions(secret_regions, ".secret")
        self.public_regions = normalize_regions(public_regions, ".public")
        self._encoding = None

    def __len__(self):
        return len(self.instructions)

    def __getitem__(self, pc):
        return self.instructions[pc]

    def __iter__(self):
        return iter(self.instructions)

    def encode(self):
        """Stable byte encoding of the program's semantics.

        Covers every field that affects execution (opcode, registers,
        immediate, width, resolved target) but not annotations; used by
        the experiment engine to content-address simulations.  Taint
        directives append ``.secret,start,end`` / ``.public,start,end``
        records *after* the instruction stream — absent directives the
        encoding is byte-identical to historical builds.

        A program is immutable once assembled, so the encoding is built
        on the first call and shared by every later one (the secret
        variants of one spec all fingerprint the same program).
        """
        if self._encoding is None:
            # ``op._value_`` is the member's value without the
            # ``Enum.value`` descriptor.
            records = [f"{inst.op._value_},{inst.rd},{inst.rs1},"
                       f"{inst.rs2},{inst.imm},{inst.width},"
                       f"{-1 if inst.target is None else int(inst.target)}"
                       for inst in self.instructions]
            for start, end in self.secret_regions:
                records.append(f".secret,{start},{end}")
            for start, end in self.public_regions:
                records.append(f".public,{start},{end}")
            self._encoding = "\n".join(records).encode()
        return self._encoding

    def listing(self):
        """Human-readable disassembly, one line per instruction."""
        pc_to_labels = {}
        for name, pc in self.labels.items():
            pc_to_labels.setdefault(pc, []).append(name)
        lines = []
        for start, end in self.secret_regions:
            lines.append(f".secret {start:#x}..{end:#x}")
        for start, end in self.public_regions:
            lines.append(f".public {start:#x}..{end:#x}")
        for pc, inst in enumerate(self.instructions):
            for name in pc_to_labels.get(pc, ()):
                lines.append(f"{name}:")
            lines.append(f"  {pc:4d}  {inst}")
        return "\n".join(lines)


class Assembler:
    """Builds a :class:`Program` one instruction at a time."""

    def __init__(self):
        self._instructions = []
        self._labels = {}
        self._annotation = ""
        self._secret_regions = []
        self._public_regions = []

    def __len__(self):
        return len(self._instructions)

    def annotate(self, text):
        """Attach ``text`` to the next emitted instruction (for traces)."""
        self._annotation = text
        return self

    def label(self, name):
        """Define ``name`` at the current position."""
        if name in self._labels:
            raise AssemblyError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)
        return self

    # --- taint directives ---------------------------------------------------
    def secret(self, start, end=None, *, length=None):
        """``.secret`` directive: mark ``[start, end)`` as secret memory.

        With neither ``end`` nor ``length`` given, one 8-byte word at
        ``start`` is marked (the machine's natural word).
        """
        return self._region(self._secret_regions, ".secret", start, end,
                            length)

    def public(self, start, end=None, *, length=None):
        """``.public`` directive: declassify ``[start, end)``.

        Public regions override overlapping secret regions, letting a
        program carve attacker-visible windows out of a secret blob.
        """
        return self._region(self._public_regions, ".public", start, end,
                            length)

    def _region(self, bucket, kind, start, end, length):
        if end is not None and length is not None:
            raise AssemblyError(f"{kind}: give end or length, not both")
        start = int(start)
        if length is not None:
            end = start + int(length)
        elif end is None:
            end = start + 8
        bucket.append(normalize_regions([(start, end)], kind)[0])
        return self

    def _emit(self, op, rd=0, rs1=0, rs2=0, imm=0, width=8, target=None):
        # Positional, in Instruction's field order: keywords cost more.
        self._instructions.append(Instruction(
            op, rd, rs1, rs2, imm, width, target, len(self._instructions),
            self._annotation))
        self._annotation = ""
        return self

    # --- register-register ALU -------------------------------------------
    def _rr(self, op, rd, rs1, rs2):
        return self._emit(op, rd=parse_reg(rd), rs1=parse_reg(rs1),
                          rs2=parse_reg(rs2))

    def add(self, rd, rs1, rs2):
        return self._rr(Op.ADD, rd, rs1, rs2)

    def sub(self, rd, rs1, rs2):
        return self._rr(Op.SUB, rd, rs1, rs2)

    def and_(self, rd, rs1, rs2):
        return self._rr(Op.AND, rd, rs1, rs2)

    def or_(self, rd, rs1, rs2):
        return self._rr(Op.OR, rd, rs1, rs2)

    def xor(self, rd, rs1, rs2):
        return self._rr(Op.XOR, rd, rs1, rs2)

    def sll(self, rd, rs1, rs2):
        return self._rr(Op.SLL, rd, rs1, rs2)

    def srl(self, rd, rs1, rs2):
        return self._rr(Op.SRL, rd, rs1, rs2)

    def sra(self, rd, rs1, rs2):
        return self._rr(Op.SRA, rd, rs1, rs2)

    def slt(self, rd, rs1, rs2):
        return self._rr(Op.SLT, rd, rs1, rs2)

    def sltu(self, rd, rs1, rs2):
        return self._rr(Op.SLTU, rd, rs1, rs2)

    def mul(self, rd, rs1, rs2):
        return self._rr(Op.MUL, rd, rs1, rs2)

    def div(self, rd, rs1, rs2):
        return self._rr(Op.DIV, rd, rs1, rs2)

    def rem(self, rd, rs1, rs2):
        return self._rr(Op.REM, rd, rs1, rs2)

    # --- register-immediate ALU ------------------------------------------
    def _ri(self, op, rd, rs1, imm):
        return self._emit(op, rd=parse_reg(rd), rs1=parse_reg(rs1),
                          imm=int(imm))

    def addi(self, rd, rs1, imm):
        return self._ri(Op.ADDI, rd, rs1, imm)

    def andi(self, rd, rs1, imm):
        return self._ri(Op.ANDI, rd, rs1, imm)

    def ori(self, rd, rs1, imm):
        return self._ri(Op.ORI, rd, rs1, imm)

    def xori(self, rd, rs1, imm):
        return self._ri(Op.XORI, rd, rs1, imm)

    def slli(self, rd, rs1, imm):
        return self._ri(Op.SLLI, rd, rs1, imm)

    def srli(self, rd, rs1, imm):
        return self._ri(Op.SRLI, rd, rs1, imm)

    def slti(self, rd, rs1, imm):
        return self._ri(Op.SLTI, rd, rs1, imm)

    def li(self, rd, imm):
        """Load a full 64-bit immediate in a single slot."""
        return self._emit(Op.LI, rd=parse_reg(rd), imm=int(imm))

    def mv(self, rd, rs1):
        """Pseudo-instruction: copy ``rs1`` to ``rd``."""
        return self.addi(rd, rs1, 0)

    # --- memory ------------------------------------------------------------
    def load(self, rd, rs1, imm=0, width=8):
        """``rd = memory[rs1 + imm]`` (``width`` bytes, zero-extended)."""
        return self._emit(Op.LOAD, rd=parse_reg(rd), rs1=parse_reg(rs1),
                          imm=int(imm), width=width)

    def store(self, rs2, rs1, imm=0, width=8):
        """``memory[rs1 + imm] = rs2`` (``width`` bytes)."""
        return self._emit(Op.STORE, rs1=parse_reg(rs1), rs2=parse_reg(rs2),
                          imm=int(imm), width=width)

    # --- control flow -------------------------------------------------------
    def _branch(self, op, rs1, rs2, target):
        return self._emit(op, rs1=parse_reg(rs1), rs2=parse_reg(rs2),
                          target=target)

    def beq(self, rs1, rs2, target):
        return self._branch(Op.BEQ, rs1, rs2, target)

    def bne(self, rs1, rs2, target):
        return self._branch(Op.BNE, rs1, rs2, target)

    def blt(self, rs1, rs2, target):
        return self._branch(Op.BLT, rs1, rs2, target)

    def bge(self, rs1, rs2, target):
        return self._branch(Op.BGE, rs1, rs2, target)

    def bltu(self, rs1, rs2, target):
        return self._branch(Op.BLTU, rs1, rs2, target)

    def bgeu(self, rs1, rs2, target):
        return self._branch(Op.BGEU, rs1, rs2, target)

    def jmp(self, target):
        return self._emit(Op.JMP, target=target)

    # --- misc ----------------------------------------------------------------
    def rdcycle(self, rd):
        """Read the cycle counter — the receiver's timer (Section II)."""
        return self._emit(Op.RDCYCLE, rd=parse_reg(rd))

    def fence(self):
        """Drain the store queue and in-flight memory before proceeding."""
        return self._emit(Op.FENCE)

    def nop(self):
        return self._emit(Op.NOP)

    def halt(self):
        return self._emit(Op.HALT)

    def assemble(self):
        """Resolve labels and return an immutable :class:`Program`."""
        for inst in self._instructions:
            if inst.target is None:
                continue
            if isinstance(inst.target, str):
                if inst.target not in self._labels:
                    raise AssemblyError(f"unresolved label {inst.target!r}")
                inst.target = self._labels[inst.target]
            if not 0 <= inst.target <= len(self._instructions):
                raise AssemblyError(
                    f"branch target {inst.target} out of range")
        return Program(list(self._instructions), self._labels,
                       secret_regions=self._secret_regions,
                       public_regions=self._public_regions)
