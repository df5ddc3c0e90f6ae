"""Seeded program generation for contract synthesis.

The synthesizer (:mod:`repro.lint.synthesize`) learns a plug-in's
leakage surface by running secret-pair cohorts over many small
programs and watching which ones make the plug-in's MLD diverge.  For
that to converge at a small budget the programs cannot be uniformly
random — each optimization only *does* anything on its trigger shape
(a store over an equal value, a reusable computation at one pc, a
pointer chase...).  This module provides:

* :class:`GeneratedCase` — one generated trial: an assembled program
  with ``.secret`` directives, its initial memory/register image, and
  taint metadata, convertible to a :class:`~repro.engine.specs.
  SimSpec` with any plug-in set;
* per-optimization *trigger templates* — tiny parameterized programs
  biased toward each plug-in's trigger shape, each constructed so the
  **baseline** secret value sits exactly on the trigger (store is
  silent, computation repeats, operand is narrow/zero/a power of two,
  pointer is in-bounds) and the XOR-perturbed variants fall off it;
* :class:`CaseGenerator` — a seeded (``random.Random``) source of
  cases per plug-in, mixing its trigger templates with generic
  straight-line programs, fully deterministic for a given seed;
* the hypothesis ISA strategies (:func:`regions`, :func:`programs`,
  :func:`canonical_programs`, :func:`generated_cases`), promoted from
  ``tests/test_property_roundtrip.py`` so property suites and the
  fuzzer share one program vocabulary.  Hypothesis is imported lazily
  — the synthesize CLI must run in environments that only carry the
  runtime dependencies.

Invariant relied on by the contract differ: generated programs never
write a produced result to ``x0`` (the checker discards x0 results
for any-producing-op contract rows, and the signature extractor
mirrors that only under this invariant).
"""

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.engine.specs import HierarchySpec, PluginSpec, SimSpec, \
    TaintSpec
from repro.isa.assembler import Assembler, Program
from repro.isa.opcodes import BRANCH_OPS, Op

#: Cycle ceiling for every generated trial — generous for programs of
#: a few dozen instructions, tight enough to bound a fuzzing fleet.
TRIAL_MAX_CYCLES = 20_000

#: Baseline layout: one secret machine word, separate public scratch
#: lines (distinct cache sets under the default 64-set L1).
SECRET_ADDR = 0x140
SCRATCH_ADDR = 0x100
ARRAY_ADDR = 0x200

#: Safe public constants templates draw from: small, odd, non-zero,
#: non-power-of-two — never accidentally on a trigger.
_PUBLIC_CONSTS = (5, 9, 21, 37, 51)


@dataclass(frozen=True)
class GeneratedCase:
    """One generated synthesis trial, independent of any plug-in."""

    name: str
    program: Program
    mem_writes: tuple = ()
    mem_blobs: tuple = ()
    regs: tuple = ()
    taint: object = None            # TaintSpec or None
    hierarchy: object = None        # HierarchySpec or None (defaults)
    max_cycles: int = TRIAL_MAX_CYCLES
    note: str = ""

    def spec(self, plugins: Sequence[PluginSpec] = (),
             label: str = "", seed: int = 0) -> SimSpec:
        """A runnable :class:`SimSpec` for this case.

        ``plugins`` is a tuple of :class:`PluginSpec`; the empty tuple
        is the *control* configuration the synthesizer uses to discard
        divergence the baseline machine produces on its own.
        """
        return SimSpec(
            program=self.program, plugins=tuple(plugins),
            hierarchy=self.hierarchy if self.hierarchy is not None
            else HierarchySpec(),
            mem_writes=self.mem_writes, mem_blobs=self.mem_blobs,
            regs=self.regs, taint=self.taint,
            max_cycles=self.max_cycles, seed=seed,
            label=label or self.name)

    def secret_operands(self) -> tuple[tuple[tuple[int, int], ...],
                                       tuple[int, ...]]:
        """Declared secret byte ranges + secret registers (for the
        generator's own invariant: every case declares at least one)."""
        regions = tuple(self.program.secret_regions)
        regs = ()
        if self.taint is not None:
            regions += tuple(self.taint.secret)
            regs = tuple(self.taint.secret_regs)
        return regions, regs


def _secret_reg_case(name: str, build: Callable[[], Program], *,
                     secret_reg: int, baseline: int,
                     regs: Sequence[tuple[int, int]] = (),
                     note: str = "") -> GeneratedCase:
    """A case whose secret lives in one preloaded register."""
    program = build()
    return GeneratedCase(
        name=name, program=program,
        regs=tuple(sorted(dict(list(regs) + [(secret_reg, baseline)])
                          .items())),
        taint=TaintSpec.of(secret_regs=(secret_reg,)),
        note=note)


# ----------------------------------------------------------------------
# trigger templates — one or more per optimization
# ----------------------------------------------------------------------
# Every template returns a GeneratedCase whose *baseline* sits on the
# plug-in's trigger and whose XOR variants fall off it; the control
# (no-plug-in) run must be secret-independent, so addresses touched by
# demand accesses never depend on the secret value.

def _t_silent_store_value(rng: random.Random) -> GeneratedCase:
    """Silent stores, ``store_value`` tap: store the secret over an
    equal public word — silent in the baseline, not in the variants."""
    value = rng.choice(_PUBLIC_CONSTS)
    asm = Assembler()
    asm.secret(SECRET_ADDR, SECRET_ADDR + 8)
    asm.load(1, 0, SCRATCH_ADDR)        # warm the target line
    asm.load(2, 0, SECRET_ADDR)         # r2 <- secret
    asm.store(2, 0, SCRATCH_ADDR)       # silent iff secret == old
    asm.halt()
    return GeneratedCase(
        name="silent-store/store_value",
        program=asm.assemble(),
        mem_writes=((SECRET_ADDR, value, 8), (SCRATCH_ADDR, value, 8)),
        note="baseline secret equals the stored-over word")


def _t_silent_store_old_value(rng: random.Random) -> GeneratedCase:
    """Silent stores, ``old_memory_value`` tap: store a public word
    over the secret — silent iff the secret already equals it."""
    value = rng.choice(_PUBLIC_CONSTS)
    asm = Assembler()
    asm.secret(SECRET_ADDR, SECRET_ADDR + 8)
    asm.load(1, 0, SECRET_ADDR)         # warm the line (and read it)
    asm.li(3, value)
    asm.store(3, 0, SECRET_ADDR)        # silent iff old (secret) == value
    asm.halt()
    return GeneratedCase(
        name="silent-store/old_memory_value",
        program=asm.assemble(),
        mem_writes=((SECRET_ADDR, value, 8),),
        note="baseline secret equals the incoming store value")


def _reuse_loop(op: Op, secret_rs: str, const: int) -> Program:
    """Two trips over one static mul/div/rem pc: the first inserts
    ``(const, const)`` into the reuse table, the second looks up with
    the secret in ``secret_rs`` — a hit iff secret == const."""
    asm = Assembler()
    asm.li(1, 2)                        # trip counter
    asm.li(5, const)
    asm.mv(7, 5)                        # operand starts public
    asm.label("loop")
    if secret_rs == "rs1":
        asm._rr(op, 3, 7, 5)
    else:
        asm._rr(op, 3, 5, 7)
    asm.mv(7, 6)                        # switch to the secret register
    asm.addi(1, 1, -1)
    asm.bne(1, 0, "loop")
    asm.halt()
    return asm.assemble()


def _t_reuse(op: Op, secret_rs: str,
             ) -> Callable[[random.Random], GeneratedCase]:
    def template(rng: random.Random) -> GeneratedCase:
        const = rng.choice(_PUBLIC_CONSTS)
        return _secret_reg_case(
            f"reuse/{op.value}-{secret_rs}",
            lambda: _reuse_loop(op, secret_rs, const),
            secret_reg=6, baseline=const,
            note="baseline secret repeats the inserted computation")
    return template


def _t_compsimp_zero_mul(secret_rs: str,
                         ) -> Callable[[random.Random],
                                       GeneratedCase]:
    def template(rng: random.Random) -> GeneratedCase:
        const = rng.choice(_PUBLIC_CONSTS)
        asm = Assembler()
        asm.li(5, const)
        if secret_rs == "rs1":
            asm.mul(3, 6, 5)
        else:
            asm.mul(3, 5, 6)
        asm.halt()
        return _secret_reg_case(
            f"compsimp/zero_skip_mul-{secret_rs}",
            asm.assemble, secret_reg=6, baseline=0,
            note="baseline secret of zero skips the multiplier array")
    return template


def _t_compsimp_pow2(op: Op) -> Callable[[random.Random],
                                         GeneratedCase]:
    def template(rng: random.Random) -> GeneratedCase:
        dividend = rng.choice(_PUBLIC_CONSTS)
        asm = Assembler()
        asm.li(5, dividend)
        asm._rr(op, 3, 5, 6)
        asm.halt()
        return _secret_reg_case(
            f"compsimp/pow2_div-{op.value}",
            asm.assemble, secret_reg=6,
            baseline=rng.choice((4, 16, 64)),
            note="baseline secret divisor is a power of two")
    return template


def _t_value_prediction(rng: random.Random) -> GeneratedCase:
    """Train a load pc on a constant, then read the secret tail entry
    at the same pc — predicted correctly iff secret == the constant.

    The spin loop between array reads keeps each load's *training*
    (writeback time) ahead of the next trip's dispatch — prediction
    happens at dispatch, so back-to-back iterations would outrun the
    confidence counter."""
    value = rng.choice(_PUBLIC_CONSTS)
    entries = 8                         # 7 training loads + secret
    secret_at = ARRAY_ADDR + 8 * (entries - 1)
    asm = Assembler()
    asm.secret(secret_at, secret_at + 8)
    asm.li(1, entries)
    asm.li(2, ARRAY_ADDR)
    asm.label("loop")
    asm.load(3, 2)                      # one static pc for every entry
    asm.li(8, 16)
    asm.label("spin")
    asm.addi(8, 8, -1)
    asm.bne(8, 0, "spin")
    asm.addi(2, 2, 8)
    asm.addi(1, 1, -1)
    asm.bne(1, 0, "loop")
    asm.halt()
    writes = tuple((ARRAY_ADDR + 8 * i, value, 8)
                   for i in range(entries))
    return GeneratedCase(
        name="value-prediction/trained-tail",
        program=asm.assemble(), mem_writes=writes,
        note="baseline tail entry matches the trained prediction")


def _t_rfc_duplicate(rng: random.Random) -> GeneratedCase:
    """Register-file compression: produce a public 0/1, then produce
    the secret — compressible (zero-one *and* duplicate-window) iff
    the baseline secret equals it."""
    value = rng.choice((0, 1))
    asm = Assembler()
    asm.li(5, value)
    asm.mv(3, 5)                        # window now holds value
    asm.mv(4, 6)                        # secret result: dup iff == value
    asm.halt()
    return _secret_reg_case(
        "rfc/duplicate-result", asm.assemble,
        secret_reg=6, baseline=value,
        note="baseline secret result is a compressible duplicate")


def _t_packing(op: Op) -> Callable[[random.Random], GeneratedCase]:
    """Operand packing fires only when the ALU ports are oversubscribed
    — the overflow op issues anyway iff it can share a slot with an
    already-issued narrow pair.  A burst of simultaneously-ready adds
    (all waiting on one LI) exhausts any port width; whether the
    secret-operand op packs decides both the pack stats and the issue
    schedule."""
    def template(rng: random.Random) -> GeneratedCase:
        narrow = rng.choice(_PUBLIC_CONSTS)
        asm = Assembler()
        asm.li(5, narrow)
        asm._rr(op, 3, 6, 5)            # packs iff the secret is narrow
        for rd in (4, 7, 9, 10, 11, 12):
            asm._rr(Op.ADD, rd, 5, 5)   # narrow filler burst
        asm.halt()
        return _secret_reg_case(
            f"packing/{op.value}-narrow", asm.assemble,
            secret_reg=6, baseline=rng.choice((3, 12, 255)),
            note="baseline secret operand fits the narrow lane")
    return template


def _t_early_termination(rng: random.Random) -> GeneratedCase:
    """Early-terminating multiplier: rs2 significance decides latency
    — one significant byte in the baseline, eight in the variants."""
    const = rng.choice(_PUBLIC_CONSTS)
    asm = Assembler()
    asm.li(5, const)
    asm.mul(3, 5, 6)
    asm.halt()
    return _secret_reg_case(
        "early-term/rs2-narrow", asm.assemble,
        secret_reg=6, baseline=rng.choice((1, 3, 200)),
        note="baseline secret multiplier has one significant byte")


#: Indirect-prefetch layout: a pointer array Z whose demand-walked
#: prefix trains a stride plus a two-link chain (the default IMP is
#: three-level), with the secret pointer in the prefetch shadow just
#: past the walked prefix.  The Y/W targets follow a scrambled
#: permutation so the *consumer* load pcs never become
#: stride-confident themselves (a striding pc is excluded as a link
#: consumer).
_DMP_Z = 0x1000
_DMP_Y = 0x4000
_DMP_W = 0xA000
_DMP_PERM = (3, 1, 9, 0, 5, 2, 8, 6, 4, 7)


def _t_dmp_pointer_chase(rng: random.Random) -> GeneratedCase:
    """Indirect memory prefetcher: walk ``*(*Z[i])`` far enough to
    train the stride and both links, stop short of the secret pointer
    slot, then time a demand probe of the *baseline* secret's target —
    the line is warm iff the prefetcher (never the program)
    dereferenced the trained pointer value."""
    walked = 6                          # demand-walked prefix of Z
    shadow = 7                          # secret slot: fetched by the
    line = 0x40                         # delta-ahead job from i=3
    entries = 10
    y_of = {i: _DMP_Y + line * _DMP_PERM[i] for i in range(entries)}
    w_of = {i: _DMP_W + line * _DMP_PERM[i] for i in range(entries)}
    secret_at = _DMP_Z + 8 * shadow
    asm = Assembler()
    asm.secret(secret_at, secret_at + 8)
    asm.li(1, walked)
    asm.li(2, _DMP_Z)
    asm.label("loop")
    asm.load(3, 2)                      # Z[i]    (trains the stride)
    asm.load(4, 3)                      # *Z[i]   (link 1: Y)
    asm.load(5, 4)                      # **Z[i]  (link 2: W)
    asm.addi(2, 2, 8)
    asm.addi(1, 1, -1)
    asm.bne(1, 0, "loop")
    asm.li(8, 192)                      # settle window: let the
    asm.label("spin")                   # prefetch stages drain
    asm.addi(8, 8, -1)
    asm.bne(8, 0, "spin")
    asm.li(9, y_of[shadow])
    asm.load(10, 9)                     # hit iff the baseline secret
    asm.halt()                          # pointer was chased
    writes = tuple((_DMP_Z + 8 * i, y_of[i], 8)
                   for i in range(entries))
    writes += tuple((y_of[i], w_of[i], 8) for i in range(entries))
    return GeneratedCase(
        name="dmp/pointer-chase",
        program=asm.assemble(), mem_writes=writes,
        note="prefetcher, not the program, dereferences the secret "
             "pointer; the probe times its baseline target")


TRIGGER_TEMPLATES = {
    "silent-stores": (
        _t_silent_store_value, _t_silent_store_old_value),
    "computation-reuse": (
        _t_reuse(Op.MUL, "rs1"), _t_reuse(Op.MUL, "rs2"),
        _t_reuse(Op.DIV, "rs2"), _t_reuse(Op.REM, "rs1")),
    "computation-simplification": (
        _t_compsimp_zero_mul("rs1"), _t_compsimp_zero_mul("rs2"),
        _t_compsimp_pow2(Op.DIV), _t_compsimp_pow2(Op.REM)),
    "value-prediction": (_t_value_prediction,),
    "register-file-compression": (_t_rfc_duplicate,),
    "operand-packing": (
        _t_packing(Op.ADD), _t_packing(Op.XOR), _t_packing(Op.OR),
        _t_packing(Op.SUB)),
    "early-terminating-multiplier": (_t_early_termination,),
    "indirect-memory-prefetcher": (_t_dmp_pointer_chase,),
}


# ----------------------------------------------------------------------
# generic straight-line fuzz cases
# ----------------------------------------------------------------------

_GENERIC_ALU = (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SLL,
                Op.SRL, Op.MUL, Op.ADDI, Op.XORI, Op.ANDI)


def random_case(rng: random.Random, index: int = 0) -> GeneratedCase:
    """A generic straight-line program over a secret word and public
    scratch: random ALU traffic (never to x0, never dividing), loads
    and stores at *constant* addresses so the control machine stays
    secret-independent, an occasional forward branch, always halting."""
    asm = Assembler()
    asm.secret(SECRET_ADDR, SECRET_ADDR + 8)
    asm.load(1, 0, SECRET_ADDR)
    asm.load(2, 0, SCRATCH_ADDR)
    length = rng.randrange(4, 12)
    for _ in range(length):
        kind = rng.randrange(8)
        if kind < 5:
            op = rng.choice(_GENERIC_ALU)
            rd = rng.randrange(1, 8)
            if op.value.endswith("i"):
                asm._ri(op, rd, rng.randrange(1, 8),
                        rng.randrange(0, 64))
            else:
                asm._rr(op, rd, rng.randrange(1, 8),
                        rng.randrange(1, 8))
        elif kind < 6:
            asm.load(rng.randrange(1, 8), 0,
                     SCRATCH_ADDR + 8 * rng.randrange(4))
        elif kind < 7:
            asm.store(rng.randrange(1, 8), 0,
                      SCRATCH_ADDR + 8 * rng.randrange(4))
        else:
            skip = f"skip{len(asm)}"
            asm.beq(rng.randrange(1, 8), rng.randrange(1, 8), skip)
            asm.addi(rng.randrange(1, 8), 0, rng.randrange(16))
            asm.label(skip)
    asm.halt()
    return GeneratedCase(
        name=f"generic/straight-line-{index}",
        program=asm.assemble(),
        mem_writes=((SECRET_ADDR, rng.getrandbits(32), 8),
                    (SCRATCH_ADDR, rng.choice(_PUBLIC_CONSTS), 8)),
        note="unbiased straight-line traffic over one secret word")


def gated_case(rng: random.Random, index: int = 0) -> GeneratedCase:
    """Secret-gated public tail: the precision harness's key shape.

    A branch on the (tainted) secret whose arms reconverge at the next
    label — the branch compares the secret register against *itself*,
    so it is always taken and the two secret variants execute
    identically — followed by an all-public tail touching every
    trigger shape (load, silent store, mul, div, add).  The sticky
    analysis poisons the whole tail through the implicit-flow rule;
    the post-dominator analysis clears control taint at the join, so
    only the secret load itself can be flagged.  Dynamically nothing
    value-equality- or width-triggered in the tail can diverge, which
    makes every tail flag a measurable false positive.
    """
    const = rng.choice(_PUBLIC_CONSTS)
    asm = Assembler()
    asm.secret(SECRET_ADDR, SECRET_ADDR + 8)
    asm.load(1, 0, SECRET_ADDR)          # x1 <- secret
    asm.beq(1, 1, f"join{index}")        # tainted branch, always taken
    asm.addi(9, 0, 1)                    # influence region (dead)
    asm.label(f"join{index}")
    asm.li(5, const)
    asm.load(2, 0, SCRATCH_ADDR)         # public load
    asm.store(5, 0, SCRATCH_ADDR + 8)    # silent in every variant
    asm.mul(3, 5, 5)
    asm._rr(Op.DIV, 4, 5, 5)
    asm._rr(Op.ADD, 7, 5, 5)
    asm.halt()
    return GeneratedCase(
        name=f"gated/public-tail-{index}",
        program=asm.assemble(),
        mem_writes=((SECRET_ADDR, rng.getrandbits(32), 8),
                    (SCRATCH_ADDR, const, 8),
                    (SCRATCH_ADDR + 8, const, 8)),
        note="tainted branch reconverges before an all-public tail")


class CaseGenerator:
    """Deterministic case source: seed + plug-in name → cases.

    Cycles the plug-in's trigger templates (re-drawing their
    parameters each pass) and mixes in one generic straight-line case
    per cycle, so a budget above the template count keeps exploring
    instead of repeating.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def rng_for(self, plugin: str) -> random.Random:
        return random.Random(f"progen/{self.seed}/{plugin}")

    def cases_for(self, plugin: str,
                  budget: int) -> tuple[GeneratedCase, ...]:
        if plugin not in TRIGGER_TEMPLATES:
            raise KeyError(f"no trigger templates for {plugin!r}; "
                           f"known: {sorted(TRIGGER_TEMPLATES)}")
        templates = TRIGGER_TEMPLATES[plugin]
        rng = self.rng_for(plugin)
        period = len(templates) + 1     # one generic case per pass
        cases: list[GeneratedCase] = []
        for cursor in range(budget):
            slot = cursor % period
            if slot == len(templates):
                case = random_case(rng, index=cursor)
            else:
                case = templates[slot](rng)
            cases.append(_renamed(case, f"{case.name}#{cursor}"))
        return tuple(cases)


def _renamed(case: GeneratedCase, name: str) -> GeneratedCase:
    return GeneratedCase(
        name=name, program=case.program, mem_writes=case.mem_writes,
        mem_blobs=case.mem_blobs, regs=case.regs, taint=case.taint,
        hierarchy=case.hierarchy, max_cycles=case.max_cycles,
        note=case.note)


# ----------------------------------------------------------------------
# hypothesis strategies (promoted from tests/test_property_roundtrip)
# ----------------------------------------------------------------------
# Imported lazily: the synthesize CLI runs in runtime-only
# environments (CI static-checks) where hypothesis is absent.

def _st() -> Any:
    from hypothesis import strategies as st
    return st


def regions(max_regions: int = 3) -> Any:
    """Strategy: up to ``max_regions`` random byte ranges."""
    st = _st()

    @st.composite
    def _regions(draw: Any) -> tuple[tuple[int, int], ...]:
        result: list[tuple[int, int]] = []
        for _ in range(draw(st.integers(0, max_regions))):
            start = draw(st.integers(0, 1 << 20))
            result.append((start, start + draw(st.integers(1, 64))))
        return tuple(result)

    return _regions()


def programs(with_regions: bool = False) -> Any:
    """Strategy: random valid programs (any op, resolved branch
    targets, optional ``.secret``/``.public`` directives)."""
    st = _st()
    from repro.isa import Instruction

    regs_st = st.integers(0, 31)
    widths = st.sampled_from([1, 2, 4, 8])
    imms = st.integers(-(1 << 32), (1 << 32) - 1)

    @st.composite
    def _programs(draw: Any) -> Program:
        length = draw(st.integers(min_value=1, max_value=24))
        instructions = []
        for pc in range(length):
            op = draw(st.sampled_from(sorted(Op,
                                             key=lambda o: o.value)))
            target = None
            if op in BRANCH_OPS or op is Op.JMP:
                # Any resolved target in [0, len] is valid
                # post-assembly.
                target = draw(st.integers(0, length))
            instructions.append(Instruction(
                op=op, rd=draw(regs_st), rs1=draw(regs_st),
                rs2=draw(regs_st), imm=draw(imms),
                width=draw(widths), target=target, pc=pc))
        secret = draw(regions()) if with_regions else ()
        public = draw(regions()) if with_regions else ()
        return Program(instructions, {}, secret_regions=secret,
                       public_regions=public)

    return _programs()


def canonical_programs() -> Any:
    """Strategy: programs the text form can express — fields an op
    does not use sit at their defaults (the wire form keeps every
    field, the source form only the meaningful ones)."""
    st = _st()
    from repro.isa import Instruction
    from repro.isa.opcodes import ALU_RI_OPS, MEMORY_OPS

    @st.composite
    def _canonical(draw: Any) -> Program:
        program = draw(programs(with_regions=True))
        canonical = []
        for inst in program.instructions:
            op = inst.op
            uses_imm = op in ALU_RI_OPS or op in MEMORY_OPS \
                or op is Op.LI
            canonical.append(Instruction(
                op=op,
                rd=inst.rd if op.writes_rd else 0,
                rs1=inst.rs1 if op.reads_rs1 else 0,
                rs2=inst.rs2 if op.reads_rs2 else 0,
                imm=inst.imm if uses_imm else 0,
                width=inst.width if op in MEMORY_OPS else 8,
                target=inst.target, pc=inst.pc))
        return Program(canonical, {},
                       secret_regions=program.secret_regions,
                       public_regions=program.public_regions)

    return _canonical()


def generated_cases() -> Any:
    """Strategy: every case the seeded generator can emit — drawn as
    (plug-in, seed, budget slot), so property tests cover exactly the
    distribution the synthesizer fuzzes with."""
    st = _st()

    @st.composite
    def _cases(draw: Any) -> GeneratedCase:
        plugin = draw(st.sampled_from(sorted(TRIGGER_TEMPLATES)))
        seed = draw(st.integers(0, 1 << 16))
        budget = draw(st.integers(1, 8))
        cases = CaseGenerator(seed=seed).cases_for(plugin, budget)
        return cases[draw(st.integers(0, len(cases) - 1))]

    return _cases()
