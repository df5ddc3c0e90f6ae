"""Property-based round-trip tests (hypothesis; seeded and bounded).

Two serialization boundaries get randomized coverage:

* the ISA wire form — :meth:`Program.encode` vs
  :func:`repro.isa.decode_program` over random valid instructions;
* the engine spec JSON form — :meth:`SimSpec.to_json` vs
  :meth:`SimSpec.from_json`, which must preserve the content-address
  (:meth:`SimSpec.fingerprint`) that keys the result cache.

The program strategies (``regions``, ``programs``,
``canonical_programs``) live in :mod:`repro.lint.progen` — promoted
out of this file so the contract synthesizer's property coverage and
these round-trip suites draw from one program vocabulary.

``derandomize=True`` keeps the suite deterministic in CI: hypothesis
derives its examples from the test's source rather than a random seed.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    CacheSpec, HierarchySpec, LatencySpec, PluginSpec, SimSpec,
    TaintSpec, TLBSpec,
)
from repro.isa import Instruction, Op, Program, decode_program
from repro.isa.assembler import AssemblyError
from repro.isa.disassembler import DecodeError
from repro.lint.progen import canonical_programs, programs, regions
from repro.pipeline.config import CPUConfig

BOUNDED = settings(max_examples=60, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])

_WIDTHS = st.sampled_from([1, 2, 4, 8])


@BOUNDED
@given(program=programs())
def test_encode_decode_roundtrip(program):
    blob = program.encode()
    decoded = decode_program(blob)
    assert decoded.encode() == blob
    assert len(decoded) == len(program)
    for original, rebuilt in zip(program, decoded):
        assert rebuilt.op is original.op
        assert (rebuilt.rd, rebuilt.rs1, rebuilt.rs2) == \
            (original.rd, original.rs1, original.rs2)
        assert (rebuilt.imm, rebuilt.width, rebuilt.target) == \
            (original.imm, original.width, original.target)
        assert rebuilt.pc == original.pc


@BOUNDED
@given(program=programs(with_regions=True))
def test_directive_encode_decode_roundtrip(program):
    """``.secret`` / ``.public`` records survive the wire form."""
    blob = program.encode()
    decoded = decode_program(blob)
    assert decoded.secret_regions == program.secret_regions
    assert decoded.public_regions == program.public_regions
    assert decoded.encode() == blob


@BOUNDED
@given(program=programs(with_regions=True))
def test_directive_free_programs_encode_without_directives(program):
    """A program with no regions encodes byte-identically to the
    pre-directive wire form — golden fingerprints cannot move."""
    bare = Program(list(program.instructions), dict(program.labels))
    assert b".secret" not in bare.encode()
    assert b".public" not in bare.encode()
    if program.secret_regions:
        assert b".secret" in program.encode()


@BOUNDED
@given(program=canonical_programs())
def test_directive_source_roundtrip(program):
    """Text rendering reassembles bitwise, regions included."""
    from repro.isa.text import assemble_source, render_source
    rendered = render_source(program)
    again = assemble_source(rendered)
    assert again.encode() == program.encode()
    assert again.secret_regions == program.secret_regions
    assert again.public_regions == program.public_regions


@pytest.mark.parametrize("record", [
    ".secret,16",                   # missing end
    ".secret,16,8",                 # end <= start
    ".secret,-1,8",                 # negative start
    ".secret,a,b",                  # non-integers
    ".public,16,8,4",               # too many fields
    ".classified,0,8",              # unknown directive
])
def test_malformed_directive_records_are_rejected(record):
    blob = Program([Instruction(op=Op.HALT, pc=0)], {}).encode() + \
        (record + "\n").encode()
    with pytest.raises(DecodeError):
        decode_program(blob)


def test_directive_before_instructions_is_rejected():
    program = Program([Instruction(op=Op.HALT, pc=0)], {})
    (line,) = [line for line in program.encode().splitlines() if line]
    blob = b".secret,0,8\n" + line + b"\n"
    with pytest.raises(DecodeError):
        decode_program(blob)


@pytest.mark.parametrize("source", [
    ".secret\n    halt",                    # no operands
    ".secret 8..8\n    halt",               # empty range
    ".secret 8 16\n    halt",               # two operands, no +len
    ".secret 0x10 +0\n    halt",            # zero length
    ".public banana\n    halt",             # non-integer
    ".declassify 0x10\n    halt",           # unknown directive
])
def test_malformed_source_directives_are_rejected(source):
    from repro.isa.text import assemble_source
    with pytest.raises(AssemblyError):
        assemble_source(source)


# ----------------------------------------------------------------------
# random valid specs
# ----------------------------------------------------------------------

_PLUGIN_CHOICES = st.sets(
    st.sampled_from(["silent-stores", "value-prediction",
                     "computation-reuse", "operand-packing"]),
    max_size=3)


@st.composite
def sim_specs(draw):
    memory_size = 1 << draw(st.integers(16, 20))
    l1 = CacheSpec(num_sets=draw(st.sampled_from([16, 64])),
                   ways=draw(st.sampled_from([1, 4])),
                   policy=draw(st.sampled_from(["lru", "random"])),
                   seed=draw(st.integers(0, 7)))
    l2 = (CacheSpec(num_sets=128, ways=8)
          if draw(st.booleans()) else None)
    tlb = (TLBSpec(entries=draw(st.sampled_from([16, 64])))
           if draw(st.booleans()) else None)
    hierarchy = HierarchySpec(
        memory_size=memory_size, l1=l1, l2=l2, tlb=tlb,
        latencies=LatencySpec(jitter=draw(st.sampled_from([0, 5])),
                              seed=draw(st.integers(0, 3))),
        prefetch_buffer_size=draw(st.sampled_from([0, 4])))
    config = (CPUConfig(store_queue_size=draw(st.integers(2, 8)),
                        rob_size=draw(st.sampled_from([32, 64])))
              if draw(st.booleans()) else None)
    plugins = tuple(PluginSpec.of(name)
                    for name in sorted(draw(_PLUGIN_CHOICES)))
    addresses = st.integers(0, memory_size - 16)
    mem_writes = tuple(
        (draw(addresses), draw(st.integers(0, (1 << 64) - 1)),
         draw(_WIDTHS))
        for _ in range(draw(st.integers(0, 3))))
    mem_blobs = tuple(
        (draw(addresses), draw(st.binary(min_size=1, max_size=16)))
        for _ in range(draw(st.integers(0, 2))))
    regs = tuple((draw(st.integers(1, 31)),
                  draw(st.integers(0, (1 << 64) - 1)))
                 for _ in range(draw(st.integers(0, 3))))
    taint = (TaintSpec.of(
        secret=draw(regions()), public=draw(regions()),
        secret_regs=draw(st.sets(st.integers(1, 31), max_size=3)))
        if draw(st.booleans()) else None)
    return SimSpec(
        program=draw(programs(with_regions=draw(st.booleans()))),
        config=config, hierarchy=hierarchy, taint=taint,
        plugins=plugins, mem_writes=mem_writes, mem_blobs=mem_blobs,
        regs=regs,
        max_cycles=draw(st.sampled_from([None, 10_000])),
        seed=draw(st.integers(0, 1 << 16)),
        record_regs=tuple(sorted(draw(st.sets(st.integers(1, 31),
                                              max_size=3)))),
        label=draw(st.sampled_from(["", "probe", "trial/0"])),
        meta=tuple(sorted(draw(st.dictionaries(
            st.sampled_from(["phase", "guess"]),
            st.integers(0, 255), max_size=2)).items())))


@BOUNDED
@given(spec=sim_specs())
def test_spec_json_roundtrip_preserves_fingerprint(spec):
    text = spec.to_json()
    rebuilt = SimSpec.from_json(text)
    assert rebuilt.fingerprint() == spec.fingerprint()
    # The canonical JSON itself is a fixed point of the round trip.
    assert json.loads(rebuilt.to_json()) == json.loads(text)
    # Presentation fields survive too (they are outside the hash).
    assert rebuilt.label == spec.label
    # Lint metadata round-trips but never re-fingerprints a result.
    assert rebuilt.taint == spec.taint
    assert rebuilt.program.secret_regions == spec.program.secret_regions
    relabeled = spec.replace(
        taint=TaintSpec.of(secret=((0, 8),), secret_regs=(5,)))
    assert relabeled.fingerprint() == \
        spec.replace(taint=None).fingerprint()
