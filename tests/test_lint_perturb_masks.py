"""The mask-built secret variants against the per-byte reference.

:func:`~repro.lint.perturb.secret_variants` (and
:func:`~repro.lint.perturb.perturb_spec`) XOR each pattern under a
secret-byte mask computed once per call by interval overlap.  The
per-byte helpers :func:`xor_write`, :func:`xor_blob` and
:func:`xor_regs` are the reference: over generated writes of width 1–8,
blobs and register preloads, under regions that overlap, straddle an
entry's edges or are empty, and patterns 0–255, both constructions
must agree field for field.  Two committed mutants of the mask function
(an inclusive region end, a mask shifted by one byte) must each fail
that property.

A pattern outside 0–255 would spill past its byte into public ones, so
every entry point that builds variants rejects it, naming it, before
any variant is built.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import repro.lint.perturb as perturb
from repro.engine import PluginSpec, SimSpec, TaintSpec
from repro.isa.assembler import Assembler
from repro.lint import check_soundness, check_synthesis, minimize_witness
from repro.lint.perturb import (
    perturb_spec, secret_regions_of, secret_regs_of, secret_variants,
    xor_blob, xor_regs, xor_write,
)
from repro.lint.progen import CaseGenerator
from tests.spec_catalog import attack_specs

BASE = 0x100
BOUNDED = settings(max_examples=200, deadline=None, derandomize=True,
                   database=None,
                   suppress_health_check=[HealthCheck.too_slow])


def _program():
    asm = Assembler()
    asm.load(1, 0, BASE)
    asm.halt()
    return asm.assemble()


PROGRAM = _program()

_addrs = st.integers(BASE - 12, BASE + 40)
_writes = st.integers(1, 8).flatmap(lambda width: st.tuples(
    _addrs, st.integers(0, (1 << (8 * width)) - 1), st.just(width)))
_blobs = st.tuples(_addrs, st.binary(max_size=24))
_regions = st.tuples(_addrs, st.integers(0, 12)).map(
    lambda region: (region[0], region[0] + region[1]))   # 0: empty


@st.composite
def specs(draw):
    """A spec over a small address window: writes, blobs and register
    preloads, with secret regions (some empty) and secret registers
    drawn over the same window and indices."""
    preloaded = draw(st.lists(st.integers(1, 31), unique=True,
                              max_size=4))
    regs = tuple((index, draw(st.integers(0, (1 << 64) - 1)))
                 for index in preloaded)
    secret_regs = draw(st.lists(st.integers(1, 31), max_size=3))
    # TaintSpec() as built here keeps empty regions, which
    # TaintSpec.of would reject.
    taint = TaintSpec(secret=tuple(draw(st.lists(_regions, max_size=4))),
                      secret_regs=tuple(secret_regs))
    return SimSpec(program=PROGRAM,
                   mem_writes=tuple(draw(st.lists(_writes, max_size=5))),
                   mem_blobs=tuple(draw(st.lists(_blobs, max_size=3))),
                   regs=regs, taint=taint, label="masks")


def reference_variants(spec, patterns):
    """``[spec, variant, ...]`` built byte by byte with the per-byte
    helpers, skipping identity perturbations."""
    regions = secret_regions_of(spec)
    secret_regs = secret_regs_of(spec)
    variants = [spec]
    if not regions and not secret_regs:
        return variants
    for pattern in patterns:
        variant = reference_variant(spec, pattern, regions, secret_regs)
        if variant is not None:
            variants.append(variant)
    return variants


def reference_variant(spec, pattern, regions, secret_regs):
    mem_writes = tuple(xor_write(entry, regions, pattern)
                       for entry in spec.mem_writes)
    mem_blobs = tuple(xor_blob(entry, regions, pattern)
                      for entry in spec.mem_blobs)
    regs = xor_regs(spec.regs, secret_regs, pattern)
    if (mem_writes, mem_blobs, regs) == \
            (spec.mem_writes, spec.mem_blobs, spec.regs):
        return None
    return spec.replace(
        mem_writes=mem_writes, mem_blobs=mem_blobs, regs=regs,
        label=f"{spec.label}/secret^{pattern:#04x}")


def fields(spec):
    return {field.name: getattr(spec, field.name)
            for field in dataclasses.fields(spec)}


PATTERNS = st.lists(st.integers(0, 0xFF), min_size=1, max_size=4)


def assert_matches_reference(spec, patterns):
    expected = reference_variants(spec, patterns)
    built = secret_variants(spec, patterns)
    assert [fields(variant) for variant in built] == \
        [fields(variant) for variant in expected]
    regions, secret_regs = secret_regions_of(spec), secret_regs_of(spec)
    for pattern in patterns:
        variant = perturb_spec(spec, pattern)
        reference = reference_variant(spec, pattern, regions, secret_regs)
        assert (variant is None) == (reference is None)
        if variant is not None:
            assert fields(variant) == fields(reference)


@BOUNDED
@given(spec=specs(), patterns=PATTERNS)
def test_mask_built_variants_equal_the_per_byte_construction(spec,
                                                             patterns):
    assert_matches_reference(spec, patterns)


@pytest.mark.parametrize("mutant", ["inclusive-end", "shifted-mask"])
def test_the_property_catches_a_broken_secret_mask(monkeypatch, mutant):
    """Committed mutants: each broken ``_secret_mask``, patched in, fails
    the property above on the same generated inputs (reported as soon
    as found, without shrinking)."""
    secret_mask = perturb._secret_mask

    def inclusive_end(addr, size, regions):
        return secret_mask(addr, size,
                           [(start, stop + 1) for start, stop in regions])

    def shifted_mask(addr, size, regions):
        mask = secret_mask(addr, size, regions) << 8
        return mask & ((1 << (8 * size)) - 1)

    @settings(BOUNDED, phases=[Phase.generate])
    @given(spec=specs(), patterns=PATTERNS)
    def property_under_mutant(spec, patterns):
        assert_matches_reference(spec, patterns)

    monkeypatch.setattr(perturb, "_secret_mask", {
        "inclusive-end": inclusive_end,
        "shifted-mask": shifted_mask}[mutant])
    with pytest.raises(AssertionError):
        property_under_mutant()


# ----------------------------------------------------------------------
# patterns outside 0-255 are rejected at every entry point
# ----------------------------------------------------------------------

BAD_PATTERNS = [0x100, 0x1FF, -1]


def _secret_spec():
    return attack_specs()["amplification"]


@pytest.mark.parametrize("pattern", BAD_PATTERNS)
def test_perturb_spec_rejects_a_pattern_that_is_not_a_byte(pattern):
    with pytest.raises(ValueError, match=f"secret pattern {pattern} "):
        perturb_spec(_secret_spec(), pattern)


@pytest.mark.parametrize("pattern", BAD_PATTERNS)
def test_secret_variants_rejects_a_pattern_that_is_not_a_byte(pattern):
    with pytest.raises(ValueError, match=f"secret pattern {pattern} "):
        secret_variants(_secret_spec(), (0xA5, pattern))


def test_check_soundness_rejects_a_pattern_that_is_not_a_byte():
    with pytest.raises(ValueError, match="secret pattern 511 "):
        check_soundness(_secret_spec(), patterns=(0x1FF,))


def test_check_synthesis_rejects_a_pattern_that_is_not_a_byte():
    with pytest.raises(ValueError, match="secret pattern 256 "):
        check_synthesis("silent-stores", budget=1, patterns=(0x100,))


def test_minimize_witness_rejects_a_pattern_that_is_not_a_byte():
    case = CaseGenerator(seed=0).cases_for("silent-stores", 1)[0]
    with pytest.raises(ValueError, match="secret pattern -1 "):
        minimize_witness(case, PluginSpec.of("silent-stores"),
                         patterns=(-1,))

