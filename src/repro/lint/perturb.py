"""Secret-pair XOR perturbation — the one shared variant builder.

Both differential harnesses in the lint layer — the soundness check
(:mod:`repro.lint.soundness`) and the contract synthesizer
(:mod:`repro.lint.synthesize`) — need the same construction: from one
:class:`~repro.engine.specs.SimSpec`, derive variants that differ from
the baseline in *exactly* the bytes the taint seed calls secret, so
that any observable divergence between the runs is attributable to the
secret and nothing else.  This module is that construction, extracted
so the two harnesses cannot drift apart:

* memory secrets — bytes of ``mem_writes`` / ``mem_blobs`` entries
  that fall inside a declared secret region are XORed with a pattern
  byte;
* register secrets — preloaded ``regs`` entries whose architectural
  index appears in ``taint.secret_regs`` are XORed with the pattern
  byte replicated across the full 64-bit width (:func:`xor_regs`,
  :func:`replicate`), so equality MLDs (silent stores, reuse, value
  prediction) and width MLDs (operand packing, early termination,
  register-file compression) both see a flip;
* :func:`secret_variants` assembles ``[baseline, variant, ...]``,
  skipping patterns that change nothing (a zero pattern, or a secret
  that never appears in the initial image).

A pattern is one byte, 0 to 255; :func:`perturb_spec` and
:func:`secret_variants` reject any other value with a
:class:`ValueError` before building a variant, since a wider pattern
would spill into the public bytes next to a secret one.

The memory image is perturbed by masks: :func:`secret_variants` (and
:func:`perturb_spec`, which shares the code) intersects each write's
and blob's byte range with the secret regions once per call, and each
pattern then costs one ``value ^ (replicate(pattern, width) & mask)``
per entry; an entry with no secret byte is kept as it is.  The
per-byte :func:`xor_write` and :func:`xor_blob` are the reference that
construction is tested against.  Variants are not memoized: each call
builds fresh specs, as each CLI audit run would.

Everything here is pure data transformation: no RNG, no wall clock,
deterministic for a fixed spec + pattern tuple.
"""

from collections.abc import Iterable, Sequence

from repro.engine.specs import SimSpec

#: One declared secret byte range, half-open: ``(start, end)``.
Region = tuple[int, int]

#: Byte patterns XORed over the secret bytes to build variants.
#: 0xA5/0x5A flip mixed bit patterns, 0xFF flips everything; together
#: with the unmodified baseline they exercise equality MLDs (silent
#: stores, reuse, VP) and width MLDs (packing, early termination).
DEFAULT_PATTERNS = (0xA5, 0x5A, 0xFF)

#: Architectural register width in bytes (repro-ISA is RV64-shaped).
REG_WIDTH = 8

_REG_MASK = (1 << (8 * REG_WIDTH)) - 1


def replicate(pattern: int, width: int = REG_WIDTH) -> int:
    """The pattern byte replicated across ``width`` bytes.

    ``replicate(0xA5)`` is the full-register XOR mask; a zero pattern
    replicates to zero (the identity perturbation).  Only the
    pattern's low byte is used: ``replicate(0x100)`` is zero too.
    """
    return (pattern & 0xFF) * int.from_bytes(b"\x01" * width, "little")


def _check_patterns(patterns: Iterable[int]) -> None:
    """Raise :class:`ValueError` naming the first pattern that is not
    one byte (0 to 255)."""
    for pattern in patterns:
        if not 0 <= pattern <= 0xFF:
            raise ValueError(f"secret pattern {pattern!r} is not a byte "
                             f"(0 to 255)")


def xor_write(entry: tuple[int, int, int],
              regions: Iterable[Region],
              pattern: int) -> tuple[int, int, int]:
    """XOR ``pattern`` into the bytes of one ``(addr, value, width)``
    memory write that fall inside ``regions``."""
    addr, value, width = entry
    flipped = value
    for index in range(width):
        byte_addr = addr + index
        if any(start <= byte_addr < end for start, end in regions):
            flipped ^= pattern << (8 * index)
    return (addr, flipped, width)


def xor_blob(entry: tuple[int, bytes], regions: Iterable[Region],
             pattern: int) -> tuple[int, bytes]:
    """XOR ``pattern`` into the bytes of one ``(addr, bytes)`` blob
    that fall inside ``regions``."""
    addr, data = entry
    blob = bytearray(bytes(data))
    for index in range(len(blob)):
        byte_addr = addr + index
        if any(start <= byte_addr < end for start, end in regions):
            blob[index] ^= pattern
    return (addr, bytes(blob))


def xor_regs(regs: Iterable[tuple[int, int]],
             secret_regs: Iterable[int],
             pattern: int) -> tuple[tuple[int, int], ...]:
    """XOR the replicated ``pattern`` into every ``(index, value)``
    register preload whose index is in ``secret_regs``."""
    if not secret_regs:
        return tuple(regs)
    secret = set(secret_regs)
    mask = replicate(pattern)
    return tuple((index, (value ^ mask) & _REG_MASK)
                 if index in secret else (index, value)
                 for index, value in regs)


def secret_regions_of(spec: SimSpec) -> tuple[Region, ...]:
    """The spec's effective secret byte ranges (taint + directives)."""
    regions = list(spec.program.secret_regions)
    if spec.taint is not None:
        regions.extend(spec.taint.secret)
    return tuple(sorted(set(regions)))


def secret_regs_of(spec: SimSpec) -> tuple[int, ...]:
    """The spec's secret architectural registers (taint metadata)."""
    if spec.taint is None:
        return ()
    return tuple(sorted(set(spec.taint.secret_regs)))


def _secret_mask(addr: int, size: int,
                 regions: Iterable[Region]) -> int:
    """Bit mask of the bytes of ``[addr, addr + size)`` that fall
    inside ``regions``: ``0xFF`` at each secret byte, little-endian."""
    mask = 0
    end = addr + size
    for start, stop in regions:
        low, high = max(start, addr), min(stop, end)
        if low < high:
            mask |= ((1 << (8 * (high - low))) - 1) << (8 * (low - addr))
    return mask


def _secret_masks(spec: SimSpec, regions: tuple[Region, ...],
                  ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(one mask per ``mem_writes`` entry, one per ``mem_blobs``
    entry) of ``spec``'s bytes inside ``regions``."""
    return (tuple(_secret_mask(addr, width, regions)
                  for addr, _value, width in spec.mem_writes),
            tuple(_secret_mask(addr, len(data), regions)
                  for addr, data in spec.mem_blobs))


def _xor_masked(data: bytes, pattern: int, mask: int) -> bytes:
    """``data`` with ``pattern`` XORed into the bytes ``mask`` covers."""
    size = len(data)
    return (int.from_bytes(data, "little")
            ^ (replicate(pattern, size) & mask)).to_bytes(size, "little")


def _perturbed(spec: SimSpec, pattern: int,
               masks: tuple[tuple[int, ...], tuple[int, ...]],
               secret_regs: tuple[int, ...]) -> SimSpec | None:
    """``spec`` with ``pattern`` XORed under ``masks`` and into
    ``secret_regs``, or ``None`` when that changes nothing."""
    write_masks, blob_masks = masks
    mem_writes = tuple(
        (entry[0], entry[1] ^ (replicate(pattern, entry[2]) & mask),
         entry[2]) if mask else entry
        for entry, mask in zip(spec.mem_writes, write_masks))
    mem_blobs = tuple(
        (entry[0], _xor_masked(entry[1], pattern, mask)) if mask else entry
        for entry, mask in zip(spec.mem_blobs, blob_masks))
    regs = xor_regs(spec.regs, secret_regs, pattern)
    if mem_writes == spec.mem_writes and mem_blobs == spec.mem_blobs \
            and regs == spec.regs:
        return None                     # identity perturbation
    return spec.replace(
        mem_writes=mem_writes, mem_blobs=mem_blobs, regs=regs,
        label=f"{spec.label or 'spec'}/secret^{pattern:#04x}")


def perturb_spec(spec: SimSpec, pattern: int,
                 regions: tuple[Region, ...] | None = None,
                 secret_regs: tuple[int, ...] | None = None,
                 ) -> SimSpec | None:
    """One secret-perturbed variant of ``spec``, or ``None``.

    XORs ``pattern`` over the secret bytes of the initial memory image
    and the secret register preloads.  Returns ``None`` when the
    perturbation is the identity — a zero pattern, or a secret that
    never appears in the image — so callers never run a duplicate of
    the baseline under a variant label.  A pattern outside 0–255
    raises :class:`ValueError`.
    """
    _check_patterns((pattern,))
    regions = secret_regions_of(spec) if regions is None else regions
    secret_regs = secret_regs_of(spec) if secret_regs is None \
        else secret_regs
    return _perturbed(spec, pattern, _secret_masks(spec, regions),
                      secret_regs)


def secret_variants(spec: SimSpec,
                    patterns: Sequence[int] = DEFAULT_PATTERNS,
                    ) -> list[SimSpec]:
    """Baseline + secret-perturbed variants of ``spec``.

    Returns ``[spec, variant1, ...]``; with no secret bytes declared
    (neither regions nor registers) the baseline alone comes back —
    nothing to perturb, so a differential harness passes vacuously.
    Each entry's secret-byte mask is computed once, not once per
    pattern.  A pattern outside 0–255 raises :class:`ValueError`
    before any variant is built.
    """
    _check_patterns(patterns)
    regions = secret_regions_of(spec)
    secret_regs = secret_regs_of(spec)
    variants = [spec]
    if not regions and not secret_regs:
        return variants
    masks = _secret_masks(spec, regions)
    for pattern in patterns:
        variant = _perturbed(spec, pattern, masks, secret_regs)
        if variant is not None:
            variants.append(variant)
    return variants
