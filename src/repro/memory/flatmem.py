"""Flat byte-addressable backing memory.

This is the architectural data memory (``Arch data_memory`` in the MLD
framework).  It is shared by the interpreter, the cache hierarchy and —
critically for the paper's prefetcher attack — the data memory-dependent
prefetcher, which dereferences its contents with no bounds knowledge.

The bytes live in a private anonymous mapping, not a ``bytearray``: the
OS supplies a zeroed page on its first touch, so building a memory
costs nothing per byte and a trial pays only for the pages it uses.
``MAP_PRIVATE`` keeps the pages copy-on-write across ``fork``, so a
pool worker never writes into its parent's memory.
"""

import mmap

_WORD_MASK = (1 << 64) - 1


class MemoryError_(Exception):
    """Raised on out-of-range physical accesses and on word accesses
    whose width is not 1 to 8 bytes."""


def _bad_width(width):
    return MemoryError_(f"access width {width!r} is not 1 to 8 bytes")


class FlatMemory:
    """A fixed-size little-endian byte array with word accessors."""

    def __init__(self, size=1 << 22):
        self.size = size
        # mmap rejects a zero length; a zero-size memory maps one byte
        # that the bounds check never lets an access reach.
        self._data = mmap.mmap(-1, size or 1, flags=mmap.MAP_PRIVATE)

    def __reduce__(self):
        # An mmap cannot be pickled or deep-copied: rebuild the memory
        # from its size and contents.
        return _restore, (self.size, self._data[:self.size])

    def _check(self, addr, width):
        if addr < 0 or addr + width > self.size:
            raise MemoryError_(
                f"access [{addr:#x}, {addr + width:#x}) outside physical "
                f"memory of size {self.size:#x}")

    def read(self, addr, width=8):
        """Read ``width`` (1 to 8) bytes at ``addr``, zero-extended to a
        word."""
        if not 0 < width <= 8:
            raise _bad_width(width)
        self._check(addr, width)
        return int.from_bytes(self._data[addr:addr + width], "little")

    def write(self, addr, value, width=8):
        """Write the low ``width`` (1 to 8) bytes of ``value`` at
        ``addr``."""
        if not 0 < width <= 8:
            raise _bad_width(width)
        self._check(addr, width)
        self._data[addr:addr + width] = (
            (value & _WORD_MASK).to_bytes(8, "little")[:width])

    def write_words(self, writes):
        """:meth:`write` each ``(addr, value, width)`` of ``writes``, in
        order, so a later write to the same bytes wins.

        Every write is checked before any is made: one outside memory,
        or one whose width is not 1 to 8 bytes, raises
        :class:`MemoryError_` with nothing written.
        """
        size = self.size
        for addr, _value, width in writes:
            if not 0 < width <= 8:
                raise _bad_width(width)
            if addr < 0 or addr + width > size:
                self._check(addr, width)
        data = self._data
        for addr, value, width in writes:
            data[addr:addr + width] = (
                (value & _WORD_MASK).to_bytes(8, "little")[:width])

    def read_bytes(self, addr, length):
        self._check(addr, length)
        return self._data[addr:addr + length]

    def write_bytes(self, addr, data):
        self._check(addr, len(data))
        self._data[addr:addr + len(data)] = data

    def fill(self, addr, length, byte=0):
        self._check(addr, length)
        self._data[addr:addr + length] = bytes([byte]) * length


def _restore(size, data):
    memory = FlatMemory(size)
    memory.write_bytes(0, data)
    return memory
