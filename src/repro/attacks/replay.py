"""Active replay attacks with width narrowing (Section IV-C4).

Silent stores, computation reuse and value prediction all "leak a
function of whether an instruction operand/result value equals another
value stored in either architectural or microarchitectural state."
With attacker-controlled comparison values and many experiments, each
experiment answers one equality query — and because the check is an
equality, narrower-width checks shrink the search exponentially:
learning 32 bits takes 2^32 tries in expectation at word width but only
4 x 2^8 at byte width.

:class:`SilentStoreWidthOracle` realizes the equality query on the
simulator via the amplification gadget with a store of the chosen
width; the search strategies below work against any equality oracle.
"""

from dataclasses import dataclass, field

from repro.attacks.amplification import GadgetLayout, emit_gadget, \
    flush_pointer_write
from repro.engine import (
    CacheSpec, HierarchySpec, PluginSpec, SimSpec, TaintSpec, run_spec,
)
from repro.isa.assembler import Assembler
from repro.pipeline.config import CPUConfig


@dataclass
class OracleStats:
    queries: int = 0
    timed_queries: int = 0
    queries_by_width: dict = field(default_factory=dict)


class SilentStoreWidthOracle:
    """Equality oracle over a secret word resident in data memory.

    ``query(guess, offset, width)`` asks: do ``width`` bytes of the
    secret at byte ``offset`` equal ``guess``?  In ``timed`` mode every
    query is an amplified silent-store measurement on the pipeline; in
    ``fast`` mode the equality is evaluated directly (it is exactly the
    check the hardware performs — ``timed`` and ``fast`` are asserted
    equivalent by the tests).
    """

    def __init__(self, secret, secret_width=4, mode="fast",
                 slot_addr=0x8000, delay_ptr_addr=0x4_0000,
                 flush_area_base=0x5_0000, result_cache=None):
        self.secret = secret & ((1 << (8 * secret_width)) - 1)
        self.secret_width = secret_width
        self.mode = mode
        self.slot_addr = slot_addr
        self.delay_ptr_addr = delay_ptr_addr
        self.flush_area_base = flush_area_base
        self.result_cache = result_cache
        self.stats = OracleStats()
        self._threshold = None

    # -- fast path ------------------------------------------------------

    def _equal(self, guess, offset, width):
        secret_part = (self.secret >> (8 * offset)) & ((1 << (8 * width)) - 1)
        return guess == secret_part

    # -- timed path --------------------------------------------------------

    def _measure_spec(self, guess, offset, width, secret_override=None):
        secret = self.secret if secret_override is None else secret_override
        l1_spec = CacheSpec(num_sets=64, ways=4)
        layout = GadgetLayout(target_addr=self.slot_addr + offset,
                              delay_ptr_addr=self.delay_ptr_addr,
                              flush_area_base=self.flush_area_base)
        asm = Assembler()
        asm.li(1, self.slot_addr + offset)
        asm.load(2, 1, 0)
        asm.fence()
        emit_gadget(asm, layout, l1_spec)
        asm.li(6, guess)
        asm.store(6, 1, 0, width=width)
        asm.fence()
        asm.halt()
        return SimSpec(
            program=asm.assemble(),
            config=CPUConfig(store_queue_size=5),
            hierarchy=HierarchySpec(memory_size=1 << 20, l1=l1_spec),
            plugins=(PluginSpec.of("silent-stores"),),
            mem_writes=((self.slot_addr, secret, self.secret_width),
                        flush_pointer_write(layout, l1_spec)),
            label=f"query/{offset}/{width}/{guess:#x}",
            taint=TaintSpec.of(
                secret=((self.slot_addr,
                         self.slot_addr + self.secret_width),)))

    def _measure(self, guess, offset, width, secret_override=None):
        spec = self._measure_spec(guess, offset, width,
                                  secret_override=secret_override)
        result = run_spec(spec, cache=self.result_cache)
        if not result.cached:
            self.stats.timed_queries += 1
        return result.cycles

    def _calibrate(self):
        silent = self._measure(0x11, 0, 1, secret_override=0x11)
        noisy = self._measure(0x12, 0, 1, secret_override=0x11)
        self._threshold = (silent + noisy) // 2

    def query(self, guess, offset=0, width=None):
        """One experiment.  Returns True iff the store would be silent."""
        if width is None:
            width = self.secret_width
        self.stats.queries += 1
        self.stats.queries_by_width[width] = (
            self.stats.queries_by_width.get(width, 0) + 1)
        if self.mode == "fast":
            return self._equal(guess, offset, width)
        if self._threshold is None:
            self._calibrate()
        return self._measure(guess, offset, width) < self._threshold


def full_width_search(oracle, width=None, order=None):
    """Enumerate full-width guesses: O(2^(8*width)) experiments.

    ``order`` optionally fixes the guess enumeration (defaults to
    0, 1, 2, ...).  Returns ``(value, tries)``.
    """
    if width is None:
        width = oracle.secret_width
    guesses = order if order is not None else range(1 << (8 * width))
    tries = 0
    for guess in guesses:
        tries += 1
        if oracle.query(guess, offset=0, width=width):
            return guess, tries
    return None, tries


def narrowing_search(oracle, width=None):
    """Byte-by-byte narrowing: at most ``width * 256`` experiments.

    This is the paper's observation that equality checks compose: the
    attacker checks one byte at a time with narrow stores.
    Returns ``(value, tries)``.
    """
    if width is None:
        width = oracle.secret_width
    value = 0
    tries = 0
    for offset in range(width):
        found = None
        for guess in range(256):
            tries += 1
            if oracle.query(guess, offset=offset, width=1):
                found = guess
                break
        if found is None:
            return None, tries
        value |= found << (8 * offset)
    return value, tries


def expected_tries(width_bytes, chunk_bytes):
    """Analytic expected experiment count (uniform secret)."""
    chunks = width_bytes // chunk_bytes
    per_chunk = (1 << (8 * chunk_bytes)) / 2
    return chunks * per_chunk
