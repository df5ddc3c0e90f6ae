"""The silent-store amplification gadget (Figure 5 / Section V-A2).

Goal: maximize the time the *target store* takes to dequeue from the
store queue when it is **not** silent, so that a single dynamic store's
silence becomes an end-to-end timing difference.  Recipe:

* the target line is warm when the store's address resolves, so the
  SS-Load issues and returns early (the store becomes a silent-store
  candidate — Cases A/B of Figure 4, never C/D);
* a **delay sub-gadget** (a pointer-chasing load that misses to memory)
  stalls a **flush sub-gadget** (loads that contend for the target
  line's cache set) until after the SS-Load has completed;
* the flush then evicts the target line, so a non-silent store reaching
  the head of the store queue must re-fetch its line from memory —
  head-of-line blocking the (in-order-dequeue) store queue and stalling
  the pipeline behind it.

The builder below works for any set-associative L1 (the flush emits one
conflicting load per way), not just the direct-mapped example of
Figure 5.
"""

from dataclasses import dataclass

from repro.engine import (
    CacheSpec, HierarchySpec, LatencySpec, PluginSpec, SimSpec,
    TaintSpec,
)
from repro.isa.assembler import Assembler
from repro.pipeline.config import CPUConfig


@dataclass
class GadgetLayout:
    """Addresses used by the gadget; all attacker/victim-layout known.

    ``delay_ptr_addr`` is the location read by the delay load (``A`` in
    Figure 5); memory at that address holds ``flush_area_base``, making
    the flush loads data-dependent on the delay load.  Flush addresses
    are derived from the loaded pointer so they cannot issue before the
    delay load returns.
    """

    target_addr: int          # S: the target store's address
    delay_ptr_addr: int       # A: pointer cell, line must be cold
    flush_area_base: int      # A' region: lines conflicting with set(S)

    def flush_addresses(self, cache):
        """One address per way, all mapping to ``set(S)``.

        ``cache`` is a :class:`~repro.memory.Cache` or its
        :class:`~repro.engine.CacheSpec`: only its geometry
        (``num_sets``, ``ways``, ``line_size``) is read.
        """
        num_sets, line_size = cache.num_sets, cache.line_size
        target_set = (self.target_addr // line_size) % num_sets
        base_set = (self.flush_area_base // line_size) % num_sets
        first = (self.flush_area_base
                 + ((target_set - base_set) % num_sets) * line_size)
        way_stride = num_sets * line_size
        return [first + way * way_stride for way in range(cache.ways)]


def flush_pointer_write(layout, cache):
    """The flush-pointer precondition as an ``(addr, value, width)``
    memory write (Figure 5's planted ``A`` cell), spec-friendly."""
    addresses = layout.flush_addresses(cache)
    return (layout.delay_ptr_addr, addresses[0], 8)


def plant_flush_pointer(memory, layout, cache):
    """Write the flush pointer at ``A`` (precondition of Figure 5)."""
    addr, value, width = flush_pointer_write(layout, cache)
    memory.write(addr, value, width)
    return layout.flush_addresses(cache)


def emit_gadget(asm, layout, cache, ptr_reg=4, value_reg=5):
    """Emit delay + flush sub-gadgets into ``asm``.

    Must be followed by the target store.  ``ptr_reg`` receives the
    flush pointer; ``value_reg`` is a scratch destination.  ``cache``
    is a :class:`~repro.memory.Cache` or a
    :class:`~repro.engine.CacheSpec` (only its geometry is read).
    """
    way_stride = cache.num_sets * cache.line_size
    asm.annotate("delay sub-gadget: pointer-chasing miss")
    asm.li(ptr_reg, layout.delay_ptr_addr)
    asm.load(ptr_reg, ptr_reg, 0)
    for way in range(cache.ways):
        asm.annotate(f"flush sub-gadget: way {way} of set(S)")
        asm.load(value_reg, ptr_reg, way * way_stride)
    return asm


def build_timing_probe(layout, cache, store_value, warm_addresses=(),
                       scratch_base=None, backpressure_stores=4):
    """A complete single-store timing probe program.

    Warms the target line (and ``warm_addresses``), fences, runs the
    gadget, performs the target store of ``store_value`` (2 bytes), then
    issues ``backpressure_stores`` younger stores to scratch locations
    that pile up behind it in the store queue.  The scratch stores write
    a constant to pre-warmed lines holding a *different* constant, so
    they are deterministically non-silent and cost the same in every
    run; the only data-dependent event is the target store's silence.
    Total runtime (``CPUStats.cycles``) is the measurement.
    """
    if scratch_base is None:
        scratch_base = layout.target_addr + 4096
    asm = Assembler()
    asm.li(1, layout.target_addr)
    asm.annotate("precondition: line(S) present in cache")
    asm.load(2, 1, 0)
    for addr in warm_addresses:
        asm.li(3, addr)
        asm.load(2, 3, 0)
    for index in range(backpressure_stores):
        asm.li(3, scratch_base + 64 * index)
        asm.load(2, 3, 0)
    asm.fence()
    emit_gadget(asm, layout, cache)
    asm.annotate("target store")
    asm.li(6, store_value)
    asm.store(6, 1, 0, width=2)
    asm.li(8, 1)
    for index in range(backpressure_stores):
        asm.li(7, scratch_base + 64 * index)
        asm.store(8, 7, 0, width=2)
    asm.fence()
    asm.halt()
    return asm.assemble()


DEFAULT_LAYOUT = GadgetLayout(target_addr=0x8000,
                              delay_ptr_addr=0x4_0000,
                              flush_area_base=0x5_0000)


def amplified_probe_spec(secret_value, store_value, *, width=2,
                         store_queue_size=5, layout=None,
                         cache_spec=None, mem_latency=120,
                         memory_size=1 << 20, warm_addresses=(),
                         backpressure_stores=4, gadget=True,
                         seed=0, label=""):
    """One amplified timing probe as an engine :class:`SimSpec`.

    The secret (``secret_value``) sits at the layout's target address;
    the probe stores ``store_value`` over it through the gadget (or a
    bare store+fence sequence with ``gadget=False``) and the total
    cycle count is the measurement.  Everything — program, memory
    image, geometry — is captured declaratively, so probes fan out
    across workers and hit the result cache.
    """
    layout = layout if layout is not None else DEFAULT_LAYOUT
    cache_spec = cache_spec if cache_spec is not None else CacheSpec()
    mem_writes = [(layout.target_addr, secret_value, width)]
    if gadget:
        program = build_timing_probe(
            layout, cache_spec, store_value, warm_addresses=warm_addresses,
            backpressure_stores=backpressure_stores)
        mem_writes.append(flush_pointer_write(layout, cache_spec))
    else:
        asm = Assembler()
        asm.li(1, layout.target_addr)
        asm.load(2, 1, 0)
        asm.fence()
        asm.li(6, store_value)
        asm.store(6, 1, 0, width=width)
        asm.fence()
        asm.halt()
        program = asm.assemble()
    return SimSpec(
        program=program,
        config=CPUConfig(store_queue_size=store_queue_size),
        hierarchy=HierarchySpec(
            memory_size=memory_size, l1=cache_spec,
            latencies=LatencySpec(memory=mem_latency)),
        plugins=(PluginSpec.of("silent-stores"),),
        mem_writes=tuple(mem_writes), seed=seed, label=label,
        taint=TaintSpec.of(
            secret=((layout.target_addr, layout.target_addr + width),)))
