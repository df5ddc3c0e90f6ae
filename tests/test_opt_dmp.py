"""The indirect-memory prefetcher: learning, chaining, OOB behaviour."""

import pytest

from repro.isa.assembler import Assembler
from repro.memory.cache import Cache
from repro.memory.flatmem import FlatMemory
from repro.memory.hierarchy import MemoryHierarchy
from repro.optimizations.dmp import IndirectMemoryPrefetcher
from repro.pipeline.cpu import CPU
from repro.trace import TraceBuffer

BASE_Z = 0x1000
BASE_Y = 0x2000
BASE_X = 0x8000


def indirection_program(iterations, levels=3):
    """``for i: X[Y[Z[i]]]`` (or ``Y[Z[i]]`` for levels=2)."""
    asm = Assembler()
    asm.li(1, BASE_Z)
    asm.li(2, BASE_Y)
    asm.li(3, BASE_X)
    asm.li(4, 0)
    asm.li(5, iterations)
    asm.label("loop")
    asm.slli(6, 4, 3)
    asm.add(6, 6, 1)
    asm.load(7, 6, 0)        # z = Z[i]
    asm.slli(8, 7, 3)
    asm.add(8, 8, 2)
    asm.load(9, 8, 0)        # y = Y[z]
    if levels == 3:
        asm.slli(10, 9, 3)
        asm.add(10, 10, 3)
        asm.load(11, 10, 0)  # x = X[y]
    asm.addi(4, 4, 1)
    asm.blt(4, 5, "loop")
    asm.halt()
    return asm.assemble()


def traced_cpu(program, hierarchy, imp):
    """A core recording only ``opt`` events: the IMP emits one per
    prefetch, tagged with its address."""
    return CPU(program, hierarchy, plugins=[imp],
               trace=TraceBuffer(categories=("opt",)))


def prefetched(cpu):
    """Every address the IMP prefetched, read from the core's trace."""
    return {event[5] for event in cpu.trace.events("opt")}


def run_with_imp(iterations=16, levels=3, delta=4, **imp_kwargs):
    memory = FlatMemory(1 << 18)
    for i in range(iterations + 16):
        memory.write(BASE_Z + 8 * i, (i * 3) % 11)
    for j in range(16):
        memory.write(BASE_Y + 8 * j, 100 + ((j * j) % 13))
    hierarchy = MemoryHierarchy(memory, l1=Cache(num_sets=256, ways=4))
    imp = IndirectMemoryPrefetcher(levels=levels, delta=delta,
                                   **imp_kwargs)
    cpu = traced_cpu(indirection_program(iterations, levels), hierarchy,
                     imp)
    cpu.run()
    return cpu, imp, hierarchy


def test_levels_validation():
    with pytest.raises(ValueError):
        IndirectMemoryPrefetcher(levels=1)


def test_four_level_chain_ainsworth_jones_pattern():
    """W[X[Y[Z[i]]]] — the Ainsworth & Jones pattern (Section IV-D2)."""
    base_w = 0x10000
    asm = Assembler()
    asm.li(1, BASE_Z)
    asm.li(2, BASE_Y)
    asm.li(3, BASE_X)
    asm.li(12, base_w)
    asm.li(4, 0)
    asm.li(5, 16)
    asm.label("loop")
    asm.slli(6, 4, 3)
    asm.add(6, 6, 1)
    asm.load(7, 6, 0)        # z = Z[i]
    asm.slli(8, 7, 3)
    asm.add(8, 8, 2)
    asm.load(9, 8, 0)        # y = Y[z]
    asm.slli(10, 9, 3)
    asm.add(10, 10, 3)
    asm.load(11, 10, 0)      # x = X[y]
    asm.slli(13, 11, 3)
    asm.add(13, 13, 12)
    asm.load(14, 13, 0)      # w = W[x]
    asm.addi(4, 4, 1)
    asm.blt(4, 5, "loop")
    asm.halt()
    memory = FlatMemory(1 << 18)
    for i in range(24):
        memory.write(BASE_Z + 8 * i, (i * 3) % 7)
    for j in range(8):
        memory.write(BASE_Y + 8 * j, 10 + ((j * 5) % 11))
    for k in range(24):
        memory.write(BASE_X + 8 * k, 30 + ((k * k) % 13))
    hierarchy = MemoryHierarchy(memory, l1=Cache(num_sets=256, ways=4))
    imp = IndirectMemoryPrefetcher(levels=4, delta=4)
    cpu = traced_cpu(asm.assemble(), hierarchy, imp)
    cpu.run()
    imp.drain()
    # The chained walk reaches the fourth array.
    assert any(base_w <= addr < base_w + 0x1000
               for addr in prefetched(cpu))


def test_stride_detection():
    _cpu, imp, _h = run_with_imp()
    streaming = imp.streaming_pcs()
    assert len(streaming) >= 1      # the Z load streams


def test_links_learned_with_correct_base_and_shift():
    _cpu, imp, _h = run_with_imp()
    links = {(l.base, l.shift) for l in imp.links}
    assert (BASE_Y, 3) in links
    assert (BASE_X, 3) in links


def test_prefetches_run_ahead_of_the_stream():
    cpu, imp, _hierarchy = run_with_imp()
    assert imp.stats["jobs_launched"] > 0
    assert imp.stats["prefetches"] >= 3 * 1
    # At least one prefetch targeted Z ahead of the demand stream.
    assert any(addr >= BASE_Z for addr in prefetched(cpu))


def test_two_level_variant_has_single_link_chain():
    cpu, imp, _h = run_with_imp(levels=2)
    assert imp.stats["jobs_launched"] > 0
    # 2 prefetches per job (Z line + Y line), never an X access.
    assert not any(BASE_X <= addr < BASE_X + 0x1000
                   for addr in prefetched(cpu))


def test_three_level_prefetches_into_x():
    cpu, _imp, _h = run_with_imp(levels=3)
    assert any(BASE_X <= addr < BASE_X + 0x1000
               for addr in prefetched(cpu))


def test_no_bounds_knowledge_out_of_bounds_dereference():
    """Values planted past Z steer the prefetcher anywhere (the URG)."""
    memory = FlatMemory(1 << 18)
    iterations = 12
    for i in range(iterations - 1):
        memory.write(BASE_Z + 8 * i, i % 4)
    secret_addr = 0x2_0000
    memory.write(secret_addr, 7)             # "victim" memory
    # The last in-bounds Z element points far outside Y:
    memory.write(BASE_Z + 8 * (iterations - 1),
                 (secret_addr - BASE_Y) // 8)
    for j in range(8):
        memory.write(BASE_Y + 8 * j, 100 + j)
    hierarchy = MemoryHierarchy(memory, l1=Cache(num_sets=256, ways=4))
    imp = IndirectMemoryPrefetcher(levels=3, delta=4)
    cpu = traced_cpu(indirection_program(iterations), hierarchy, imp)
    cpu.run()
    addrs = prefetched(cpu)
    assert any(hierarchy.l1.line_of(secret_addr) ==
               hierarchy.l1.line_of(addr) for addr in addrs)
    # ... and the dependent X prefetch transmits the secret value 7:
    assert any(hierarchy.l1.line_of(addr) ==
               hierarchy.l1.line_of(BASE_X + 7 * 8)
               for addr in addrs)


def test_solver_rejects_non_power_of_two_scale():
    assert IndirectMemoryPrefetcher._solve(1, 100, 2, 103) is None
    assert IndirectMemoryPrefetcher._solve(1, 100, 3, 116) == (92, 3)


def test_solver_rejects_degenerate_samples():
    assert IndirectMemoryPrefetcher._solve(5, 100, 5, 108) is None
    assert IndirectMemoryPrefetcher._solve(5, 100, 6, 100) is None


def test_out_of_memory_prefetch_aborts_job():
    memory = FlatMemory(1 << 16)
    iterations = 12
    for i in range(iterations + 8):
        memory.write(BASE_Z + 8 * i, i % 4)
    # A wildly out-of-range offset past the demand loop's reach but
    # inside the prefetcher's look-ahead window.
    memory.write(BASE_Z + 8 * (iterations + 1), 1 << 40)
    for j in range(8):
        memory.write(BASE_Y + 8 * j, 100 + j)
    hierarchy = MemoryHierarchy(memory, l1=Cache(num_sets=64, ways=4))
    imp = IndirectMemoryPrefetcher(levels=3, delta=4)
    cpu = CPU(indirection_program(iterations), hierarchy, plugins=[imp])
    cpu.run()     # must not crash
    imp.drain()   # flush in-flight chained walks
    assert imp.stats["out_of_memory_aborts"] >= 1


def test_reset_clears_learned_state():
    _cpu, imp, _h = run_with_imp()
    imp.reset()
    assert imp.links == []
    assert imp.streaming_pcs() == []


def test_forwarded_loads_invisible_to_prefetcher():
    """Store-to-load forwarded accesses never reach the memory system,
    so the IMP must not observe them."""
    asm = Assembler()
    asm.li(1, 0x1000)
    asm.li(2, 42)
    asm.store(2, 1, 0)
    asm.load(3, 1, 0)          # forwarded
    asm.halt()
    memory = FlatMemory(1 << 16)
    hierarchy = MemoryHierarchy(memory, l1=Cache())
    imp = IndirectMemoryPrefetcher()
    cpu = CPU(asm.assemble(), hierarchy, plugins=[imp])
    cpu.run()
    assert cpu.stats.loads_forwarded == 1
    assert imp.streaming_pcs() == []
    assert imp._recent == type(imp._recent)(maxlen=imp._recent.maxlen) \
        or len(imp._recent) == 0
