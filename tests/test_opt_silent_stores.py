"""Silent stores: the four cases of Figure 4, dequeue behaviour, stats."""

from repro.isa.assembler import Assembler
from repro.memory.cache import Cache
from repro.memory.flatmem import FlatMemory
from repro.memory.hierarchy import MemoryHierarchy
from repro.optimizations.silent_stores import SilentStorePlugin
from repro.pipeline.config import CPUConfig
from repro.pipeline.cpu import CPU


def run(asm, init_mem=(), config=None, plugin=None, num_sets=64):
    mem = FlatMemory(1 << 16)
    for addr, value in init_mem:
        mem.write(addr, value)
    plugin = plugin if plugin is not None else SilentStorePlugin()
    cpu = CPU(asm.assemble(), MemoryHierarchy(mem, l1=Cache(num_sets=num_sets)),
              config=config, plugins=[plugin])
    cpu.run()
    return cpu, plugin


def warm_store(value, addr=0x1000):
    asm = Assembler()
    asm.li(1, addr)
    asm.load(2, 1, 0)       # warm the line so the SS-Load can hit
    asm.li(3, value)
    asm.store(3, 1, 0)
    asm.halt()
    return asm


def test_case_a_matching_store_is_silent():
    cpu, plugin = run(warm_store(42), init_mem=[(0x1000, 42)])
    assert cpu.stats.silent_stores == 1
    assert cpu.stats.stores_performed == 0
    assert plugin.stats["case_a_silent"] == 1
    assert cpu.memory.read(0x1000) == 42


def test_case_b_mismatching_store_performs():
    cpu, plugin = run(warm_store(7), init_mem=[(0x1000, 42)])
    assert cpu.stats.silent_stores == 0
    assert cpu.stats.stores_performed == 1
    assert plugin.stats["case_b_nonsilent"] == 1
    assert cpu.memory.read(0x1000) == 7


def test_case_c_no_free_load_port():
    """With zero load ports for stealing, no store is a candidate."""
    config = CPUConfig(num_load_ports=1)
    asm = Assembler()
    asm.li(1, 0x1000)
    asm.load(2, 1, 0)
    asm.fence()
    # Keep the single load port busy with a stream of loads, then store.
    asm.li(5, 0x2000)
    asm.load(6, 5, 0)
    asm.load(6, 5, 8)
    asm.li(3, 42)
    asm.store(3, 1, 0)
    asm.load(6, 5, 16)
    asm.load(6, 5, 24)
    asm.load(6, 5, 32)
    asm.halt()
    cpu, plugin = run(asm, init_mem=[(0x1000, 42)], config=config)
    # The store matched memory, but if candidacy was denied (case C) it
    # performed anyway — operationally a baseline machine.
    assert plugin.stats["case_c_no_port"] + cpu.stats.silent_stores == 1
    assert cpu.memory.read(0x1000) == 42


def test_case_d_ss_load_miss_never_returns():
    """Store line cold: the (no-allocate) SS-Load misses; not silent."""
    asm = Assembler()
    asm.li(1, 0x1000)     # NOT warmed
    asm.li(3, 42)
    asm.store(3, 1, 0)
    asm.halt()
    cpu, plugin = run(asm, init_mem=[(0x1000, 42)])
    assert cpu.stats.silent_stores == 0
    assert cpu.stats.stores_performed == 1
    assert plugin.stats["case_d_late"] == 1


def test_ss_load_allocates_variant_still_detects():
    """Cold target line: the allocating SS-Load pays a miss but still
    returns in time because the store's data (another cold load) is
    just as slow."""
    asm = Assembler()
    asm.li(1, 0x1000)     # cold line, but the SS-Load allocates
    asm.li(4, 0x5000)
    asm.load(3, 4, 0)     # store data arrives after ~memory latency
    asm.store(3, 1, 0)
    asm.halt()
    plugin = SilentStorePlugin(ss_load_allocates=True)
    cpu, plugin = run(asm, init_mem=[(0x1000, 42), (0x5000, 42)],
                      plugin=plugin)
    assert cpu.stats.silent_stores == 1


def test_ss_load_no_allocate_same_scenario_not_silent():
    """Identical program under the default no-allocate policy: the
    SS-Load misses and never returns, so the store performs."""
    asm = Assembler()
    asm.li(1, 0x1000)
    asm.li(4, 0x5000)
    asm.load(3, 4, 0)
    asm.store(3, 1, 0)
    asm.halt()
    cpu, plugin = run(asm, init_mem=[(0x1000, 42), (0x5000, 42)])
    assert cpu.stats.silent_stores == 0
    assert cpu.stats.stores_performed == 1


def test_consecutive_silent_stores_dequeue_together():
    asm = Assembler()
    asm.li(1, 0x1000)
    asm.load(2, 1, 0)
    asm.load(2, 1, 8)
    asm.load(2, 1, 16)
    asm.fence()
    for index in range(3):
        asm.li(3, index + 1)
        asm.store(3, 1, 8 * index)
    asm.halt()
    init = [(0x1000, 1), (0x1008, 2), (0x1010, 3)]
    cpu, _plugin = run(asm, init_mem=init)
    assert cpu.stats.silent_stores == 3
    assert cpu.stats.stores_performed == 0


def test_narrow_width_comparison():
    """A byte store is silent iff the *byte* matches (IV-C4 narrowing)."""
    asm = Assembler()
    asm.li(1, 0x1000)
    asm.load(2, 1, 0)
    asm.li(3, 0x99)
    asm.store(3, 1, 0, width=1)
    asm.halt()
    cpu, _ = run(asm, init_mem=[(0x1000, 0xFFFF99)])  # low byte 0x99
    assert cpu.stats.silent_stores == 1


def test_architectural_result_is_unchanged_by_silentness():
    for leftover, value in ((5, 5), (5, 9)):
        cpu, _ = run(warm_store(value), init_mem=[(0x1000, leftover)])
        assert cpu.memory.read(0x1000) == value


def test_retry_window_allows_late_port():
    plugin = SilentStorePlugin(retry_cycles=50)
    cpu, plugin = run(warm_store(42), init_mem=[(0x1000, 42)],
                      plugin=plugin)
    assert cpu.stats.silent_stores == 1


def test_idle_cycle_hook_returns_at_once():
    """With nothing pending, ``end_of_cycle`` steals no port and keeps
    its (empty) pending list rather than building a new one."""
    cpu, plugin = run(warm_store(42), init_mem=[(0x1000, 42)])
    pending = plugin._pending
    assert pending == []
    assert plugin.end_of_cycle(2) == 0
    assert plugin._pending is pending
