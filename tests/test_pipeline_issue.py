"""The issue stage does each piece of work once, under both kernels.

* A multiply/divide computes its result only when it issues (on a reuse
  hit or once it finds a free unit), not on every cycle it waits.
* On the fast path, a mul/div waiting for a busy unit no longer forces
  a tick when no plug-in does reuse lookups: the busy unit's writeback
  is on the event wheel, so fast-forward skips the wait.  Under the
  reuse plug-in every waiting cycle is still ticked, because each retry
  is a counted lookup.
* Operand packing is only tried with plug-ins that override
  ``pack_pair``; the fast path's internal pool plug-in never packs.

Every run is also compared with the reference kernel, result for
result.
"""

from repro.engine.specs import HierarchySpec, PluginSpec, SimSpec
from repro.isa.assembler import Assembler
from repro.isa.opcodes import Op
from repro.isa.semantics import ALU_FUNCS
from repro.pipeline.config import CPUConfig
from repro.pipeline.plugins import OptimizationPlugin

#: Cycles the fast path skips on the six-DIV program (out of 100) when
#: every cycle a divide waits for the unit is ticked.
SIX_DIV_SKIPPED_BEFORE = 14

#: Reuse lookups on the six-DIV program: one per DIV per cycle it is
#: ready, the same on both kernels.
SIX_DIV_LOOKUPS = 240


def _divs_spec(count, fastpath, plugins=()):
    asm = Assembler()
    asm.li(1, 1000)
    asm.li(2, 7)
    for index in range(count):
        asm.div(3 + index, 1, 2)
    asm.halt()
    return SimSpec(program=asm.assemble(),
                   config=CPUConfig(num_div_units=1),
                   hierarchy=HierarchySpec(memory_size=1 << 12),
                   plugins=tuple(plugins), fastpath=fastpath,
                   record_regs=tuple(range(3, 3 + count)))


def _run(spec):
    session = spec.build()
    return session, session.run()


def test_each_divide_computes_its_result_once(monkeypatch):
    divide = ALU_FUNCS[Op.DIV]
    calls = []

    def counting(a, b, imm):
        calls.append((a, b))
        return divide(a, b, imm)

    monkeypatch.setitem(ALU_FUNCS, Op.DIV, counting)
    for fastpath in (False, True):
        calls.clear()
        _, result = _run(_divs_spec(6, fastpath))
        assert len(calls) == 6, fastpath
        assert set(result.observations["regs"].values()) == {1000 // 7}


def test_a_waiting_divide_no_longer_stops_fast_forward():
    _, reference = _run(_divs_spec(6, fastpath=False))
    session, fast = _run(_divs_spec(6, fastpath=True))
    assert fast.to_json() == reference.to_json()
    assert fast.cycles == 100
    assert session.cpu.fastpath.cycles_skipped > SIX_DIV_SKIPPED_BEFORE


def test_reuse_lookups_are_unchanged_by_the_wait():
    reuse = (PluginSpec.of("computation-reuse"),)
    _, reference = _run(_divs_spec(6, fastpath=False, plugins=reuse))
    session, fast = _run(_divs_spec(6, fastpath=True, plugins=reuse))
    assert fast.to_json() == reference.to_json()
    for result in (reference, fast):
        lookups = result.observations["plugins"]["computation-reuse"]
        assert lookups["lookups"] == SIX_DIV_LOOKUPS
    # Every waiting cycle is a lookup, so none of them is skipped.
    assert session.cpu.fastpath.cycles_skipped == SIX_DIV_SKIPPED_BEFORE


def test_no_pack_pair_calls_without_a_packing_plugin(monkeypatch):
    calls = []

    def counting(self, first, second):
        calls.append(self)
        return False

    monkeypatch.setattr(OptimizationPlugin, "pack_pair", counting)
    asm = Assembler()
    for index in range(1, 13):   # 12 ready ALU ops, 2 ALU ports
        asm.li(index, index)
    asm.halt()
    spec = SimSpec(program=asm.assemble(),
                   hierarchy=HierarchySpec(memory_size=1 << 12),
                   config=CPUConfig(fetch_width=8, dispatch_width=8))
    _, fast = _run(spec.replace(fastpath=True))
    assert calls == []
    _, reference = _run(spec.replace(fastpath=False))
    assert fast.to_json() == reference.to_json()
    assert fast.stats["issued"] == 12
