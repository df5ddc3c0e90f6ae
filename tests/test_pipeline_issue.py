"""The issue stage does each piece of work once, under both kernels.

* A multiply/divide computes its result only when it issues (on a reuse
  hit or once it finds a free unit), not on every cycle it waits.
* A mul/div waiting for a busy unit raises the issue stage's
  blocked-retry signal (``_issue_blocked``, which only the fast path
  reads) only when some plug-in does reuse lookups.  Without one, the
  busy unit's writeback is on the event wheel, so fast-forward skips
  the wait.  Under the reuse plug-in every waiting cycle is still
  ticked, because each retry is a counted lookup.
* A hook is only called on plug-ins that override it: no base-class
  no-op runs (operand packing, for one, is only tried with plug-ins
  that override ``pack_pair``), and ``HOOKS`` names every hook the base
  class defines.

Every run is also compared with the reference kernel, result for
result.
"""

from types import FunctionType

from repro.engine.specs import HierarchySpec, PluginSpec, SimSpec
from repro.isa.assembler import Assembler
from repro.isa.opcodes import Op
from repro.isa.semantics import ALU_FUNCS
from repro.pipeline.config import CPUConfig
from repro.pipeline.plugins import HOOKS, OptimizationPlugin
from tests.spec_catalog import attack_specs

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


def test_hooks_name_every_base_hook():
    defined = {name for name, value in vars(OptimizationPlugin).items()
               if isinstance(value, (FunctionType, property))}
    assert len(set(HOOKS)) == len(HOOKS)
    assert set(HOOKS) == defined - {"__init__", "attach", "reset",
                                    "ff_next_cycle", "trace"}


def _alu_burst_spec():
    """Twelve ready ALU ops against two ALU ports: the packing path
    runs with no packing plug-in attached."""
    asm = Assembler()
    for index in range(1, 13):
        asm.li(index, index)
    asm.halt()
    return SimSpec(program=asm.assemble(),
                   hierarchy=HierarchySpec(memory_size=1 << 12),
                   config=CPUConfig(fetch_width=8, dispatch_width=8))


def test_no_base_hook_is_called(monkeypatch):
    calls = []
    for hook in HOOKS:
        def counting(self, *args, _hook=hook,
                     _base=getattr(OptimizationPlugin, hook)):
            calls.append((type(self).__name__, _hook))
            return _base(self, *args)

        monkeypatch.setattr(OptimizationPlugin, hook, counting)
    specs = {**attack_specs(), "alu-burst": _alu_burst_spec()}
    for name, spec in specs.items():
        _, fast = _run(spec.replace(fastpath=True))
        _, reference = _run(spec.replace(fastpath=False))
        assert calls == [], name
        assert fast.to_json() == reference.to_json(), name
    assert fast.stats["issued"] == 12   # the ALU burst, run last

