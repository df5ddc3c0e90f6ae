"""The issue stage does each piece of work once, under both kernels.

* A multiply/divide computes its result only when it issues (on a reuse
  hit or once it finds a free unit), not on every cycle it waits.
* On the fast path, a mul/div waiting for a busy unit no longer forces
  a tick when no plug-in does reuse lookups: the busy unit's writeback
  is on the event wheel, so fast-forward skips the wait.  Under the
  reuse plug-in every waiting cycle is still ticked, because each retry
  is a counted lookup.
* A hook is only called on plug-ins that override it: no base-class
  no-op runs (operand packing, for one, is only tried with plug-ins
  that override ``pack_pair``; the fast path's pool plug-in never
  packs), and ``HOOKS`` names every hook the base class defines.
* The fast path decodes one template per opcode and choice of which of
  ``rd``, ``rs1`` and ``rs2`` are ``x0``: instructions that differ in
  anything else share it, so the process-wide table stops growing.

Every run is also compared with the reference kernel, result for
result.
"""

from itertools import product
from types import FunctionType

from repro.engine.specs import HierarchySpec, PluginSpec, SimSpec
from repro.isa.assembler import Assembler
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.semantics import ALU_FUNCS
from repro.pipeline.config import CPUConfig
from repro.pipeline.fastpath import _TEMPLATE_CACHE, InstTemplate
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


def _slots(template):
    return {name: getattr(template, name) for name in InstTemplate.__slots__}


def _li_spec(imm):
    asm = Assembler()
    asm.li(1, imm)
    asm.add(2, 1, 1)
    asm.halt()
    return SimSpec(program=asm.assemble(),
                   hierarchy=HierarchySpec(memory_size=1 << 12))


def test_templates_are_keyed_by_opcode_and_x0_operands():
    """Every opcode under every x0/non-x0 choice of rd, rs1 and rs2:
    two instructions that differ in register numbers, immediate, width
    and target share one template, and it decodes both exactly as a
    fresh :class:`InstTemplate` does."""
    cpu = _li_spec(0).build().cpu
    for op, rd, rs1, rs2 in product(Op, (False, True), (False, True),
                                    (False, True)):
        first = Instruction(op=op, rd=3 * rd, rs1=4 * rs1, rs2=5 * rs2,
                            imm=1, width=8, target=None, pc=0)
        second = Instruction(op=op, rd=31 * rd, rs1=17 * rs1,
                             rs2=9 * rs2, imm=-7, width=4, target=2,
                             pc=1)
        template = cpu._template_for(first)
        assert cpu._template_for(second) is template, (op, rd, rs1, rs2)
        for inst in (first, second):
            assert _slots(template) == _slots(InstTemplate(inst)), inst


def test_immediates_do_not_grow_the_template_table():
    _li_spec(0).build().run()
    size = len(_TEMPLATE_CACHE)
    for imm in range(1, 200):
        session = _li_spec(imm).build()
        session.run()
        assert session.cpu.fastpath.template_misses == 0, imm
    assert len(_TEMPLATE_CACHE) == size
