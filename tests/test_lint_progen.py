"""Property suite for the seeded synthesis program generator.

Every case :mod:`repro.lint.progen` can emit — trigger templates and
generic straight-line fuzz, across seeds and budgets — must uphold the
contracts the synthesizer builds on: the program assembles and
round-trips through both serialization boundaries with its ``.secret``
directives intact, it terminates architecturally well inside the trial
cycle ceiling, and it declares at least one secret operand (a case
with no secrets produces a vacuous cohort the fuzzer learns nothing
from).  ``derandomize=True`` keeps the suite deterministic in CI.
"""

from hypothesis import HealthCheck, given, settings

from repro.engine import PluginSpec, SimSpec
from repro.isa import decode_program
from repro.isa.interpreter import run_program
from repro.isa.text import assemble_source, render_source
from repro.lint.progen import (
    CaseGenerator, TRIAL_MAX_CYCLES, TRIGGER_TEMPLATES, generated_cases,
)
from repro.memory.flatmem import FlatMemory

BOUNDED = settings(max_examples=60, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# properties over every generatable case
# ----------------------------------------------------------------------

@BOUNDED
@given(case=generated_cases())
def test_cases_assemble_and_roundtrip_with_directives(case):
    """Wire form and text form both reproduce the program bitwise,
    ``.secret`` / ``.public`` directives included."""
    blob = case.program.encode()
    decoded = decode_program(blob)
    assert decoded.encode() == blob
    assert decoded.secret_regions == case.program.secret_regions
    assert decoded.public_regions == case.program.public_regions
    rendered = render_source(case.program)
    assert assemble_source(rendered).encode() == blob


@BOUNDED
@given(case=generated_cases())
def test_cases_terminate_within_the_trial_limit(case):
    """The golden-model interpreter retires HALT well inside the
    synthesizer's per-trial cycle ceiling — termination is structural
    (loop counters), never ceiling-dependent."""
    memory = FlatMemory()
    for addr, value, width in case.mem_writes:
        memory.write(addr, value, width)
    for addr, data in case.mem_blobs:
        memory.write_bytes(addr, data)
    state = run_program(case.program, memory=memory,
                        regs=dict(case.regs),
                        max_steps=TRIAL_MAX_CYCLES)
    assert state.halted


@BOUNDED
@given(case=generated_cases())
def test_cases_declare_at_least_one_secret_operand(case):
    regions, regs = case.secret_operands()
    assert regions or regs
    for start, end in regions:
        assert end > start >= 0
    assert all(0 < index < 32 for index in regs)


@BOUNDED
@given(case=generated_cases())
def test_cases_never_write_produced_results_to_x0(case):
    """The invariant the signature extractor relies on: the checker
    discards x0 results for any-producing-op rows, and
    ``tainted_tap_pairs`` mirrors that only because generated programs
    never produce into x0."""
    for inst in case.program:
        if inst.op.writes_rd:
            assert inst.rd != 0, case.name


@BOUNDED
@given(case=generated_cases())
def test_case_specs_are_runnable_sim_specs(case):
    control = case.spec()
    cohort = case.spec(plugins=(PluginSpec.of("silent-stores"),))
    assert isinstance(control, SimSpec)
    assert control.plugins == ()
    assert control.label == case.name
    assert cohort.plugins[0].name == "silent-stores"
    assert control.max_cycles == TRIAL_MAX_CYCLES
    # The spec JSON form round-trips (cache keys depend on it).
    assert SimSpec.from_json(control.to_json()).fingerprint() == \
        control.fingerprint()


# ----------------------------------------------------------------------
# the generator itself
# ----------------------------------------------------------------------

def test_generator_is_deterministic_per_seed():
    for plugin in sorted(TRIGGER_TEMPLATES):
        first = CaseGenerator(seed=7).cases_for(plugin, 9)
        again = CaseGenerator(seed=7).cases_for(plugin, 9)
        assert [c.name for c in first] == [c.name for c in again]
        assert [c.program.encode() for c in first] == \
            [c.program.encode() for c in again]
        assert [(c.mem_writes, c.regs) for c in first] == \
            [(c.mem_writes, c.regs) for c in again]


def test_generator_cycles_templates_and_mixes_generic_fuzz():
    for plugin, templates in TRIGGER_TEMPLATES.items():
        budget = len(templates) + 2
        cases = CaseGenerator(seed=0).cases_for(plugin, budget)
        assert len(cases) == budget
        names = [case.name for case in cases]
        assert len(set(names)) == budget        # '#cursor' disambiguates
        assert any(name.startswith("generic/") for name in names)
        # Second pass restarts the template cycle.
        assert names[-1].split("#")[0] == names[0].split("#")[0]


def test_generator_rejects_unknown_plugins():
    import pytest
    with pytest.raises(KeyError):
        CaseGenerator().cases_for("branch-predictor", 4)


def test_every_contracted_plugin_has_trigger_templates():
    from repro.lint.contracts import contracted_plugin_names
    assert set(contracted_plugin_names()) == set(TRIGGER_TEMPLATES)
