"""``lint_spec`` memoizes its report on the spec instance.

The memo key is the compiled contract rows, ``program_name`` and
``path_sensitive``.  A memoized report must equal a fresh
``lint_program`` report under every key, a contract edit must lint
again, and no derived, copied or pickled spec may carry a memo.
"""

import copy
import dataclasses
import os
import pickle

import pytest

from tests.spec_catalog import attack_specs

from repro.engine import PluginSpec, SimSpec, TaintSpec
from repro.engine.specs import plugin_factory
from repro.isa.text import assemble_file
from repro.lint import (
    CaseGenerator, LintReport, check_soundness, contracted_plugin_names,
    lint_program, rows_for_names, rows_for_specs,
)
from repro.lint import checker
from repro.lint.precision import EXAMPLES_DIR

#: Every opts choice the memo must keep apart: the spec's own plug-ins,
#: the full catalog, and one plug-in by name.
OPTS = (None, contracted_plugin_names(), ("silent-stores",))


@pytest.fixture
def taint_calls(monkeypatch):
    """Counts the checker's taint analyses: one per program linted."""
    calls = []
    analyze = checker.analyze_taint

    def counting(*args, **kwargs):
        calls.append(args[0])
        return analyze(*args, **kwargs)

    monkeypatch.setattr(checker, "analyze_taint", counting)
    return calls


def fresh_report(spec, opts, program_name, path_sensitive):
    """What ``lint_spec`` must return, linted without a memo."""
    contracts = rows_for_specs(spec.plugins) if opts is None \
        else rows_for_names(opts)
    return lint_program(
        spec.program, contracts=contracts,
        taint=spec.taint if spec.taint is not None else TaintSpec(),
        program_name=program_name or spec.label,
        reg_consts=dict(spec.regs), path_sensitive=path_sensitive)


def gated_spec():
    """The shipped program whose silent-store verdict is CLEAN scoped
    and LEAKS sticky."""
    program = assemble_file(os.path.join(EXAMPLES_DIR, "gated_store.s"))
    return SimSpec(program=program,
                   plugins=(PluginSpec.of("silent-stores"),),
                   label="gated_store")


def corpus():
    """The attack catalog, the gated program (whose scoped and sticky
    reports differ) and one progen case per contracted plug-in."""
    specs = list(attack_specs().values()) + [gated_spec()]
    generator = CaseGenerator(seed=0)
    for plugin in contracted_plugin_names():
        for case in generator.cases_for(plugin, 1):
            specs.append(case.spec(plugins=(PluginSpec.of(plugin),),
                                   label=case.name))
    return specs


def test_memoized_reports_equal_fresh_ones_under_every_key(taint_calls):
    keys = [(opts, name, path_sensitive) for opts in OPTS
            for name in ("", "renamed") for path_sensitive in (True, False)]
    specs = corpus()
    for spec in specs:
        for opts, name, path_sensitive in keys:
            checker.lint_spec(spec, opts=opts, program_name=name,
                              path_sensitive=path_sensitive)
    filled = len(taint_calls)
    for spec in specs:
        for opts, name, path_sensitive in keys:
            got = checker.lint_spec(spec, opts=opts, program_name=name,
                                    path_sensitive=path_sensitive)
            want = fresh_report(spec, opts, name, path_sensitive)
            assert got.to_json_dict() == want.to_json_dict(), \
                (spec.label, opts, name, path_sensitive)
    # The second round hit the memo every time: only the fresh
    # reports ran the analysis.
    assert len(taint_calls) == filled + len(specs) * len(keys)


def scoped_sticky_mismatches():
    """Lint one spec object scoped, sticky and scoped again, the way
    precision's ``_flag_sets`` lints each case; list each lint whose
    report is not the fresh one."""
    spec = gated_spec()
    return [path_sensitive for path_sensitive in (True, False, True)
            if checker.lint_spec(spec, path_sensitive=path_sensitive)
            .to_json_dict()
            != fresh_report(spec, None, "", path_sensitive).to_json_dict()]


def test_scoped_and_sticky_lints_of_one_spec_stay_distinct():
    spec = gated_spec()
    assert checker.lint_spec(spec).ok
    assert not checker.lint_spec(spec, path_sensitive=False).ok
    assert scoped_sticky_mismatches() == []


def test_the_scoped_sticky_check_catches_a_key_without_path_sensitivity(
        monkeypatch):
    """Committed mutant: a memo keyed without ``path_sensitive`` hands
    whichever report a spec got first to the other analysis, so the
    sticky lint of the gated spec comes back CLEAN."""
    lint_spec = checker.lint_spec
    first = {}

    def keyed_without_path_sensitivity(spec, opts=None, program_name="",
                                       path_sensitive=True):
        path_sensitive = first.setdefault(id(spec), path_sensitive)
        return lint_spec(spec, opts=opts, program_name=program_name,
                         path_sensitive=path_sensitive)

    monkeypatch.setattr(checker, "lint_spec",
                        keyed_without_path_sensitivity)
    assert scoped_sticky_mismatches() == [False]


def test_a_contract_edit_lints_again(monkeypatch):
    spec = attack_specs()["bsaes"]
    assert checker.lint_spec(spec).leaking_plugins() == ["silent-stores"]
    factory = plugin_factory("silent-stores")
    monkeypatch.setattr(factory, "LINT_CONTRACT",
                        dict(factory.LINT_CONTRACT, rows=()))
    report = checker.lint_spec(spec)
    assert report.ok and report.contracts == ()
    monkeypatch.undo()
    assert checker.lint_spec(spec).leaking_plugins() == ["silent-stores"]


def test_one_spec_over_eight_pattern_triples_lints_once(taint_calls):
    spec = attack_specs()["compsimp"]
    for triple in range(8):
        patterns = tuple(range(3 * triple + 1, 3 * triple + 4))
        assert check_soundness(spec, patterns=patterns).ok
    assert taint_calls == [spec.program]


def test_derived_copied_and_unpickled_specs_carry_no_memo(taint_calls):
    spec = attack_specs()["reuse"]
    digest = spec.fingerprint()
    report = checker.lint_spec(spec)
    fields = {f.name for f in dataclasses.fields(SimSpec)}
    others = (spec.replace(), copy.copy(spec),
              pickle.loads(pickle.dumps(spec)))
    for other in others:
        assert set(vars(other)) == fields
        assert other.fingerprint() == digest
    for other in others:
        assert checker.lint_spec(other).to_json_dict() == \
            report.to_json_dict()
    assert len(taint_calls) == 1 + len(others)


def test_a_lint_report_is_immutable():
    report = checker.lint_spec(attack_specs()["bsaes"])
    assert isinstance(report, LintReport)
    assert type(report.instructions) is tuple
    assert type(report.findings) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.findings = ()
