"""Golden contract-synthesis results and the mutation check.

Two layers of pinning:

* **golden learned contracts** — at a fixed seed and budget the fuzzer
  must learn exactly the pinned (op, tap) pairs for ``silent-stores``
  and ``computation-reuse``, and every in-tree plug-in must come back
  SOUND (zero learned-but-undeclared clauses) at the default budget.
  A change in these values means either the simulator's leakage
  surface or the generator's distribution moved — both deliberate,
  reviewable events.
* **the mutation check** — the differ has to *catch* a deliberately
  weakened declaration: with ``store_value`` dropped from the
  silent-stores contract, synthesis must flag a learned-but-undeclared
  gap whose minimized witness re-assembles from source and reproduces
  the divergence when re-run from its serialized spec.  This is the
  end-to-end proof the SOUND verdicts above are not vacuous.
"""

import json

import pytest

from repro.engine import SimSpec, run_batch
from repro.isa.opcodes import Op
from repro.isa.text import assemble_source
from repro.lint.contracts import ContractRow, contracted_plugin_names
from repro.lint.soundness import divergent_plugins, secret_variants
from repro.lint.synthesize import (
    DEFAULT_BUDGET, check_synthesis, report_json, synthesize_all,
)

GOLDEN_SEED = 0
GOLDEN_BUDGET = 10

#: Pinned learned contracts at (GOLDEN_SEED, GOLDEN_BUDGET).
GOLDEN_SILENT_STORES = (
    ("store", "old_memory_value"), ("store", "rs2"))
GOLDEN_COMPUTATION_REUSE = (
    ("div", "rs2"), ("mul", "rs1"), ("mul", "rs2"), ("rem", "rs1"))


# ----------------------------------------------------------------------
# golden learned contracts
# ----------------------------------------------------------------------

def test_silent_stores_learned_contract_is_pinned():
    result = check_synthesis("silent-stores", budget=GOLDEN_BUDGET,
                             seed=GOLDEN_SEED)
    assert result.learned == GOLDEN_SILENT_STORES
    assert result.witnessed == GOLDEN_SILENT_STORES
    # Every declared pair was witnessed — the contract is tight.
    assert result.learned == result.declared
    assert result.unwitnessed == ()
    assert result.ok and not result.vacuous
    assert result.discarded == 0


def test_computation_reuse_learned_contract_is_pinned():
    result = check_synthesis("computation-reuse", budget=GOLDEN_BUDGET,
                             seed=GOLDEN_SEED)
    assert result.learned == GOLDEN_COMPUTATION_REUSE
    assert result.witnessed == GOLDEN_COMPUTATION_REUSE
    # The contract declares all six (op, operand) pairs; the four
    # trigger templates witness four of them.  The single declared row
    # intersects the witnessed set, so nothing is *unwitnessed* — the
    # remaining pairs are the same row seen from its other operands.
    assert len(result.declared) == 6
    assert set(result.learned) < set(result.declared)
    assert result.unwitnessed == ()
    assert result.ok and not result.vacuous


def test_all_plugins_sound_at_default_budget():
    results = synthesize_all(budget=DEFAULT_BUDGET, seed=GOLDEN_SEED)
    assert sorted(results) == sorted(contracted_plugin_names())
    for name, result in results.items():
        assert result.ok, (name, result.undeclared)
        assert not result.vacuous, name
        assert result.unwitnessed == (), name
        assert result.witnessed, name
    payload = report_json(results, budget=DEFAULT_BUDGET,
                          seed=GOLDEN_SEED)
    assert payload["ok"] is True
    json.dumps(payload)                 # report is JSON-serializable


# ----------------------------------------------------------------------
# the mutation check: the differ catches a weakened declaration
# ----------------------------------------------------------------------

WEAKENED_SILENT_STORES = (ContractRow(
    plugin="silent-stores", mld="store_silence",
    ops=frozenset({Op.STORE}), taps=("old_memory_value",)),)


@pytest.fixture(scope="module")
def weakened_result():
    return check_synthesis("silent-stores", budget=GOLDEN_BUDGET,
                           seed=GOLDEN_SEED,
                           declared_rows=WEAKENED_SILENT_STORES)


def test_weakened_declaration_is_flagged(weakened_result):
    assert weakened_result.ok is False
    assert weakened_result.undeclared
    gap = weakened_result.undeclared[0]
    assert gap.kind == "undeclared"
    assert gap.plugin == "silent-stores"
    # The gap names the pair the weakened contract dropped.
    assert ("store", "rs2") in gap.pairs
    # The learned contract still contains the full truth.
    assert set(GOLDEN_SILENT_STORES) <= set(weakened_result.learned)


def test_gap_witness_is_minimized_and_reassembles(weakened_result):
    gap = weakened_result.undeclared[0]
    witness = assemble_source(gap.witness_source)
    # Minimized to the leak's essence: load secret, store it, halt.
    assert len(witness) <= 4
    assert witness.secret_regions
    assert any(inst.op is Op.STORE for inst in witness)
    assert witness[-1].op is Op.HALT


def test_gap_witness_spec_reproduces_the_divergence(weakened_result):
    gap = weakened_result.undeclared[0]
    spec = SimSpec.from_json(gap.witness_spec)
    assert [plugin.name for plugin in spec.plugins] == \
        ["silent-stores"]
    variants = secret_variants(spec)
    assert len(variants) > 1
    results = run_batch(variants)
    diverged = set()
    for result in results[1:]:
        diverged |= divergent_plugins(results[0], result,
                                      enabled=("silent-stores",))
    assert diverged == {"silent-stores"}


# ----------------------------------------------------------------------
# when-clause synthesis: learned kwarg conditions and their mutations
# ----------------------------------------------------------------------

WHEN_BUDGET = 8

#: Pinned learned ``when`` rows at (GOLDEN_SEED, WHEN_BUDGET): every
#: computation-reuse divergence dies when the plug-in is rebuilt with
#: ``variant="sn"``, so the learned condition is ``variant=sv``.
GOLDEN_WHEN_ROWS = (
    ((("div", "rs2"),), (("variant", "sv"),)),
    ((("mul", "rs1"),), (("variant", "sv"),)),
    ((("mul", "rs2"),), (("variant", "sv"),)),
    ((("rem", "rs1"),), (("variant", "sv"),)),
)


def test_learned_when_rows_are_pinned():
    result = check_synthesis("computation-reuse", budget=WHEN_BUDGET,
                             seed=GOLDEN_SEED)
    assert result.ok
    assert tuple((row.pairs, row.when)
                 for row in result.learned_rows) == GOLDEN_WHEN_ROWS
    # Every learned condition matches the declared row's when clause.
    assert result.when_gaps == ()
    assert result.when_loose == ()
    for row in result.learned_rows:
        assert row.cases                # each condition has a witness


def test_when_rows_serialize(capsys):
    from repro.lint.synthesize import render_report
    results = {"computation-reuse": check_synthesis(
        "computation-reuse", budget=WHEN_BUDGET, seed=GOLDEN_SEED)}
    payload = report_json(results, budget=WHEN_BUDGET,
                          seed=GOLDEN_SEED)
    json.dumps(payload)
    rows = payload["plugins"]["computation-reuse"]["learned_rows"]
    assert rows and all(row["when"] == [["variant", "sv"]]
                        for row in rows)
    text = render_report(results)
    assert "only while variant=sv" in text


#: The mutation: the true condition is ``variant=sv`` but the
#: declared contract claims the row only fires under ``variant=sn``.
#: ``when_holds`` deselects the row under the active (sv)
#: construction, so every reuse divergence becomes an ordinary
#: learned-but-undeclared gap — the CI leg fails with a witness.
WEAKENED_WHEN_REUSE = (ContractRow(
    plugin="computation-reuse", mld="reuse_hit",
    ops=frozenset({Op.MUL, Op.DIV, Op.REM}), taps=("rs1", "rs2"),
    when=(("variant", "sn"),), ops_kwarg="ops"),)


@pytest.fixture(scope="module")
def weakened_when_result():
    return check_synthesis("computation-reuse", budget=6,
                           seed=GOLDEN_SEED,
                           declared_rows=WEAKENED_WHEN_REUSE)


def test_weakened_when_clause_is_flagged(weakened_when_result):
    assert weakened_when_result.ok is False
    assert weakened_when_result.undeclared
    gap = weakened_when_result.undeclared[0]
    assert gap.kind == "undeclared"
    assert gap.plugin == "computation-reuse"
    assert ("mul", "rs1") in gap.pairs


def test_weakened_when_witness_runs(weakened_when_result):
    gap = weakened_when_result.undeclared[0]
    witness = assemble_source(gap.witness_source)
    assert witness[-1].op is Op.HALT
    spec = SimSpec.from_json(gap.witness_spec)
    assert [plugin.name for plugin in spec.plugins] == \
        ["computation-reuse"]
    variants = secret_variants(spec)
    results = run_batch(variants)
    diverged = set()
    for result in results[1:]:
        diverged |= divergent_plugins(results[0], result,
                                      enabled=("computation-reuse",))
    assert diverged == {"computation-reuse"}


def test_dropped_when_clause_raises_loose_advisory():
    """A row that fires unconditionally where the learned condition is
    kwarg-dependent is imprecise, not unsound — advisory only."""
    unconditional = (ContractRow(
        plugin="computation-reuse", mld="reuse_hit",
        ops=frozenset({Op.MUL, Op.DIV, Op.REM}), taps=("rs1", "rs2"),
        ops_kwarg="ops"),)
    result = check_synthesis("computation-reuse", budget=6,
                             seed=GOLDEN_SEED,
                             declared_rows=unconditional)
    assert result.ok                    # sound: no gap, no when_gap
    assert result.when_gaps == ()
    (loose,) = result.when_loose
    assert loose.kind == "when_loose"
    assert "variant=sv" in loose.detail
