"""Contract synthesis: learn leakage contracts, diff against declared.

The soundness harness (:mod:`repro.lint.soundness`) can only *check*
the hand-written ``LINT_CONTRACT`` each optimization ships.  This
module inverts the direction, following the leakage-contract-synthesis
line of work (arXiv 2401.09383, 2402.00641): infer each plug-in's
contract from the simulator itself and diff it against the declaration.

Observation
    For every generated case (:mod:`repro.lint.progen`) the plug-in
    runs twice over a secret-pair cohort built by the shared
    perturbation helper (:mod:`repro.lint.perturb`): once with *no*
    plug-ins (the control) and once with exactly the plug-in under
    study.  A case where the control itself diverges is discarded —
    its divergence belongs to the baseline machine (cache addressing,
    port contention on secret-dependent paths), not to the plug-in's
    MLD.  A case where only the plug-in cohort diverges is a genuine
    dynamic leak observation.

Generalization
    Each observed leak is abstracted to the case's *static leakage
    signature* — the canonical ``(op, tap)`` pairs through which a
    secret can reach an operand (:func:`repro.lint.checker.
    tainted_tap_pairs`), the same vocabulary contract rows compile to
    (:func:`repro.lint.contracts.row_pairs`).  The learned contract is
    the union of signatures over divergent observations, intersected
    against the declared pair set.

``when``-clause learning
    Divergent, explained observations are then re-fuzzed under every
    ablated construction the descriptor's ``"domains"`` declare
    (:func:`repro.lint.contracts.when_candidates`): a kwarg condition
    whose ablation *kills* the divergence is learned as a minimal
    ``when`` clause for the signature.  A divergence that *persists*
    under an ablation must still be covered by a declared row that is
    selected under the ablated construction — otherwise the declared
    contract is conditional on something reality is not, which is a
    soundness gap carrying a runnable minimized witness under the
    ablated construction.

Diff
    * **learned-but-undeclared** — a divergent observation whose
      signature shares *no* pair with the declared contract: the
      checker could never have flagged this program, so the soundness
      harness has a blind spot.  Each such gap carries a
      delta-minimized witness program (+ a runnable spec) that still
      reproduces the divergence with a clean control.  Declared rows
      are filtered by their ``when`` conditions against the *active*
      construction first, so a declaration weakened to a condition
      that does not hold surfaces here, with a witness.
    * **when-undeclared** — the persists-under-ablation case above:
      fails the run like an undeclared pair.
    * **when-loose** — a condition was learned necessary, but the
      covering declared row fires unconditionally: not unsound, but
      the lint layer over-flags constructions that cannot leak.
      Advisory, like unwitnessed rows.
    * **declared-but-never-witnessed** — a declared row none of whose
      pairs intersects any divergent observation at this budget: not
      unsound, but unexercised (the lint layer may over-flag).

``check_synthesis`` mirrors ``soundness.check_soundness`` (one
plug-in), ``synthesize_all`` sweeps every contracted plug-in, and the
``python -m repro synthesize`` CLI renders or archives the report.
All batches go through :func:`repro.engine.runner.run_batch`, and
results — hence learned contracts and witnesses — are bitwise
identical across backends.
"""

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro import telemetry
from repro.engine.runner import run_batch
from repro.engine.specs import PluginSpec, SimSpec
from repro.isa.assembler import Program
from repro.isa.opcodes import Op
from repro.isa.text import render_source
from repro.lint.checker import tainted_tap_pairs
from repro.lint.contracts import ContractRow, LintError, WhenCandidate, \
    contract_defaults, contract_rows, contracted_plugin_names, \
    display_value, row_pairs, when_candidates, when_holds
from repro.lint.perturb import DEFAULT_PATTERNS, secret_variants
from repro.lint.progen import CaseGenerator, GeneratedCase
from repro.lint.soundness import control_diverged, plugin_diverged
from repro.pipeline.cpu import SimulationError

#: Cases generated per plug-in when no budget is given — enough for
#: every trigger template to appear at least once plus generic fuzz.
DEFAULT_BUDGET = 10

#: A batch runner: specs in, results in the same order out.
Runner = Callable[[Sequence[SimSpec]], Sequence]


@dataclass(frozen=True)
class Observation:
    """One generated case's differential outcome."""

    case: str                   # generated-case name
    divergent: bool             # plug-in cohort diverged
    baseline_divergent: bool    # control cohort diverged → discarded
    explained: bool             # signature ∩ declared ≠ ∅
    signature: tuple            # sorted (op, tap) pairs
    note: str = ""

    def to_json_dict(self) -> dict:
        return {"case": self.case, "divergent": self.divergent,
                "baseline_divergent": self.baseline_divergent,
                "explained": self.explained,
                "signature": [list(pair) for pair in self.signature],
                "note": self.note}


@dataclass(frozen=True)
class ContractGap:
    """One learned-vs-declared discrepancy."""

    kind: str       # "undeclared" | "unwitnessed" | "when_undeclared"
    plugin: str     # | "when_loose"
    pairs: tuple                # sorted (op, tap) pairs
    case: str = ""              # originating case (undeclared gaps)
    detail: str = ""
    witness_source: str = ""    # minimized witness program (.s text)
    witness_spec: str = ""      # runnable SimSpec JSON (baseline)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "plugin": self.plugin,
                "pairs": [list(pair) for pair in self.pairs],
                "case": self.case, "detail": self.detail,
                "witness_source": self.witness_source,
                "witness_spec": self.witness_spec}


@dataclass(frozen=True)
class LearnedRow:
    """A signature plus the kwarg conditions learned necessary for it.

    The dynamic dual of a declared conditional row: ``pairs`` leak
    only while every ``when`` condition holds of the construction —
    each was verified by an ablation run where dropping exactly that
    condition's support killed the divergence.
    """

    plugin: str
    pairs: tuple                # sorted (op, tap) pairs (∩ declared)
    when: tuple                 # sorted (kwarg, value) conditions
    cases: tuple = ()           # contributing case names

    def to_json_dict(self) -> dict:
        return {"plugin": self.plugin,
                "pairs": [list(pair) for pair in self.pairs],
                "when": [[kwarg, display_value(value)]
                         for kwarg, value in self.when],
                "cases": list(self.cases)}


@dataclass
class SynthesisResult:
    """Learned-vs-declared contract diff for one plug-in."""

    plugin: str
    budget: int
    seed: int
    declared: tuple             # sorted declared (op, tap) pairs
    learned: tuple              # sorted learned (op, tap) pairs
    witnessed: tuple            # declared pairs seen leaking
    undeclared: tuple = ()      # ContractGap (soundness blind spots)
    unwitnessed: tuple = ()     # ContractGap (precision gaps)
    observations: tuple = ()
    discarded: int = 0          # control-divergent cases dropped
    learned_rows: tuple = ()    # LearnedRow (kwarg-conditional)
    when_gaps: tuple = ()       # ContractGap kind="when_undeclared"
    when_loose: tuple = ()      # ContractGap kind="when_loose"

    @property
    def ok(self) -> bool:
        """No learned-but-undeclared clause and no condition the
        declared contract hangs on that reality ignores — the
        declaration explains every divergence the fuzzer found,
        under the declared construction and under every ablation."""
        return not self.undeclared and not self.when_gaps

    @property
    def vacuous(self) -> bool:
        """True when no case diverged (nothing was demonstrable)."""
        return not any(obs.divergent and not obs.baseline_divergent
                       for obs in self.observations)

    def to_json_dict(self) -> dict:
        return {
            "plugin": self.plugin, "budget": self.budget,
            "seed": self.seed, "ok": self.ok, "vacuous": self.vacuous,
            "declared": [list(pair) for pair in self.declared],
            "learned": [list(pair) for pair in self.learned],
            "witnessed": [list(pair) for pair in self.witnessed],
            "undeclared": [gap.to_json_dict()
                           for gap in self.undeclared],
            "unwitnessed": [gap.to_json_dict()
                            for gap in self.unwitnessed],
            "observations": [obs.to_json_dict()
                             for obs in self.observations],
            "discarded": self.discarded,
            "learned_rows": [row.to_json_dict()
                             for row in self.learned_rows],
            "when_gaps": [gap.to_json_dict()
                          for gap in self.when_gaps],
            "when_loose": [gap.to_json_dict()
                           for gap in self.when_loose],
        }


# ----------------------------------------------------------------------
# witness minimization
# ----------------------------------------------------------------------

def _without_instruction(program: Program, index: int) -> Program:
    """``program`` with instruction ``index`` deleted: pcs renumbered,
    branch targets shifted across the gap (a branch *to* the deleted
    instruction lands on its successor)."""
    instructions = []
    for pc, inst in enumerate(program):
        if pc == index:
            continue
        target = inst.target
        if target is not None and target > index:
            target -= 1
        instructions.append(type(inst)(
            op=inst.op, rd=inst.rd, rs1=inst.rs1, rs2=inst.rs2,
            imm=inst.imm, width=inst.width, target=target,
            pc=len(instructions)))
    return Program(instructions, {},
                   secret_regions=program.secret_regions,
                   public_regions=program.public_regions)


def _case_with_program(case: GeneratedCase,
                       program: Program) -> GeneratedCase:
    return GeneratedCase(
        name=case.name, program=program, mem_writes=case.mem_writes,
        mem_blobs=case.mem_blobs, regs=case.regs, taint=case.taint,
        hierarchy=case.hierarchy, max_cycles=case.max_cycles,
        note=case.note)


def _case_cohorts(case: GeneratedCase, plugin_spec: PluginSpec,
                  patterns: tuple) -> tuple[list, list]:
    """(control variants, plug-in variants) for one case."""
    control = secret_variants(
        case.spec(plugins=(), label=f"{case.name}/control"), patterns)
    cohort = secret_variants(
        case.spec(plugins=(plugin_spec,), label=case.name), patterns)
    return control, cohort


def _reproduces(case: GeneratedCase, plugin_spec: PluginSpec,
                patterns: tuple, runner: Runner) -> bool:
    """Divergent under the plug-in AND clean under the control.

    A deletion candidate that no longer halts (deleted loop counter)
    simply fails to reproduce — it is rejected, not an error."""
    control, cohort = _case_cohorts(case, plugin_spec, patterns)
    try:
        results = runner(control + cohort)
    except SimulationError:
        return False
    control_res = results[:len(control)]
    cohort_res = results[len(control):]
    if control_diverged(control_res):
        return False
    return plugin_diverged(cohort_res, plugin_spec.name)


def minimize_witness(case: GeneratedCase, plugin_spec: PluginSpec,
                     patterns: tuple = DEFAULT_PATTERNS,
                     runner: Runner | None = None) -> GeneratedCase:
    """Delta-minimize a divergent case: greedily delete instructions
    while the plug-in cohort still diverges and the control stays
    clean.  HALT is never deleted (termination stays structural, not
    ceiling-dependent).  Deterministic: first-deletable-wins, restart
    after every successful deletion until a fixpoint."""
    runner = runner or (lambda specs: run_batch(specs))
    tel = telemetry.REGISTRY
    current = case
    changed = True
    with tel.phase("lint.synthesize", "minimize"):
        while changed and len(current.program) > 1:
            changed = False
            for index, inst in enumerate(current.program):
                if inst.op is Op.HALT:
                    continue
                candidate = _case_with_program(
                    current,
                    _without_instruction(current.program, index))
                tel.inc("repro_synthesis_minimize_steps_total",
                        help="Deletion candidates tried by witness "
                             "minimization", plugin=plugin_spec.name)
                if _reproduces(candidate, plugin_spec, patterns,
                               runner):
                    current = candidate
                    changed = True
                    break
    return current


# ----------------------------------------------------------------------
# when-clause learning
# ----------------------------------------------------------------------

def _ablated_plugin_spec(plugin: str,
                         candidate: WhenCandidate,
                         ) -> PluginSpec | None:
    """The plug-in spec for an ablated construction, or ``None`` when
    the construction is invalid (e.g. an op-set kwarg ablated empty —
    the plug-in cannot be built, so the axis is trivially a
    condition)."""
    try:
        spec = PluginSpec.of(plugin, **candidate.construction())
        spec.build()
        return spec
    except (ValueError, TypeError, LintError):
        return None


def _rows_under(plugin: str, candidate: WhenCandidate,
                declared_rows: tuple[ContractRow, ...] | None,
                defaults: Mapping) -> tuple[ContractRow, ...]:
    """The declared rows that apply under ``candidate``'s ablated
    construction — recompiled from the descriptor, or (for the
    mutation hook's direct rows) re-filtered by their ``when``."""
    construction = candidate.construction()
    if declared_rows is None:
        try:
            return contract_rows(PluginSpec.of(plugin, **construction))
        except LintError:
            return ()
    return tuple(row for row in declared_rows
                 if when_holds(row.when, construction, defaults,
                               plugin))


def _learn_when(plugin: str, plugin_spec: PluginSpec,
                study: dict[frozenset, GeneratedCase],
                declared_rows: tuple[ContractRow, ...] | None,
                active_rows: tuple[ContractRow, ...],
                declared: frozenset, patterns: tuple, runner: Runner,
                minimize: bool,
                ) -> tuple[tuple, tuple, tuple]:
    """Ablation study over explained divergent signatures.

    Returns ``(learned_rows, when_gaps, when_loose)`` — see the module
    docstring.  One cohort runs per (ablation axis × distinct
    signature); everything is batched through one ``runner`` call.
    """
    tel = telemetry.REGISTRY
    candidates = when_candidates(plugin_spec)
    if not candidates or not study:
        return (), (), ()
    defaults = contract_defaults(plugin)
    ordered = sorted(study.items(),
                     key=lambda item: tuple(sorted(item[0])))
    jobs = []
    conditions: dict[frozenset, list] = {}
    for candidate in candidates:
        ablated_spec = _ablated_plugin_spec(plugin, candidate)
        if ablated_spec is None:
            # Unbuildable ablation: the plug-in cannot exist without
            # this clause, so it is necessary for every signature.
            for sig, _ in ordered:
                conditions.setdefault(sig, []).append(
                    candidate.condition)
            continue
        for sig, case in ordered:
            label = f"{case.name}/when/{candidate.kwarg}"
            cohort = secret_variants(
                case.spec(plugins=(ablated_spec,), label=label),
                patterns)
            jobs.append((candidate, ablated_spec, sig, case, cohort))
    gaps: list[ContractGap] = []
    if jobs:
        with tel.phase("lint.synthesize", "ablate"):
            results = runner([spec for *_, cohort in jobs
                              for spec in cohort])
        tel.inc("repro_synthesis_ablations_total", len(jobs),
                help="Ablated re-fuzz cohorts run by when-clause "
                     "synthesis", plugin=plugin)
        cursor = 0
        for candidate, ablated_spec, sig, case, cohort in jobs:
            cohort_res = results[cursor:cursor + len(cohort)]
            cursor += len(cohort)
            if not plugin_diverged(cohort_res, plugin):
                conditions.setdefault(sig, []).append(
                    candidate.condition)
                continue
            # The leak persists without this clause's support: some
            # declared row must still apply under the ablation.
            ablated_rows = _rows_under(plugin, candidate,
                                       declared_rows, defaults)
            covered = frozenset()
            for row in ablated_rows:
                covered |= row_pairs(row)
            if sig & covered:
                continue
            witness = minimize_witness(
                case, ablated_spec, patterns=patterns,
                runner=runner) if minimize else case
            gaps.append(ContractGap(
                kind="when_undeclared", plugin=plugin,
                pairs=tuple(sorted(sig)), case=case.name,
                detail=(f"still diverges under "
                        f"{candidate.describe()} but no declared row "
                        f"applies to that construction"),
                witness_source=render_source(witness.program),
                witness_spec=witness.spec(
                    plugins=(ablated_spec,),
                    label=f"{case.name}/when-witness").to_json()))
    # Aggregate learned conditional rows + flag loose declared rows.
    merged: dict[tuple, LearnedRow] = {}
    loose: list[ContractGap] = []
    loose_seen = set()
    for sig, case in ordered:
        conds = tuple(sorted(
            set(conditions.get(sig, ())),
            key=lambda cond: (cond[0], display_value(cond[1]))))
        if not conds:
            continue
        pairs = tuple(sorted(sig & declared))
        key = (pairs, conds)
        if key in merged:
            merged[key] = LearnedRow(
                plugin=plugin, pairs=pairs, when=conds,
                cases=merged[key].cases + (case.name,))
        else:
            merged[key] = LearnedRow(plugin=plugin, pairs=pairs,
                                     when=conds, cases=(case.name,))
        covering = [row for row in active_rows
                    if row_pairs(row) & sig]
        for kwarg, value in conds:
            for row in covering:
                if kwarg in dict(row.when) or row.ops_kwarg == kwarg:
                    continue
                loose_key = (kwarg, tuple(sorted(row_pairs(row))))
                if loose_key in loose_seen:
                    continue
                loose_seen.add(loose_key)
                loose.append(ContractGap(
                    kind="when_loose", plugin=plugin,
                    pairs=tuple(sorted(row_pairs(row) & sig)),
                    case=case.name,
                    detail=(f"row fires unconditionally but the "
                            f"observed leak needs "
                            f"{kwarg}={display_value(value)}")))
    return tuple(merged.values()), tuple(gaps), tuple(loose)


# ----------------------------------------------------------------------
# the synthesis pass
# ----------------------------------------------------------------------

def check_synthesis(plugin: str, budget: int = DEFAULT_BUDGET,
                    seed: int = 0,
                    patterns: tuple = DEFAULT_PATTERNS,
                    workers: int = 1, cache: object = None,
                    declared_rows: tuple[ContractRow, ...]
                    | None = None,
                    minimize: bool = True,
                    learn_when: bool = True) -> SynthesisResult:
    """Differential contract synthesis for one plug-in.

    Generates ``budget`` cases, runs control + plug-in secret-pair
    cohorts through the engine in one batch, abstracts every
    attributable divergence to its static leakage signature, and diffs
    learned vs declared pairs.
    Explained divergences are then re-fuzzed under the descriptor's
    ``"domains"`` ablations to learn minimal ``when`` conditions
    (``learn_when=False`` skips that study).

    ``declared_rows`` substitutes the compiled contract rows — the
    mutation hook the golden suite uses to prove the differ catches a
    deliberately weakened declaration.  Rows whose ``when`` conditions
    do not hold under the plug-in's *active* construction are dropped
    before diffing, exactly as descriptor compilation would drop them.
    ``minimize=False`` skips witness minimization (faster, e.g. for CI
    smoke budgets).
    """
    tel = telemetry.REGISTRY
    plugin_spec = PluginSpec.of(plugin)
    defaults = contract_defaults(plugin)
    active_kwargs = dict(defaults)
    active_kwargs.update(dict(plugin_spec.kwargs))
    rows = contract_rows(plugin_spec) if declared_rows is None \
        else tuple(row for row in declared_rows
                   if when_holds(row.when, active_kwargs, defaults,
                                 plugin))
    declared = frozenset()
    for row in rows:
        declared |= row_pairs(row)
    with tel.phase("lint.synthesize", "generate"):
        cases = CaseGenerator(seed=seed).cases_for(plugin, budget)
        batches = [(case, *_case_cohorts(case, plugin_spec, patterns))
                   for case in cases]
        fleet = [spec for _, control, cohort in batches
                 for spec in control + cohort]
    tel.inc("repro_synthesis_cases_total", len(cases),
            help="Generated differential cases per plug-in",
            plugin=plugin)
    with tel.phase("lint.synthesize", "fleet"):
        results = run_batch(fleet, workers=workers, cache=cache)

    def runner(specs: Sequence[SimSpec]) -> Sequence:
        return run_batch(specs, workers=workers, cache=cache)

    observations = []
    witnessed = set()
    undeclared = []
    study: dict[frozenset, GeneratedCase] = {}
    discarded = 0
    cursor = 0
    for case, control, cohort in batches:
        control_res = results[cursor:cursor + len(control)]
        cursor += len(control)
        cohort_res = results[cursor:cursor + len(cohort)]
        cursor += len(cohort)
        baseline_div = control_diverged(control_res)
        divergent = plugin_diverged(cohort_res, plugin)
        spec = cohort[0]
        signature = tainted_tap_pairs(case.program, taint=spec.taint,
                                      reg_consts=dict(spec.regs))
        explained = bool(signature & declared)
        observations.append(Observation(
            case=case.name, divergent=divergent,
            baseline_divergent=baseline_div,
            explained=explained,
            signature=tuple(sorted(signature)), note=case.note))
        if baseline_div:
            discarded += 1
            continue
        if not divergent:
            continue
        tel.inc("repro_synthesis_divergences_total",
                help="Attributable plug-in divergences found by "
                     "synthesis", plugin=plugin)
        if explained:
            witnessed |= signature & declared
            study.setdefault(signature, case)
            continue
        # Learned-but-undeclared: the checker could never flag this.
        witness = minimize_witness(case, plugin_spec,
                                   patterns=patterns, runner=runner) \
            if minimize else case
        witness_sig = tainted_tap_pairs(
            witness.program, taint=witness.taint,
            reg_consts=dict(witness.regs))
        undeclared.append(ContractGap(
            kind="undeclared", plugin=plugin,
            pairs=tuple(sorted(witness_sig)), case=case.name,
            detail=case.note,
            witness_source=render_source(witness.program),
            witness_spec=witness.spec(
                plugins=(plugin_spec,),
                label=f"{case.name}/witness").to_json()))

    learned_rows: tuple = ()
    when_gaps: tuple = ()
    when_loose: tuple = ()
    if learn_when:
        learned_rows, when_gaps, when_loose = _learn_when(
            plugin, plugin_spec, study, declared_rows, rows, declared,
            patterns, runner, minimize)
    unwitnessed = tuple(
        ContractGap(kind="unwitnessed", plugin=plugin,
                    pairs=tuple(sorted(row_pairs(row))),
                    detail=row.detail)
        for row in rows if not (row_pairs(row) & witnessed))
    learned = set(witnessed)
    for gap in undeclared:
        learned |= set(gap.pairs)
    return SynthesisResult(
        plugin=plugin, budget=budget, seed=seed,
        declared=tuple(sorted(declared)),
        learned=tuple(sorted(learned)),
        witnessed=tuple(sorted(witnessed)),
        undeclared=tuple(undeclared), unwitnessed=unwitnessed,
        observations=tuple(observations), discarded=discarded,
        learned_rows=learned_rows, when_gaps=when_gaps,
        when_loose=when_loose)


def synthesize_all(opts: Iterable[str] | None = None,
                   budget: int = DEFAULT_BUDGET, seed: int = 0,
                   patterns: tuple = DEFAULT_PATTERNS,
                   workers: int = 1, cache: object = None,
                   minimize: bool = True, learn_when: bool = True,
                   ) -> dict[str, SynthesisResult]:
    """Contract synthesis for every contracted plug-in (or ``opts``).

    Returns ``{plugin: SynthesisResult}`` in sorted name order.
    """
    names = tuple(opts) if opts is not None \
        else contracted_plugin_names()
    return {name: check_synthesis(
        name, budget=budget, seed=seed, patterns=patterns,
        workers=workers, cache=cache, minimize=minimize,
        learn_when=learn_when)
        for name in sorted(names)}


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def report_json(results: Mapping[str, SynthesisResult],
                budget: int | None = None,
                seed: int | None = None) -> dict:
    """Machine-readable report over ``{plugin: SynthesisResult}``."""
    payload = {
        "plugins": {name: result.to_json_dict()
                    for name, result in sorted(results.items())},
        "ok": all(result.ok for result in results.values()),
    }
    if budget is not None:
        payload["budget"] = budget
    if seed is not None:
        payload["seed"] = seed
    return payload


def render_report(results: Mapping[str, SynthesisResult]) -> str:
    """The learned-vs-declared status table for a result mapping."""
    header = (f"{'optimization':30s} {'declared':>8s} {'learned':>8s} "
              f"{'witnessed':>9s} {'gaps':>5s} {'unwit.':>6s} "
              f"{'when':>5s} {'verdict':>8s}")
    lines = [header, "-" * len(header)]
    for name, result in sorted(results.items()):
        verdict = "SOUND" if result.ok else "GAP"
        if result.ok and result.vacuous:
            verdict = "VACUOUS"
        lines.append(
            f"{name:30s} {len(result.declared):>8d} "
            f"{len(result.learned):>8d} {len(result.witnessed):>9d} "
            f"{len(result.undeclared) + len(result.when_gaps):>5d} "
            f"{len(result.unwitnessed):>6d} "
            f"{len(result.learned_rows):>5d} {verdict:>8s}")
    for name, result in sorted(results.items()):
        for row in result.learned_rows:
            conds = ", ".join(f"{kwarg}={display_value(value)}"
                              for kwarg, value in row.when)
            lines.append(f"  when {name}: {list(row.pairs)} "
                         f"only while {conds}")
        for gap in result.when_loose:
            lines.append(f"  loose {name}: {gap.detail}")
    gaps = [(name, gap) for name, result in sorted(results.items())
            for gap in result.undeclared + result.when_gaps]
    for name, gap in gaps:
        lines.append("")
        label = "LEARNED-BUT-UNDECLARED" if gap.kind == "undeclared" \
            else "WHEN-UNDECLARED"
        lines.append(f"{label} {name} "
                     f"(case {gap.case}): pairs {list(gap.pairs)}")
        if gap.detail:
            lines.append(f"  {gap.detail}")
        lines.append("minimized witness:")
        lines.extend("    " + line
                     for line in gap.witness_source.splitlines())
    return "\n".join(lines)
