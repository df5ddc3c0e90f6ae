"""Precision harness: how many static LEAKS verdicts are real?

The dual of :mod:`repro.lint.soundness`.  Soundness asks "does every
dynamic divergence get flagged?" — the checker may over-approximate,
so passing it says nothing about *usefulness*.  This module measures
the over-approximation: for every statically-flagged ``LEAKS(plugin)``
verdict over a corpus, run the secret-pair differential trial the
soundness harness would run and classify the verdict

* **confirmed** — the plug-in's MLD observably diverged between secret
  variants (with a clean plug-in-free control): a true positive;
* **false positive** — no divergence at this budget: the flag is an
  artifact of the abstraction (usually the implicit-flow rule);
* **discarded** — the *control* diverged, so nothing is attributable
  to the plug-in (baseline timing channels are out of contract scope).

Every trial is linted twice: with the path-sensitive analysis (post-
dominator-scoped control taint, the default) and with the sticky
baseline (``path_sensitive=False`` — control taint poisons everything
after the first tainted branch).  The per-plugin table reports both
false-positive counts side by side; the difference is the measured
value of the post-dominator analysis, and CI pins the path-sensitive
count as a downward ratchet (``--max-false-positives``).

The corpus is the synthesis fuzzer's seeded progen cases (each
optimization's trigger templates + generic fuzz — the programs most
likely to *really* leak) plus the shipped example ``.s`` programs with
their declared secret regions seeded.  A **missed** column (confirmed
but unflagged under the path-sensitive analysis) double-checks that
precision never cost soundness; it must stay zero.
"""

import os
import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro import telemetry
from repro.engine.runner import run_batch
from repro.engine.specs import PluginSpec, SimSpec
from repro.isa.assembler import Program
from repro.isa.text import assemble_file
from repro.lint.checker import lint_program, lint_spec
from repro.lint.contracts import contracted_plugin_names
from repro.lint.perturb import DEFAULT_PATTERNS, secret_variants
from repro.lint.progen import CaseGenerator, GeneratedCase, gated_case
from repro.lint.soundness import control_diverged, plugin_diverged

#: Progen cases per plug-in when no budget is given — small enough for
#: a CI smoke leg, large enough that every trigger template appears.
DEFAULT_BUDGET = 4

#: The shipped example programs, relative to the repository root.
EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                            os.pardir, os.pardir, "examples",
                            "programs")


@dataclass(frozen=True)
class TrialOutcome:
    """One (case, plug-in) verdict-vs-reality classification."""

    case: str
    plugin: str
    source: str                 # "progen" | "example"
    flagged: bool               # path-sensitive LEAKS verdict
    sticky_flagged: bool        # path-blind (sticky) LEAKS verdict
    confirmed: bool             # plug-in MLD diverged dynamically
    baseline_divergent: bool    # control diverged → unattributable

    @property
    def false_positive(self) -> bool:
        return self.flagged and not self.confirmed \
            and not self.baseline_divergent

    @property
    def sticky_false_positive(self) -> bool:
        return self.sticky_flagged and not self.confirmed \
            and not self.baseline_divergent

    @property
    def missed(self) -> bool:
        """Confirmed divergence the path-sensitive analysis did not
        flag — a soundness escape; must never happen."""
        return self.confirmed and not self.flagged

    def to_json_dict(self) -> dict:
        return {"case": self.case, "plugin": self.plugin,
                "source": self.source, "flagged": self.flagged,
                "sticky_flagged": self.sticky_flagged,
                "confirmed": self.confirmed,
                "baseline_divergent": self.baseline_divergent,
                "false_positive": self.false_positive,
                "sticky_false_positive": self.sticky_false_positive,
                "missed": self.missed}


@dataclass
class PrecisionReport:
    """Aggregated classification over the whole corpus."""

    budget: int
    seed: int
    outcomes: tuple = ()

    @property
    def false_positives(self) -> int:
        return sum(1 for out in self.outcomes if out.false_positive)

    @property
    def sticky_false_positives(self) -> int:
        return sum(1 for out in self.outcomes
                   if out.sticky_false_positive)

    @property
    def confirmed(self) -> int:
        return sum(1 for out in self.outcomes if out.confirmed)

    @property
    def missed(self) -> int:
        return sum(1 for out in self.outcomes if out.missed)

    @property
    def ok(self) -> bool:
        """Precision may be imperfect; lost soundness may not."""
        return self.missed == 0

    def per_plugin(self) -> dict[str, dict[str, int]]:
        table: dict[str, dict[str, int]] = {}
        for out in self.outcomes:
            row = table.setdefault(out.plugin, {
                "trials": 0, "flagged": 0, "sticky_flagged": 0,
                "confirmed": 0, "false_positives": 0,
                "sticky_false_positives": 0, "discarded": 0,
                "missed": 0})
            row["trials"] += 1
            row["flagged"] += out.flagged
            row["sticky_flagged"] += out.sticky_flagged
            row["confirmed"] += out.confirmed
            row["false_positives"] += out.false_positive
            row["sticky_false_positives"] += out.sticky_false_positive
            row["discarded"] += out.baseline_divergent
            row["missed"] += out.missed
        return dict(sorted(table.items()))

    def to_json_dict(self) -> dict:
        return {"budget": self.budget, "seed": self.seed,
                "ok": self.ok,
                "false_positives": self.false_positives,
                "sticky_false_positives":
                    self.sticky_false_positives,
                "confirmed": self.confirmed, "missed": self.missed,
                "plugins": self.per_plugin(),
                "outcomes": [out.to_json_dict()
                             for out in self.outcomes]}

    def render(self) -> str:
        header = (f"{'optimization':30s} {'trials':>6s} "
                  f"{'flagged':>7s} {'confirmed':>9s} {'FP':>4s} "
                  f"{'FP(sticky)':>10s} {'missed':>6s}")
        lines = [header, "-" * len(header)]
        for name, row in self.per_plugin().items():
            lines.append(
                f"{name:30s} {row['trials']:>6d} "
                f"{row['flagged']:>7d} {row['confirmed']:>9d} "
                f"{row['false_positives']:>4d} "
                f"{row['sticky_false_positives']:>10d} "
                f"{row['missed']:>6d}")
        lines.append("-" * len(header))
        lines.append(
            f"{'total':30s} {len(self.outcomes):>6d} "
            f"{sum(1 for o in self.outcomes if o.flagged):>7d} "
            f"{self.confirmed:>9d} {self.false_positives:>4d} "
            f"{self.sticky_false_positives:>10d} {self.missed:>6d}")
        saved = self.sticky_false_positives - self.false_positives
        lines.append(
            f"path-sensitive analysis removes {saved} of "
            f"{self.sticky_false_positives} sticky false positives "
            f"({self.false_positives} remain); "
            f"soundness escapes: {self.missed}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------

def _seed_writes(program: Program,
                 rng: random.Random) -> tuple[tuple[int, int, int], ...]:
    """Initial-image writes placing a deterministic value in every
    declared secret byte range (the differential trial XORs exactly
    these bytes, so an unseeded region would perturb nothing)."""
    writes = []
    for start, end in program.secret_regions:
        addr = start
        while addr < end:
            width = min(8, end - addr)
            writes.append((addr, rng.getrandbits(8 * width), width))
            addr += width
    return tuple(writes)


def example_cases(directory: str | None = None,
                  seed: int = 0) -> tuple[GeneratedCase, ...]:
    """The shipped ``.s`` programs as runnable corpus cases."""
    directory = EXAMPLES_DIR if directory is None else directory
    if not os.path.isdir(directory):
        return ()
    cases = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".s"):
            continue
        program = assemble_file(os.path.join(directory, name))
        rng = random.Random(f"precision/{seed}/{name}")
        cases.append(GeneratedCase(
            name=f"example/{name}", program=program,
            mem_writes=_seed_writes(program, rng),
            note="shipped example program"))
    return tuple(cases)


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------

def _flag_sets(case: GeneratedCase, spec: SimSpec,
               opts: Sequence[str]) -> tuple[frozenset, frozenset]:
    """(path-sensitive, sticky) statically-leaking plug-in sets."""
    if case.taint is None:
        scoped = lint_program(case.program, opts=opts,
                              program_name=case.name)
        sticky = lint_program(case.program, opts=opts,
                              program_name=case.name,
                              path_sensitive=False)
    else:
        scoped = lint_spec(spec, opts=opts, program_name=case.name)
        sticky = lint_spec(spec, opts=opts, program_name=case.name,
                           path_sensitive=False)
    return (frozenset(scoped.leaking_plugins()),
            frozenset(sticky.leaking_plugins()))


def check_precision(budget: int = DEFAULT_BUDGET, seed: int = 0,
                    opts: Iterable[str] | None = None,
                    patterns: tuple = DEFAULT_PATTERNS,
                    workers: int = 1, cache: object = None,
                    examples: str | None = None) -> PrecisionReport:
    """Classify every static LEAKS verdict over the corpus.

    ``budget`` progen cases per plug-in (each linted and trialled
    against its own plug-in) plus every example program (linted under
    the full ``opts`` catalog, trialled once per statically-flagged
    plug-in).  All differential cohorts run through one
    :func:`~repro.engine.runner.run_batch` fleet.
    """
    tel = telemetry.REGISTRY
    names = tuple(sorted(opts)) if opts is not None \
        else contracted_plugin_names()
    trials = []          # (case, plugin, source, scoped?, sticky?)
    controls: dict[str, list] = {}
    with tel.phase("lint.precision", "static"):
        for plugin in names:
            for case in CaseGenerator(seed=seed).cases_for(plugin,
                                                           budget):
                spec = case.spec(plugins=(PluginSpec.of(plugin),))
                scoped, sticky = _flag_sets(case, spec, (plugin,))
                trials.append((case, plugin, "progen",
                               plugin in scoped, plugin in sticky))
                controls.setdefault(case.name, secret_variants(
                    case.spec(plugins=(),
                              label=f"{case.name}/control"),
                    patterns))
        gated_rng = random.Random(f"precision/gated/{seed}")
        for index in range(max(1, budget // 2)):
            case = gated_case(gated_rng, index=index)
            for plugin in names:
                spec = case.spec(plugins=(PluginSpec.of(plugin),))
                scoped, sticky = _flag_sets(case, spec, (plugin,))
                trials.append((case, plugin, "gated",
                               plugin in scoped, plugin in sticky))
                controls.setdefault(case.name, secret_variants(
                    case.spec(plugins=(),
                              label=f"{case.name}/control"),
                    patterns))
        for case in example_cases(directory=examples, seed=seed):
            scoped, sticky = _flag_sets(case, case.spec(), names)
            for plugin in sorted(scoped | sticky):
                trials.append((case, plugin, "example",
                               plugin in scoped, plugin in sticky))
                controls.setdefault(case.name, secret_variants(
                    case.spec(plugins=(),
                              label=f"{case.name}/control"),
                    patterns))
    cohorts = [secret_variants(
        case.spec(plugins=(PluginSpec.of(plugin),),
                  label=f"{case.name}/{plugin}"), patterns)
        for case, plugin, *_ in trials]
    fleet = [spec for specs in controls.values() for spec in specs] \
        + [spec for cohort in cohorts for spec in cohort]
    tel.inc("repro_precision_trials_total", len(trials),
            help="Differential precision trials run")
    with tel.phase("lint.precision", "fleet"):
        results = run_batch(fleet, workers=workers, cache=cache)
    control_div = {}
    cursor = 0
    for name, specs in controls.items():
        batch = results[cursor:cursor + len(specs)]
        cursor += len(specs)
        control_div[name] = control_diverged(batch)
    outcomes = []
    for (case, plugin, source, scoped, sticky), cohort in \
            zip(trials, cohorts):
        batch = results[cursor:cursor + len(cohort)]
        cursor += len(cohort)
        outcome = TrialOutcome(
            case=case.name, plugin=plugin, source=source,
            flagged=scoped, sticky_flagged=sticky,
            confirmed=plugin_diverged(batch, plugin),
            baseline_divergent=control_div[case.name])
        if outcome.false_positive:
            tel.inc("repro_precision_false_positives_total",
                    help="Unconfirmed LEAKS verdicts (path-sensitive)",
                    plugin=plugin)
        outcomes.append(outcome)
    return PrecisionReport(budget=budget, seed=seed,
                           outcomes=tuple(outcomes))
