"""Differential soundness validation: dynamic divergence ⊆ static flags.

The checker's claim is *no false negatives*: if running a spec with two
different secrets makes any enabled optimization behave observably
differently (its MLD diverges), the checker must have flagged that
optimization on the program.  This module closes the loop:

1. :func:`~repro.lint.perturb.secret_variants` (the perturbation
   helper shared with :mod:`repro.lint.synthesize`) derives
   secret-pair specs by XOR-perturbing exactly the bytes the taint
   seed calls secret — everything else (program, geometry, seeds,
   public inputs) is held fixed, so any observable difference is
   attributable to the secret;
2. the variants run through :func:`repro.engine.runner.run_batch`
   (cache-friendly, deterministic);
3. :func:`divergent_plugins` compares per-plug-in observation stats
   and cycle counts between runs (:func:`control_diverged` and
   :func:`plugin_diverged` ask the same of a whole variant cohort, for
   the precision and synthesis harnesses);
4. :func:`check_soundness` asserts the divergent set is a subset of
   the statically flagged set.

A spec whose variants never diverge passes vacuously — that is the
checker being *allowed* to over-approximate (flagging is permitted;
missing is not).
"""

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro import telemetry
from repro.engine.cache import ResultCache
from repro.engine.session import RunResult
from repro.engine.specs import SimSpec
from repro.engine.runner import run_batch
from repro.lint.checker import lint_spec
from repro.lint.perturb import (
    DEFAULT_PATTERNS, secret_regions_of, secret_variants,
)

__all__ = [
    "DEFAULT_PATTERNS", "SoundnessResult", "check_soundness",
    "control_diverged", "divergent_plugins", "plugin_diverged",
    "secret_regions_of", "secret_variants",
]


def divergent_plugins(result_a: RunResult, result_b: RunResult,
                      enabled: Iterable[str] = ()) -> set[str]:
    """Plug-in names whose dynamic behaviour differs between two runs.

    Per-plug-in observation stats are the MLD outcome counters the
    plug-ins maintain (silent vs non-silent cases, reuse hits, squash
    counts, packs, credits...).  A cycle-count difference with
    identical per-plug-in stats is still attributed to every enabled
    optimization: the timing *is* the observable, and on the
    single-plug-in attack specs the attribution is exact.
    """
    stats_a = result_a.observations.get("plugins", {})
    stats_b = result_b.observations.get("plugins", {})
    names = set(stats_a) | set(stats_b) | set(enabled)
    divergent = {name for name in names
                 if stats_a.get(name) != stats_b.get(name)}
    if result_a.cycles != result_b.cycles:
        divergent |= {name for name in names}
    return divergent


def control_diverged(cohort: Sequence[RunResult]) -> bool:
    """Whether a plug-in-free control cohort is secret-visible: any
    variant's cycles or observations differ from ``cohort[0]``, the
    baseline run."""
    baseline = cohort[0]
    return any(baseline.cycles != result.cycles
               or baseline.observations != result.observations
               for result in cohort[1:])


def plugin_diverged(cohort: Sequence[RunResult], plugin: str) -> bool:
    """Whether any variant moved ``plugin``'s MLD observably against
    ``cohort[0]``, the baseline run."""
    return any(plugin in divergent_plugins(cohort[0], result,
                                           enabled=(plugin,))
               for result in cohort[1:])


@dataclass
class SoundnessResult:
    """Outcome of one spec's differential soundness check."""

    label: str
    flagged: tuple              # plug-ins the checker flagged
    divergent: tuple            # plug-ins that dynamically diverged
    unflagged: tuple            # divergent but not flagged — BUG
    variants: int = 0
    details: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.unflagged

    @property
    def vacuous(self) -> bool:
        """True when no variant diverged (nothing was demonstrable)."""
        return not self.divergent


def check_soundness(spec: SimSpec,
                    patterns: Sequence[int] = DEFAULT_PATTERNS,
                    cache: ResultCache | None = None) -> SoundnessResult:
    """Differential no-false-negatives check for one spec.

    Runs the secret-pair variants through the engine, diffs every
    variant against the baseline, and compares the dynamically
    divergent plug-in set against the statically flagged one.
    """
    tel = telemetry.REGISTRY
    flagged = set(lint_spec(spec).leaking_plugins())
    variants = secret_variants(spec, patterns=patterns)
    tel.inc("repro_soundness_checks_total",
            help="Differential soundness checks run")
    tel.inc("repro_soundness_variants_total", max(0, len(variants) - 1),
            help="Secret-perturbed variants executed by soundness checks")
    with tel.phase("lint.soundness", "variants"):
        results = run_batch(variants, cache=cache)
    baseline, rest = results[0], results[1:]
    enabled = tuple(plugin.name for plugin in spec.plugins)
    divergent: set[str] = set()
    details: list[tuple[str, list[str]]] = []
    for variant_spec, result in zip(variants[1:], rest):
        delta = divergent_plugins(baseline, result, enabled=enabled)
        if delta:
            details.append((variant_spec.label, sorted(delta)))
        divergent |= delta
    if divergent:
        tel.inc("repro_soundness_divergences_total", len(divergent),
                help="Plug-ins observed dynamically divergent per check")
    return SoundnessResult(
        label=spec.label or "<spec>",
        flagged=tuple(sorted(flagged)),
        divergent=tuple(sorted(divergent)),
        unflagged=tuple(sorted(divergent - flagged)),
        variants=len(variants) - 1,
        details=details)
