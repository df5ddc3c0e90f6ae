"""Trial fan-out: build jobs, probe the cache once, hand misses off.

The paper's experiments are embarrassingly parallel — Figure 6 needs
many encryption calls per guess type, replay narrowing issues hundreds
of oracle queries, key recovery budgets up to 524,288 of them — and
every trial is an independent simulator run.  :func:`run_batch` is the
one fan-out point, and it does exactly three things:

1. derive each spec's content fingerprint once (shared by the cache
   probe, the session build and the stored result);
2. probe the optional :class:`~repro.engine.cache.ResultCache` once
   per batch (:meth:`~repro.engine.cache.ResultCache.probe_many`),
   which opens only the entries the batch asks for;
3. build one idempotent :class:`~repro.engine.backends.TrialJob` per
   *distinct* missing fingerprint, hand those to the selected
   :class:`~repro.engine.backends.ExecutionBackend` — serial or process
   pool — and deposit each fresh result back once.

A fingerprint covers everything that affects a run, so specs that share
one (repeats within a batch, or specs that differ only in ``label``,
``meta``, ``taint`` or ``fastpath``) are one simulation: the first
occurrence gets the executed result and every later one a copy carrying
its own spec's label.  A cache hit likewise carries the label of the
spec that asked for it, not of the one that deposited it; stored
entries never change.  Results come back in input order, bitwise
identical across backends, because every randomness source in a spec is
seeded.  Backend selection priority: the explicit ``backend=`` argument
(name or instance), the ``REPRO_BACKEND`` environment variable, then
the ``workers`` heuristic.

:func:`derive_seed` gives deterministic per-trial seeds: hash the base
seed with the trial index, so trial *i* sees the same perturbation no
matter how the batch is scheduled.
"""

import dataclasses
import hashlib

from repro import telemetry
from repro.engine.backends import (
    TrialJob, execute_spec, resolve_backend,
)

__all__ = ["derive_seed", "execute_spec", "run_batch", "run_spec"]


def derive_seed(base_seed, index):
    """A stable, well-mixed per-trial seed (independent of scheduling)."""
    blob = f"{base_seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def run_spec(spec, cache=None):
    """Run one spec through the optional result cache.

    The fingerprint is derived exactly once and shared by the cache
    probe, the session build and the stored result.  A hit carries
    ``spec``'s label.
    """
    fingerprint = spec.fingerprint()
    if cache is not None:
        hit = cache.get(fingerprint)
        if hit is not None:
            return _relabel(hit, spec.label)
    result = execute_spec(spec, fingerprint)
    if cache is not None:
        cache.put(result)
    return result


def _relabel(result, label):
    """``result`` carrying ``label``: a cache hit answers the spec that
    asked for it, not the one that deposited it."""
    if result.label == label:
        return result
    return dataclasses.replace(result, label=label)


def _probe(cache, fingerprints):
    """Bulk cache probe; a list aligned with ``fingerprints`` (or None
    without a cache)."""
    if cache is None:
        return None
    return cache.probe_many(fingerprints)


def run_batch(specs, workers=1, cache=None, backend=None):
    """Run ``specs`` and return their results in input order.

    ``backend`` selects the execution backend by name (``"serial"``,
    ``"pool"``) or as a ready
    :class:`~repro.engine.backends.ExecutionBackend` instance (which
    the caller owns — the runner never opens or closes it).  With no
    explicit backend, ``workers > 1`` fans cache misses across that
    many pooled worker processes and ``workers <= 1`` (the default)
    runs everything in process.  Results are identical whichever
    backend runs them.

    Each distinct missing fingerprint runs once.  The cache probe still
    counts every occurrence, and each fresh result is deposited once;
    a later occurrence's result is a separate :class:`RunResult` with
    ``cached=False`` and its own spec's label.  A cache hit keeps
    ``cached=True`` and also carries its own spec's label.

    The process-wide :data:`repro.telemetry.REGISTRY` records every
    batch: per-backend batch counters
    (``repro_backend_batches_total{backend=...}``), executed-trial
    counters (``repro_backend_trials_total``, one per job), the
    per-trial wall-clock histogram ``repro_trial_seconds``, the cache's
    hit/miss counters, and a phase profile of this function's four
    steps — fingerprinting, cache probe and job build, backend submit,
    result merge — under
    ``repro_phase_seconds{layer="engine.runner"}``.  These quantities
    depend on scheduling, which is why they live there and never in a
    :class:`RunResult`.
    """
    tel = telemetry.REGISTRY
    with tel.phase("engine.runner", "build"):
        specs = list(specs)
        # One fingerprint derivation per trial, shared by the cache
        # probe, the (possibly pooled) session build, and the stored
        # result.
        fingerprints = [spec.fingerprint() for spec in specs]
    results = [None] * len(specs)

    with tel.phase("engine.runner", "probe"):
        hits = _probe(cache, fingerprints)
        jobs = []
        # Fingerprint -> index of its first missing occurrence; each
        # later occurrence copies that index's result.
        first = {}
        repeats = []
        for index, spec in enumerate(specs):
            hit = hits[index] if hits is not None else None
            if hit is not None:
                results[index] = _relabel(hit, spec.label)
                continue
            fingerprint = fingerprints[index]
            if fingerprint in first:
                repeats.append((index, first[fingerprint]))
                continue
            first[fingerprint] = index
            jobs.append(TrialJob(index=index, spec=spec,
                                 fingerprint=fingerprint))

    chosen = resolve_backend(backend, workers=workers, pending=len(jobs))
    tel.inc("repro_backend_batches_total",
            help="Batches submitted per execution backend",
            backend=chosen.name)
    if jobs:
        tel.inc("repro_backend_trials_total", len(jobs),
                help="Cache-missing trials executed per backend",
                backend=chosen.name)
        with tel.phase("engine.runner", "submit"):
            executed = chosen.submit(jobs)
        with tel.phase("engine.runner", "merge"):
            trial_seconds = tel.histogram(
                "repro_trial_seconds",
                help="Wall-clock seconds per executed trial",
                backend=chosen.name)
            for job, trial in zip(jobs, executed):
                results[job.index] = trial.result
                trial_seconds.observe(trial.elapsed_us / 1e6)
            for index, source in repeats:
                results[index] = dataclasses.replace(
                    results[source], label=specs[index].label)

    if cache is not None:
        with tel.phase("engine.runner", "merge"):
            for job in jobs:
                cache.put(results[job.index])
    return results
