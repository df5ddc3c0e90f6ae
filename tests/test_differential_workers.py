"""Differential test: pooled execution must be bitwise-serial.

Every randomness source in a spec is seeded, so fanning trials across
a ``ProcessPoolExecutor`` may change *scheduling* but never *results*.
This sweeps one spec per attack module (see :mod:`tests.spec_catalog`)
through :func:`run_batch` with ``workers=1`` and ``workers=4`` and
asserts the :class:`RunResult` records — including the per-run
``metrics`` payloads and their merged aggregate — are identical down
to the serialized byte.
"""

from repro.engine import TraceSpec, derive_seed, merge_all, run_batch
from tests.spec_catalog import attack_specs

TRIALS_PER_ATTACK = 3


def _make_trial_specs():
    """A mixed batch: every attack, several distinct seeds each."""
    specs = []
    for index, (name, spec) in enumerate(sorted(attack_specs().items())):
        for trial in range(TRIALS_PER_ATTACK):
            specs.append(spec.replace(
                seed=derive_seed(index, trial),
                label=f"{name}/{trial}"))
    return specs


def test_pooled_results_bitwise_identical_to_serial():
    specs = _make_trial_specs()
    serial = run_batch(specs, workers=1)
    pooled = run_batch(specs, workers=4)

    assert len(serial) == len(pooled) == len(specs)
    for spec, one, many in zip(specs, serial, pooled):
        assert one.to_json() == many.to_json(), spec.label
        assert one.metrics, spec.label  # every spec-built run records

    merged_serial = merge_all(result.metrics for result in serial)
    merged_pooled = merge_all(result.metrics for result in pooled)
    assert merged_serial == merged_pooled
    assert merged_serial.as_dict() == merged_pooled.as_dict()
    # Every trial contributed to the aggregate.
    assert merged_serial.counters["engine.trials"] == len(specs)


def test_traced_pooled_results_bitwise_identical_to_serial():
    """The trace payload obeys the same determinism contract: event
    streams are simulation-derived only, so a traced batch is bitwise
    identical across serial and pooled execution too."""
    specs = [spec.replace(trace=TraceSpec())
             for spec in _make_trial_specs()]
    serial = run_batch(specs, workers=1)
    pooled = run_batch(specs, workers=4)

    assert len(serial) == len(pooled) == len(specs)
    for spec, one, many in zip(specs, serial, pooled):
        assert one.to_json() == many.to_json(), spec.label
        assert one.trace["events"], spec.label
        assert one.trace["emitted"] >= len(one.trace["events"])
