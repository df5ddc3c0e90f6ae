"""Disabled-path overhead of the per-spec trace layer.

Tracing is always compiled in and off by default: per spec,
``trace=None`` (instead of ``TraceSpec()``) keeps the no-op
``NULL_TRACE``, which emission sites skip behind an ``enabled`` check.
The stats record has no disabled mode: every spec-built run records.

This bench runs the same Figure 6 trial batch through
:func:`~repro.engine.runner.run_batch` traced and untraced,
interleaved to cancel thermal and scheduling drift, and keeps the best
of ``BEST_OF`` runs per mode.  Every run is timed inside
:func:`repro.analysis.throughput.measurement_conditions`, the same GC
conditions the KIPS harness uses.  The gates: the disabled mode may
cost no more than noise against the mode that does strictly more work
(``GATES``), both modes simulate the same cycles, and an untraced run
leaves an empty ``trace`` payload.  The gate bounds the disabled path
against the enabled one; what tracing costs is the reported
``enabled overhead``, which no gate bounds.
"""

import time

import pytest
from conftest import emit, emit_json

from repro.analysis.throughput import measurement_conditions
from repro.attacks.bsaes_attack import (
    BSAESSilentStoreAttack, BSAESVictimServer,
)
from repro.engine import TraceSpec, run_batch

VICTIM_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
ATTACKER_KEY = bytes(range(16, 32))

#: Layer -> the factor the disabled mode's best wall time may reach
#: against the enabled mode's.
GATES = {"trace": 1.05}

BEST_OF = 5


@pytest.fixture(scope="module")
def specs():
    server = BSAESVictimServer(VICTIM_KEY, b"public-header-00")
    attack = BSAESSilentStoreAttack(server, ATTACKER_KEY)
    return attack.histogram_specs(runs_per_type=6, target_slot=4)


@pytest.fixture(scope="module")
def measured(specs):
    """Per-layer rows, written out together once every layer ran."""
    rows = {}
    yield rows
    if rows:
        emit_report(len(specs), rows)


def batches(specs):
    """The (traced, untraced) batches."""
    return ([spec.replace(trace=TraceSpec()) for spec in specs],
            [spec.replace(trace=None) for spec in specs])


def time_batch(batch):
    with measurement_conditions():
        start = time.perf_counter()
        results = run_batch(batch)
        elapsed = time.perf_counter() - start
    return elapsed, results


def measure(enabled_batch, disabled_batch):
    """Best-of wall times per mode, plus each mode's last results."""
    times = {True: [], False: []}
    results = {}
    for _ in range(BEST_OF):
        for enabled, batch in ((True, enabled_batch),
                               (False, disabled_batch)):
            elapsed, results[enabled] = time_batch(batch)
            times[enabled].append(elapsed)
    return min(times[True]), min(times[False]), results


def emit_report(trials, rows):
    lines = [f"fig6 workload, {trials} trials through run_batch, best of "
             f"{BEST_OF}, each run after gc.collect() + gc.freeze():",
             f"  {'layer':10s} {'enabled ms':>11s} {'disabled ms':>12s} "
             f"{'enabled overhead':>17s}  gate"]
    for layer in (name for name in GATES if name in rows):
        row = rows[layer]
        lines.append(
            f"  {layer:10s} {row['enabled_seconds'] * 1e3:11.1f} "
            f"{row['disabled_seconds'] * 1e3:12.1f} "
            f"{row['enabled_overhead']:+17.1%}  disabled <= enabled "
            f"x {row['gate']:.2f}")
    emit("instrumentation_overhead", "\n".join(lines))
    emit_json("instrumentation_overhead",
              {"trials": trials, "best_of": BEST_OF, "layers": rows})


@pytest.mark.parametrize("layer", GATES)
def test_disabled_path_overhead(layer, specs, measured, once):
    enabled_batch, disabled_batch = batches(specs)
    enabled_s, disabled_s, results = once(
        measure, enabled_batch, disabled_batch)

    measured[layer] = {"enabled_seconds": enabled_s,
                       "disabled_seconds": disabled_s,
                       "enabled_overhead": enabled_s / disabled_s - 1,
                       "gate": GATES[layer]}

    # The layer must never change the simulated machine.
    assert [result.cycles for result in results[True]] == \
        [result.cycles for result in results[False]]
    # The disabled mode is the baseline: it may cost no more than noise
    # against the mode that does strictly more work.
    assert disabled_s <= enabled_s * GATES[layer]
    # An untraced run leaves no events behind.
    assert all(result.trace == {} for result in results[False])
    assert all(result.trace["events"] for result in results[True])
