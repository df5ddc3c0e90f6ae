"""Engine scaling — replay-trial fan-out across worker processes.

Replay attacks are embarrassingly parallel: every trial is an
independent simulator run fully described by its spec.  This bench
times a Figure-6-sized batch (200 BSAES gadget trials) through
``run_batch`` at ``workers=1`` (in-process) and ``workers=4`` (process
pool), and checks the engine's contract:

* the aggregated observations are bitwise identical — fan-out must
  never change results;
* on a machine with >= 4 cores, the pool is at least 2x faster.  The
  timing rows are always reported; the speedup assertion is skipped on
  smaller machines (a 1-core container cannot demonstrate it).
"""

import os
import time

from conftest import emit, emit_json

from repro.attacks.bsaes_attack import (
    BSAESSilentStoreAttack, BSAESVictimServer,
)

VICTIM_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
ATTACKER_KEY = bytes(range(16, 32))
TRIALS_PER_TYPE = 100        # 200 specs: a Figure-6-sized batch


def build_specs():
    server = BSAESVictimServer(VICTIM_KEY, b"public-header-00")
    attack = BSAESSilentStoreAttack(server, ATTACKER_KEY)
    return attack.histogram_specs(runs_per_type=TRIALS_PER_TYPE,
                                  target_slot=4)


def timed_batch(specs, workers):
    from repro.engine import run_batch
    start = time.perf_counter()
    results = run_batch(specs, workers=workers)
    return results, time.perf_counter() - start


def run_scaling():
    specs = build_specs()
    serial, serial_s = timed_batch(specs, workers=1)
    pooled, pooled_s = timed_batch(specs, workers=4)
    return {
        "trials": len(specs),
        "serial_s": serial_s,
        "pooled_s": pooled_s,
        "speedup": serial_s / pooled_s if pooled_s else float("inf"),
        "identical_cycles": ([r.cycles for r in serial]
                             == [r.cycles for r in pooled]),
        "identical_observations": (
            [(r.fingerprint, r.stats, r.observations) for r in serial]
            == [(r.fingerprint, r.stats, r.observations)
                for r in pooled]),
        "cpu_count": os.cpu_count() or 1,
    }


def test_engine_scaling(once):
    row = once(run_scaling)
    lines = [
        f"replay batch: {row['trials']} trials "
        f"(machine: {row['cpu_count']} cores)",
        f"  workers=1: {row['serial_s']:8.3f} s",
        f"  workers=4: {row['pooled_s']:8.3f} s",
        f"  speedup:   {row['speedup']:8.2f}x",
        f"  identical cycles:       {row['identical_cycles']}",
        f"  identical observations: {row['identical_observations']}",
    ]
    emit("engine_scaling", "\n".join(lines))
    emit_json("engine_scaling", row)

    # The hard contract: fan-out never changes results.
    assert row["identical_cycles"]
    assert row["identical_observations"]
    # The performance claim needs the cores to exist.
    if row["cpu_count"] >= 4:
        assert row["speedup"] >= 2.0
