"""Simulated-instruction throughput (KIPS) of the attack workloads.

One measurement harness shared by ``benchmarks/bench_core_throughput.py``
and the ``python -m repro bench`` CLI: run the paper's three end-to-end
workloads — the Figure 5 amplification probes, the Figure 6 BSAES
timing-histogram attack, and the Figure 7 eBPF universal-read-gadget —
under both simulation kernels (the reference
:class:`~repro.pipeline.cpu.CPU` loop and the
:class:`~repro.pipeline.fastpath.FastPathCPU` kernel), and report

* **KIPS** — thousands of simulated (retired) instructions per
  wall-clock second, the simulator-throughput figure of merit;
* **speedup** — reference wall time over fast-path wall time;
* **identical** — whether the two kernels produced bitwise-identical
  per-run cycle counts and attack outcomes (they must: the fast path's
  contract is exactness, and a speedup bought with drift is a bug).

:func:`run_suite` packages all of that into the ``BENCH_PERF.json``
report written at the repository root by :func:`write_report`: the
kernel scorecard.  It times kernels, not execution backends; serial
against pool scaling is ``benchmarks/bench_engine_scaling.py``, and
the tier-1 cross-backend suites pin their bitwise identity.
Wall-clock numbers are machine-dependent and deliberately live only in
this report — never in a :class:`~repro.engine.session.RunResult`.
"""

import contextlib
import gc
import json
import time

__all__ = [
    "WORKLOADS", "measure_workload", "measurement_conditions",
    "run_suite", "write_report", "render_table", "REPORT_NAME",
]

WORKLOADS = ("fig5", "fig6", "fig7")

REPORT_NAME = "BENCH_PERF.json"

#: Victim/attacker keys for the Figure 6 workload (same values as
#: ``benchmarks/bench_fig6_bsaes_histogram.py``).
_FIG6_VICTIM_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
_FIG6_ATTACKER_KEY = bytes(range(16, 32))

_FIG7_SECRET = b"Pandora!"


def _now():
    return time.perf_counter()


@contextlib.contextmanager
def measurement_conditions():
    """Stabilize wall-clock timing of short batches.

    ``gc.freeze()`` moves every object alive *before* the timed region
    into the permanent generation, so collections triggered inside it
    only scan the measurement's own garbage.  Without this, the cost of
    each GC pass scales with however much unrelated state the host
    process carries (a bare CLI vs a loaded pytest session differed by
    ~25% on the fast kernel), which is environment noise, not simulator
    speed.  Collection itself stays enabled — disabling GC outright
    defers storms into the timed region and is strictly worse.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _fig5_specs(fastpath):
    from repro.attacks.amplification import amplified_probe_spec
    secret = 0x1234
    specs = [
        amplified_probe_spec(secret, secret, gadget=True,
                             label="gadget_silent"),
        amplified_probe_spec(secret, 0x4321, gadget=True,
                             label="gadget_nonsilent"),
        amplified_probe_spec(secret, secret, gadget=False,
                             label="plain_silent"),
        amplified_probe_spec(secret, 0x4321, gadget=False,
                             label="plain_nonsilent"),
    ]
    return [spec.replace(fastpath=fastpath) for spec in specs]


def _fig6_specs(fastpath, runs_per_type):
    from repro.attacks.bsaes_attack import (
        BSAESSilentStoreAttack, BSAESVictimServer,
    )
    server = BSAESVictimServer(_FIG6_VICTIM_KEY, b"public-header-00")
    attack = BSAESSilentStoreAttack(server, _FIG6_ATTACKER_KEY)
    specs = attack.histogram_specs(runs_per_type=runs_per_type,
                                   target_slot=4)
    return [spec.replace(fastpath=fastpath) for spec in specs]


def _measure_batch(specs, repeat=1):
    """Run a spec batch serially; returns (measurement, outcome-sig).

    ``repeat`` re-executes the whole batch that many times inside one
    timed region.  The figure workloads finish in tens of milliseconds,
    where a single-iteration wall clock is mostly scheduler and
    allocator noise; repetition grows the timed region to a stable
    size.  Every iteration is deterministic, so each one's results are
    also checked against the first — a free extra equivalence trial.
    """
    from repro.engine import run_batch
    with measurement_conditions():
        start = _now()
        batches = [run_batch(specs) for _ in range(max(1, repeat))]
        wall_s = _now() - start
    results = batches[0]
    cycles = [result.cycles for result in results]
    per_iteration = sum(result.stats["retired"] for result in results)
    instructions = per_iteration * len(batches)
    measurement = {
        "runs": len(results) * len(batches),
        "wall_s": wall_s,
        "instructions": instructions,
        "sim_cycles": sum(cycles) * len(batches),
        "kips": instructions / wall_s / 1000.0 if wall_s else 0.0,
    }
    # The outcome signature is everything simulation-derived: per-run
    # cycle counts plus the full per-run stats dicts.  Fold every
    # repeat iteration in; a nondeterministic kernel shows up here.
    signature = {"cycles": cycles,
                 "stats": [result.stats for result in results],
                 "repeats_identical": all(
                     [r.to_json() for r in batch]
                     == [r.to_json() for r in results]
                     for batch in batches[1:])}
    return measurement, signature


def _measure_fig7(fastpath, secret):
    """End-to-end URG leak with a per-run counting shim on the runtime."""
    from repro.attacks.dmp_attack import DMPSandboxAttack
    attack = DMPSandboxAttack()
    attack.runtime.place_kernel_secret(
        attack.config.kernel_secret_base, secret)
    totals = {"instructions": 0, "sim_cycles": 0, "runs": 0}
    per_run_cycles = []
    original_run = attack.runtime.run

    def counting_run(plugins=(), config=None, max_cycles=None):
        cpu = original_run(plugins=plugins, config=config,
                           max_cycles=max_cycles, fastpath=fastpath)
        totals["instructions"] += cpu.stats.retired
        totals["sim_cycles"] += cpu.stats.cycles
        totals["runs"] += 1
        per_run_cycles.append(cpu.stats.cycles)
        return cpu

    attack.runtime.run = counting_run
    with measurement_conditions():
        start = _now()
        results = attack.leak_bytes(attack.config.kernel_secret_base,
                                    len(secret))
        wall_s = _now() - start
    leaked = [result.leaked_byte for result in results]
    measurement = {
        "runs": totals["runs"],
        "wall_s": wall_s,
        "instructions": totals["instructions"],
        "sim_cycles": totals["sim_cycles"],
        "kips": (totals["instructions"] / wall_s / 1000.0
                 if wall_s else 0.0),
    }
    signature = {"cycles": per_run_cycles, "leaked": leaked,
                 "sim_cycles": totals["sim_cycles"]}
    return measurement, signature


def _fastpath_sample(spec):
    """Fast-path telemetry from one representative spec of a batch."""
    from repro.engine.session import Session
    session = Session.from_spec(spec.replace(fastpath=True))
    session.run()
    return session.cpu.fastpath.as_dict()


def measure_workload(name, fastpath, runs_per_type=12,
                     secret=_FIG7_SECRET):
    """Measure one workload under one kernel.

    Returns ``(measurement, signature)``: the wall-clock measurement
    dict and the simulation-derived outcome signature used for the
    cross-kernel equivalence check.
    """
    if name == "fig5":
        # 4 tiny probes: repeat heavily to reach a timeable region.
        return _measure_batch(_fig5_specs(fastpath), repeat=8)
    if name == "fig6":
        return _measure_batch(_fig6_specs(fastpath, runs_per_type),
                              repeat=3)
    if name == "fig7":
        return _measure_fig7(fastpath, secret)
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")


def run_suite(workloads=WORKLOADS, runs_per_type=12,
              secret=_FIG7_SECRET, best_of=5):
    """Measure every workload under both kernels.

    Each (workload, kernel) pair runs ``best_of`` times and keeps the
    fastest wall clock (the usual benchmarking guard against one-off
    scheduler noise and interpreter warm-up — the first repetition of a
    short batch routinely pays 30-50% in cold bytecode and allocator
    state); outcome signatures must agree across *all* runs of *both*
    kernels, so every repetition also doubles as an equivalence trial.
    """
    report = {"report": "simulated-instruction throughput",
              "unit": "KIPS = 1000 simulated retired instructions "
                      "per wall-clock second",
              "workloads": {}}
    for name in workloads:
        entry = {}
        signatures = []
        for kernel, fastpath in (("reference", False), ("fastpath", True)):
            best = None
            for _ in range(max(1, best_of)):
                measurement, signature = measure_workload(
                    name, fastpath, runs_per_type=runs_per_type,
                    secret=secret)
                signatures.append(signature)
                if best is None or measurement["wall_s"] < best["wall_s"]:
                    best = measurement
            entry[kernel] = best
        entry["speedup"] = (entry["reference"]["wall_s"]
                            / entry["fastpath"]["wall_s"]
                            if entry["fastpath"]["wall_s"] else 0.0)
        entry["identical"] = all(sig == signatures[0]
                                 for sig in signatures[1:])
        if name in ("fig5", "fig6"):
            specs = (_fig5_specs(True) if name == "fig5"
                     else _fig6_specs(True, runs_per_type))
            entry["fastpath_counters"] = _fastpath_sample(specs[0])
        report["workloads"][name] = entry
    return report


def write_report(report, path=REPORT_NAME):
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def render_table(report):
    """The CLI's KIPS table, one row per workload."""
    lines = [
        f"{'workload':10s} {'runs':>5s} {'instructions':>13s} "
        f"{'ref KIPS':>9s} {'fast KIPS':>10s} {'speedup':>8s} "
        f"{'identical':>9s}",
    ]
    for name, entry in report["workloads"].items():
        ref, fast = entry["reference"], entry["fastpath"]
        lines.append(
            f"{name:10s} {fast['runs']:5d} {fast['instructions']:13d} "
            f"{ref['kips']:9.1f} {fast['kips']:10.1f} "
            f"{entry['speedup']:7.2f}x "
            f"{str(entry['identical']):>9s}")
    return "\n".join(lines)

