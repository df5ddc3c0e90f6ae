"""Contract synthesis — fuzzing throughput and backend parity.

The synthesizer (``python -m repro synthesize``) is a fuzzing fleet:
per plug-in it runs ``budget`` generated cases x two cohorts (control
and plug-in) x four secret variants.  This bench times the full sweep
over every contracted plug-in under the serial and pool backends and
checks the layer's contracts:

* every plug-in comes back SOUND and non-vacuous — the declared
  ``LINT_CONTRACT``\\ s explain all observed divergence and the trigger
  templates actually fire;
* the learned contracts and full reports are bitwise identical across
  backends;
* the sweep stays interactive — the CI smoke leg runs it on every
  push, so a budget-10 sweep must finish in seconds, not minutes.
"""

import time

from conftest import emit, emit_json

from repro.lint.synthesize import (
    DEFAULT_BUDGET, report_json, synthesize_all,
)

SEED = 0


def timed_sweep(workers):
    start = time.perf_counter()
    results = synthesize_all(budget=DEFAULT_BUDGET, seed=SEED,
                             workers=workers)
    return results, time.perf_counter() - start


def run_synthesis():
    serial, serial_s = timed_sweep(workers=1)
    pooled, pooled_s = timed_sweep(workers=4)
    plugins = {}
    for name, result in sorted(serial.items()):
        plugins[name] = {
            "declared": len(result.declared),
            "learned": len(result.learned),
            "witnessed": len(result.witnessed),
            "gaps": len(result.undeclared),
            "unwitnessed": len(result.unwitnessed),
            "cases": len(result.observations),
            "ok": result.ok,
            "vacuous": result.vacuous,
        }
    return {
        "budget": DEFAULT_BUDGET,
        "seed": SEED,
        "serial_s": serial_s,
        "pooled_s": pooled_s,
        "plugins": plugins,
        "all_sound": all(row["ok"] for row in plugins.values()),
        "none_vacuous": not any(row["vacuous"]
                                for row in plugins.values()),
        "identical_reports": (report_json(serial)
                              == report_json(pooled)),
    }


def test_contract_synthesis(once):
    row = once(run_synthesis)
    lines = [
        f"contract synthesis sweep: budget={row['budget']} "
        f"seed={row['seed']}",
        f"  workers=1: {row['serial_s']:8.3f} s",
        f"  workers=4: {row['pooled_s']:8.3f} s",
        f"  {'plugin':30s} {'decl':>5s} {'learn':>6s} {'wit':>4s} "
        f"{'gaps':>5s}",
    ]
    for name, info in sorted(row["plugins"].items()):
        lines.append(
            f"  {name:30s} {info['declared']:>5d} "
            f"{info['learned']:>6d} {info['witnessed']:>4d} "
            f"{info['gaps']:>5d}")
    lines.append(f"  all sound: {row['all_sound']}   "
                 f"backend parity: {row['identical_reports']}")
    emit("contract_synthesis", "\n".join(lines))
    emit_json("contract_synthesis", row)

    assert row["all_sound"]
    assert row["none_vacuous"]
    assert row["identical_reports"]
    # Interactive budget: CI smoke runs this sweep on every push.
    assert row["serial_s"] < 120.0
