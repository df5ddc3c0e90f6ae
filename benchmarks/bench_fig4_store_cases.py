"""Figure 4 — the four store sequences under read-port stealing.

Forces each case with a dedicated micro-program and reports the
outcome bookkeeping plus run time:

* Case A — SS-Load returns in time, values equal → silent dequeue.
* Case B — SS-Load returns in time, values differ → normal perform.
* Case C — no free load port at address resolution → no candidacy.
* Case D — SS-Load would return after the store performed (cold line,
  no-allocate port steal) → no candidacy.

Each case is a declarative engine spec that traces the pipeline
categories; :func:`~repro.trace.store_timelines` reads the Figure 4
timelines off the run's trace payload.
"""

from conftest import emit, emit_json

from repro.engine import (
    HierarchySpec, PluginSpec, SimSpec, TraceSpec, execute_spec,
)
from repro.isa.assembler import Assembler
from repro.pipeline.config import CPUConfig
from repro.trace import PIPELINE_CATEGORIES, store_timelines


def case_spec(case):
    asm = Assembler()
    config = CPUConfig()
    asm.li(1, 0x1000)
    if case in ("A", "B"):
        asm.load(2, 1, 0)            # warm line: SS-Load will hit
        asm.fence()
        asm.li(3, 42 if case == "A" else 7)
        asm.store(3, 1, 0)
    elif case == "C":
        config = CPUConfig(num_load_ports=1)
        asm.load(2, 1, 0)
        asm.fence()
        asm.li(5, 0x2000)
        asm.load(6, 5, 0)            # hog the single load port
        asm.load(6, 5, 8)
        asm.li(3, 42)
        asm.store(3, 1, 0)
        asm.load(6, 5, 16)
        asm.load(6, 5, 24)
        asm.load(6, 5, 32)
    else:  # D: cold line, the port-stealing SS-Load misses
        asm.li(3, 42)
        asm.store(3, 1, 0)
    asm.halt()
    return SimSpec(
        program=asm.assemble(), config=config,
        hierarchy=HierarchySpec(memory_size=1 << 16),
        plugins=(PluginSpec.of("silent-stores"),),
        trace=TraceSpec(categories=PIPELINE_CATEGORIES),
        mem_writes=((0x1000, 42, 8),), label=case)


def run_all_cases():
    results = {}
    for case in "ABCD":
        run = execute_spec(case_spec(case))
        results[case] = {
            "cycles": run.cycles,
            "silent": run.stats["silent_stores"],
            "performed": run.stats["stores_performed"],
            "stats": run.observations["plugins"]["silent-stores"],
            "metrics": run.metrics,
            "timelines": store_timelines(run.trace),
        }
    return results


def test_fig4_store_cases(benchmark):
    results = benchmark(run_all_cases)
    lines = [f"{'case':6s} {'cycles':>7s} {'silent':>7s} "
             f"{'performed':>10s}  outcome"]
    outcome_key = {"A": "case_a_silent", "B": "case_b_nonsilent",
                   "C": "case_c_no_port", "D": "case_d_late"}
    for case, row in results.items():
        lines.append(
            f"{case:6s} {row['cycles']:7d} {row['silent']:7d} "
            f"{row['performed']:10d}  {outcome_key[case]}="
            f"{row['stats'][outcome_key[case]]}")
    lines.append("")
    lines.append("store event timelines (the Figure 4 sequences):")
    for case, row in results.items():
        for timeline in row["timelines"]:
            lines.append(f"  case {case}: {timeline}")
    emit("fig4_store_cases", "\n".join(lines))
    emit_json("fig4_store_cases",
              {**{case: {key: row[key]
                         for key in ("cycles", "silent", "performed",
                                     "stats", "timelines")}
                  for case, row in results.items()},
               "stats": {case: row["metrics"]
                         for case, row in results.items()}})

    assert results["A"]["silent"] == 1 and results["A"]["performed"] == 0
    assert results["B"]["silent"] == 0 and results["B"]["performed"] == 1
    assert results["C"]["stats"]["case_c_no_port"] >= 1 or \
        results["C"]["silent"] == 1
    assert results["D"]["stats"]["case_d_late"] == 1
    assert results["D"]["performed"] == 1
