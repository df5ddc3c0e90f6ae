"""Static-lint precision — false-positive rates and analysis cost.

The precision harness (``python -m repro precision``) is the dual of
the soundness gate: it classifies every static LEAKS flag over the
bounded corpus by secret-pair differential trial.  This bench runs
the full classification and checks the layer's contracts:

* zero soundness escapes — every confirmed divergence was statically
  flagged (by both the path-sensitive analysis and the sticky
  baseline it over-approximates);
* path sensitivity *strictly* reduces false positives on the corpus
  (the gated public-tail cases are the separating instances);
* the pure static pass stays cheap — post-dominator scoping and the
  feasibility fixpoint must not make linting a bottleneck next to
  the differential trials they are measured by;
* its cost per instruction stays flat as programs grow: linting a
  1024-instruction program costs at most twice as much per
  instruction as a 256-instruction one, straight-line or branchy.
"""

import gc
import random
import time

from conftest import emit, emit_json

from repro.isa.assembler import Assembler
from repro.isa.opcodes import Op
from repro.lint.checker import lint_program
from repro.lint.precision import check_precision
from repro.lint.progen import SCRATCH_ADDR, SECRET_ADDR, CaseGenerator

BUDGET = 4
SEED = 0
STATIC_REPEATS = 50
SCALING_SIZES = (256, 1024)
SCALING_REPEATS = 5
SCALING_SHAPES = ("straight-line", "branchy")
SCALING_ALU = (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.MUL, Op.ADDI,
               Op.XORI)


def run_precision():
    start = time.perf_counter()
    report = check_precision(budget=BUDGET, seed=SEED)
    elapsed = time.perf_counter() - start
    row = report.to_json_dict()
    row.pop("outcomes")
    row["elapsed_s"] = elapsed
    row["trials"] = len(report.outcomes)
    row["removed"] = (report.sticky_false_positives
                      - report.false_positives)
    return row


def run_static_cost():
    """Scoped vs sticky lint cost over one progen corpus."""
    cases = CaseGenerator(seed=SEED).cases_for("silent-stores", BUDGET)
    timings = {}
    for path_sensitive in (True, False):
        start = time.perf_counter()
        for _ in range(STATIC_REPEATS):
            for case in cases:
                lint_program(case.program, opts=("silent-stores",),
                             path_sensitive=path_sensitive)
        timings[path_sensitive] = time.perf_counter() - start
    lints = STATIC_REPEATS * len(cases)
    return {
        "lints": lints,
        "scoped_s": timings[True],
        "sticky_s": timings[False],
        "scoped_us_per_lint": 1e6 * timings[True] / lints,
        "overhead_x": timings[True] / max(timings[False], 1e-9),
    }


def scaling_program(size, branchy):
    """A ``size``-instruction program over one secret word: ALU, load
    and store traffic at constant addresses and, when ``branchy``,
    forward-branch diamonds and three-trip counted loops (back edges).
    Both sizes draw from one seed, so the smaller program is a prefix
    of the larger one."""
    rng = random.Random(f"lint-scaling/{SEED}/{branchy}")
    asm = Assembler()
    asm.secret(SECRET_ADDR, SECRET_ADDR + 8)
    asm.load(1, 0, SECRET_ADDR)
    asm.load(2, 0, SCRATCH_ADDR)
    while len(asm) < size - 4:
        kind = rng.randrange(16)
        if branchy and kind == 14:
            skip = f"skip{len(asm)}"
            asm.beq(rng.randrange(1, 8), rng.randrange(1, 8), skip)
            asm.addi(rng.randrange(1, 8), 0, rng.randrange(16))
            asm.label(skip)
        elif branchy and kind == 15:
            loop = f"loop{len(asm)}"
            asm.li(8, 3)
            asm.label(loop)
            asm.addi(8, 8, -1)
            asm.bne(8, 0, loop)
        elif kind < 10:
            op = rng.choice(SCALING_ALU)
            rd = rng.randrange(1, 8)
            if op.value.endswith("i"):
                asm._ri(op, rd, rng.randrange(1, 8), rng.randrange(64))
            else:
                asm._rr(op, rd, rng.randrange(1, 8), rng.randrange(1, 8))
        elif kind < 12:
            asm.load(rng.randrange(1, 8), 0,
                     SCRATCH_ADDR + 8 * rng.randrange(4))
        else:
            asm.store(rng.randrange(1, 8), 0,
                      SCRATCH_ADDR + 8 * rng.randrange(4))
    while len(asm) < size - 1:
        asm.nop()
    asm.halt()
    return asm.assemble()


def run_static_scaling():
    """Best-of-N lint time per instruction at each size, gc disabled;
    the sizes alternate within each repeat so drift hits both."""
    programs = {(shape, size): scaling_program(size, shape == "branchy")
                for shape in SCALING_SHAPES for size in SCALING_SIZES}
    best = dict.fromkeys(programs, float("inf"))
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(SCALING_REPEATS):
            for key, program in programs.items():
                start = time.perf_counter()
                lint_program(program, opts=("silent-stores",))
                best[key] = min(best[key], time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    small, large = SCALING_SIZES
    rows = {}
    for shape in SCALING_SHAPES:
        per_inst = {size: 1e6 * best[shape, size] / size
                    for size in SCALING_SIZES}
        rows[shape] = {
            "us_per_inst": {str(size): cost
                            for size, cost in per_inst.items()},
            "growth_x": per_inst[large] / per_inst[small],
        }
    return rows


def test_lint_precision(once):
    row = once(run_precision)
    lines = [
        f"lint precision: budget={row['budget']} seed={row['seed']} "
        f"({row['trials']} trials, {row['elapsed_s']:.2f} s)",
        f"  confirmed:          {row['confirmed']:4d}",
        f"  FP path-sensitive:  {row['false_positives']:4d}",
        f"  FP sticky baseline: {row['sticky_false_positives']:4d}",
        f"  removed by scoping: {row['removed']:4d}",
        f"  soundness escapes:  {row['missed']:4d}",
    ]
    emit("lint_precision", "\n".join(lines))
    emit_json("lint_precision", row)

    assert row["ok"]
    assert row["missed"] == 0
    assert row["false_positives"] < row["sticky_false_positives"]
    # Interactive budget: the CI static-checks leg runs this on push.
    assert row["elapsed_s"] < 120.0


def test_static_analysis_cost(once):
    row = once(run_static_cost)
    row["scaling"] = run_static_scaling()
    small, large = SCALING_SIZES
    lines = [
        f"static lint cost over {row['lints']} lints:",
        f"  path-sensitive: {row['scoped_s']:8.3f} s "
        f"({row['scoped_us_per_lint']:8.1f} us/lint)",
        f"  sticky:         {row['sticky_s']:8.3f} s",
        f"  overhead:       {row['overhead_x']:8.2f}x",
        f"per-instruction cost, {small} -> {large} instructions "
        f"(best of {SCALING_REPEATS}, gc off):",
    ]
    for shape, scaled in row["scaling"].items():
        costs = scaled["us_per_inst"]
        lines.append(f"  {shape + ':':15s} {costs[str(small)]:6.1f} -> "
                     f"{costs[str(large)]:6.1f} us/inst "
                     f"({scaled['growth_x']:.2f}x)")
    emit("lint_precision_static_cost", "\n".join(lines))
    emit_json("lint_precision_static_cost", row)

    # Post-dominator scoping + the feasibility fixpoint may cost a
    # constant factor over the sticky pass, but must stay the same
    # order of magnitude — linting is the cheap half of the harness.
    assert row["overhead_x"] < 25.0
    # Linear in program size: a quadratic term (post-dominator sets,
    # say) shows up as per-instruction cost growing with the program.
    for shape, scaled in row["scaling"].items():
        assert scaled["growth_x"] <= 2.0, (shape, scaled)
