"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 bench/compare.py BEFORE AFTER [--claim WORKLOAD:METRIC]

BEFORE and AFTER are each a directory of run JSONs written by
``bench/run.py``, one run JSON, or ``FILE#NAME`` for the set NAME in a
file holding ``{"sets": {NAME: [run, ...]}}`` (such as
``bench/results/baseline-seed0.json``).  For every (workload,
end-to-end metric) it prints each side's median and quartiles and one
verdict:

* ``unresolved`` — either side's interquartile range is wider than the
  bound (as a share of its median), unless every AFTER run reads better
  than every BEFORE run;
* ``regressed`` — AFTER's median is worse than BEFORE's by more than
  the bound;
* ``unchanged`` — otherwise.

Every run, traced or not, also carries its failed-op count: any AFTER
run with a failed op (or ``correct`` false) fails the comparison, and
each side's failures are printed per workload.

``--claim`` names the metric a change claims to improve; the script then
reports the share of run pairs (matched by seed, in order) the change
wins, ties counting for neither, and whether the claim is met: no AFTER
run failed an op, at least nine tenths of the pairs won and the medians
further apart than BEFORE's interquartile range.  Traced runs are
checked, on each side, for simulated counts that repeat exactly per
seed; a count that differs between BEFORE and AFTER (a change that
skips or merges simulations) is printed, not failed.  Exit status 1
means some pair regressed or is unresolved, an AFTER run failed an op,
a count did not repeat, or a claim was not met.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Traced-run counts that must repeat exactly for one workload and seed.
EXACT_COUNTS = ("pipeline.instructions", "pipeline.sim_cycles",
                "engine.cache.hits")


def load(arg):
    """The run records one command-line argument names."""
    path, _, name = arg.partition("#")
    if os.path.isdir(path):
        records = []
        for entry in sorted(os.listdir(path)):
            if entry.endswith(".json"):
                with open(os.path.join(path, entry)) as handle:
                    records.append(json.load(handle))
        return records
    with open(path) as handle:
        data = json.load(handle)
    if name:
        return data["sets"][name]
    return data if isinstance(data, list) else [data]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def grouped(records, trace):
    """``{workload: [record, ...]}`` sorted by seed, then file order."""
    out = {}
    for record in records:
        if record["trace"] == trace:
            out.setdefault(record["workload"], []).append(record)
    for runs in out.values():
        runs.sort(key=lambda record: record["seed"])
    return out


def better(value, other, direction):
    return value < other if direction == "lower" else value > other


def verdict(before, after, bound, direction):
    """One (workload, metric) row: medians, quartiles and the verdict."""
    med_a, med_b = statistics.median(before), statistics.median(after)
    q_a, q_b = quartiles(before), quartiles(after)
    spread = max((q_a[1] - q_a[0]) / med_a, (q_b[1] - q_b[0]) / med_b)
    change = (med_b - med_a) / med_a
    worse = change if direction == "lower" else -change
    if spread > bound and not all(better(b, a, direction)
                                  for a in before for b in after):
        label = "unresolved"
    elif worse > bound:
        label = "regressed"
    else:
        label = "unchanged"
    return {"before": (med_a, *q_a), "after": (med_b, *q_b),
            "change": change, "spread": spread, "verdict": label}


def claim(before, after, direction):
    """Share of run pairs the change wins, and whether the claim holds."""
    pairs = list(zip(before, after))
    wins = sum(1 for a, b in pairs if better(b, a, direction))
    q1, q3 = quartiles(before)
    apart = abs(statistics.median(after) - statistics.median(before))
    won = wins / len(pairs)
    return won, won >= 0.9 and apart > q3 - q1 \
        and better(statistics.median(after), statistics.median(before),
                   direction)


def failures(records):
    """``{workload: (failed ops, attempted ops, runs not correct)}``."""
    out = {}
    for record in records:
        failed, attempted, wrong = out.get(record["workload"], (0, 0, 0))
        out[record["workload"]] = (failed + record["failed"],
                                   attempted + record["attempted"],
                                   wrong + (not record["correct"]))
    return out


def repeated_counts(runs, count):
    """The one value ``count`` takes per seed, or None if it varies."""
    by_seed = {}
    for run in runs:
        by_seed.setdefault(run["seed"], set()).add(run["metrics"][count])
    if any(len(values) > 1 for values in by_seed.values()):
        return None
    return {seed: values.pop() for seed, values in sorted(by_seed.items())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    before_records, after_records = load(args.before), load(args.after)
    before, after = grouped(before_records, 0), grouped(after_records, 0)
    failing = False
    print(f"{'workload':12s} {'metric':12s} {'before [q1, q3]':>28s} "
          f"{'after [q1, q3]':>28s} {'change':>8s} {'bound':>6s} verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in before or name not in after:
            print(f"{name:12s} (no untraced runs on both sides)")
            failing = True
            continue
        for metric in spec["end_to_end"]:
            a = [run["metrics"][metric["name"]] for run in before[name]]
            b = [run["metrics"][metric["name"]] for run in after[name]]
            row = verdict(a, b, metric["bound"], metric["better"])
            failing |= row["verdict"] != "unchanged"
            print(f"{name:12s} {metric['name']:12s} "
                  f"{row['before'][0]:>10.4g} [{row['before'][1]:.4g}, "
                  f"{row['before'][2]:.4g}] "
                  f"{row['after'][0]:>10.4g} [{row['after'][1]:.4g}, "
                  f"{row['after'][2]:.4g}] {100 * row['change']:>+7.1f}% "
                  f"{100 * metric['bound']:>5.0f}% {row['verdict']}"
                  f" (n={len(a)}/{len(b)}, spread "
                  f"{100 * row['spread']:.1f}%)")
    failed_before = failures(before_records)
    failed_after = failures(after_records)
    after_failed = False
    for name in sorted(set(failed_before) | set(failed_after)):
        ops_a, tried_a, wrong_a = failed_before.get(name, (0, 0, 0))
        ops_b, tried_b, wrong_b = failed_after.get(name, (0, 0, 0))
        if ops_b or wrong_b:
            after_failed = True
            print(f"FAILED {name}: after {ops_b} of {tried_b} ops failed, "
                  f"{wrong_b} runs not correct (before {ops_a} of "
                  f"{tried_a} ops, {wrong_a} runs)")
        elif ops_a or wrong_a:
            print(f"{name}: before {ops_a} of {tried_a} ops failed, "
                  f"{wrong_a} runs not correct; after none")
    failing |= after_failed
    if args.claim:
        name, _, metric = args.claim.partition(":")
        direction = {m["name"]: m["better"] for m in spec["end_to_end"]}
        if name not in before or name not in after \
                or metric not in direction:
            parser.error(f"no untraced runs or no metric for {args.claim}")
        a = [run["metrics"][metric] for run in before[name]]
        b = [run["metrics"][metric] for run in after[name]]
        won, met = claim(a, b, direction[metric])
        met &= not after_failed
        print(f"claim {args.claim}: change wins {100 * won:.0f}% of "
              f"{min(len(a), len(b))} pairs; "
              f"{'met' if met else 'not met'}"
              f"{' (an AFTER run failed ops)' if after_failed else ''}")
        failing |= not met
    traced_a, traced_b = grouped(before_records, 1), grouped(after_records, 1)
    for name in sorted(set(traced_a) | set(traced_b)):
        for count in EXACT_COUNTS:
            # {seed: value} per side; {} without traced runs, None when
            # the count did not repeat for some seed.
            sides = [repeated_counts(traced[name], count)
                     if name in traced else {}
                     for traced in (traced_a, traced_b)]
            failing |= None in sides
            if None in sides:
                note = "DIFFERS between runs of one side"
            elif all(sides) and sides[0] != sides[1]:
                note = "repeats on each side; changed by AFTER"
            else:
                note = "repeats"
            print(f"traced {name} {count}: before {sides[0]} "
                  f"after {sides[1]}: {note}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
