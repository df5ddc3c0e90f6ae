"""Run the repository benchmark.

    python3 bench/run.py [--workload NAME] [--seed N] [--trace [0|1]]
                         [--results DIR]

With ``--workload`` one workload runs in this process and the last line
of standard output is the result JSON: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones).  Without it, every workload runs in a fresh child
process, one after the other (with ``--trace``, each once untraced and
once traced), and the exit status is 1 if any op failed.

The load is one single-threaded closed loop: the next op starts when
the previous one returns.  Set-up is timed three times and the medians
reported: importing the program (each time in a fresh interpreter) and
building attack objects and generated inputs (for ``sweep-warm``, with
the cache prefill).  The measured loop runs at least ``MIN_OPS`` ops and
until ``RUN_SECONDS`` have passed; its first ``digest_ops`` outcomes are
hashed, and for a pinned seed the hash must match ``bench/digests.json``.
Times are scaled to a reference host speed by a calibration kernel
timed on a 5 ms interval timer while ops run (see :class:`HostSpeed`).
``--seconds`` is accepted so that a harness can pass ``run_seconds``
from ``BENCHMARK.json``; the run length is fixed, so any other value is
refused.

``--trace 1`` instead runs exactly ``digest_ops`` ops twice on the same
inputs: untraced, with a counting shim on ``Session.run`` and the public
cache and telemetry counters, then under ``cProfile`` for the split of
time by layer (see ``bench/layers.py``).  Each run writes a run JSON
under ``--results`` (``bench/results/runs`` by default); the traced one
also writes ``bench/results/<workload>.pstats``.
"""

import time


def kernel():
    """Fixed pure-Python work: dict, list, call and integer traffic,
    the mix the interpreted simulator spends its time on."""
    table = {}
    window = []
    acc = 0
    for i in range(1800):
        key = i & 63
        table[key] = table.get(key, 0) + i
        window.append(key)
        if len(window) > 16:
            acc ^= window.pop(0)
        acc += len(table)
    return acc


def calibration_sample():
    """``(began, ended, seconds)``: the median of three kernel runs."""
    clock = time.perf_counter
    began = clock()
    runs = []
    for _ in range(3):
        start = clock()
        kernel()
        runs.append(clock() - start)
    return began, clock(), sorted(runs)[1]


#: Taken before anything else is imported, so that an import timed by
#: :data:`IMPORT_PROBE` has a calibration sample on both sides.
FIRST_SAMPLE = calibration_sample()
STARTED = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: Environment the program reads that the benchmark pins to defaults:
#: the serial backend and telemetry on, as users get them.
PINNED_ENV = ("REPRO_BACKEND", "REPRO_TELEMETRY")

#: How many times set-up runs; ``setup_s`` reports the median.
SETUPS = 3

#: Fewest ops a measured run makes, so p90 has ten samples beyond it.
MIN_OPS = 100

#: Seconds a measured run lasts once it has made ``MIN_OPS`` ops.  Fixed
#: here, not by the caller, so both sides of a comparison measure alike.
RUN_SECONDS = 18

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "op/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("pipeline.trials", "count", "lower"),
    ("pipeline.instructions", "count", "lower"),
    ("pipeline.sim_cycles", "cycle", "lower"),
    ("pipeline.busy_s", "s", "lower"),
    ("pipeline.kips", "kinst/s", "higher"),
    ("pipeline.ipc", "inst/cycle", "higher"),
    ("pipeline.ff_skip_ratio", "ratio", "higher"),
    ("pipeline.template_hit_ratio", "ratio", "higher"),
    ("pipeline.dyninst_reuse_ratio", "ratio", "higher"),
    ("memory.accesses", "count", "lower"),
    ("memory.l1_hit_ratio", "ratio", "higher"),
    ("engine.cache.hits", "count", "higher"),
    ("engine.cache.misses", "count", "lower"),
    ("engine.cache.hit_ratio", "ratio", "higher"),
    ("engine.cache.bytes_written", "B", "lower"),
    ("engine.cache.bytes_read", "B", "lower"),
    ("engine.batches", "count", "lower"),
    ("engine.phase.build_s", "s", "lower"),
    ("engine.phase.probe_s", "s", "lower"),
    ("engine.phase.submit_s", "s", "lower"),
    ("engine.phase.merge_s", "s", "lower"),
    ("engine.specs.fingerprint_calls", "count", "lower"),
    ("isa.program_encode_calls", "count", "lower"),
    ("engine.session.builds", "count", "lower"),
    ("lint.static.programs", "count", "lower"),
    ("optimizations.hook_calls", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def layer_metrics():
    """Per-layer share and self-time metrics, one pair per layer."""
    from layers import LAYERS
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.share", "ratio", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    return tuple(out)


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def import_program():
    """Import the program from this checkout's ``src`` (exit 2 if the
    source is missing or another copy would be measured)."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        _fail(f"no program source at {PACKAGE}")
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)
    import repro
    import workloads  # noqa: F401  (imports the program's public API)
    if not os.path.realpath(repro.__file__).startswith(
            os.path.realpath(PACKAGE)):
        _fail(f"repro imported from {repro.__file__}, not {PACKAGE}")


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


#: Times one import of the program in a fresh interpreter; prints the
#: calibration samples on either side and the import's start and end.
IMPORT_PROBE = """\
import sys
sys.path.insert(0, {bench!r})
import run
run.import_program()
ended = run.time.perf_counter()
print(run.json.dumps([run.FIRST_SAMPLE, run.STARTED, ended,
                      run.calibration_sample()]))
"""


def timed_imports(count):
    """``count`` (reference-host seconds, raw seconds) import timings.

    An import cannot be repeated in one process, so each runs in its own
    interpreter, bracketed by calibration samples taken there.
    """
    env = {key: value for key, value in os.environ.items()
           if key not in PINNED_ENV}
    code = IMPORT_PROBE.format(bench=BENCH)
    out = []
    for _ in range(count):
        child = subprocess.run([sys.executable, "-c", code], env=env,
                               stdout=subprocess.PIPE, text=True,
                               check=True)
        first, began, ended, after = json.loads(child.stdout)
        factor = HostSpeed.factor((first[2] + after[2]) / 2,
                                  IMPORT_SLOWDOWN_EXPONENT)
        out.append(((ended - began) * factor, ended - began))
    return out


def machine():
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform()}


# ----------------------------------------------------------------------
# the counting shim on Session.run
# ----------------------------------------------------------------------

class Shim:
    """Counts every simulation through ``Session.run`` (two clock reads
    per trial) and reads the finished core's fast-path counters."""

    FIELDS = ("trials", "instructions", "sim_cycles", "busy_s",
              "cycles_skipped", "template_hits", "template_misses",
              "pool_reuses", "pool_allocations", "l1_hits", "lookups")

    def __init__(self):
        self.totals = dict.fromkeys(self.FIELDS, 0)

    def __enter__(self):
        from repro.engine import Session
        self.session_cls = Session
        self.original = original = Session.run
        totals = self.totals

        def run(session, max_cycles=None):
            hstats = session.cpu.hierarchy.stats
            l1_before = hstats["l1_hits"]
            lookups_before = _lookups(hstats)
            start = time.perf_counter()
            result = original(session, max_cycles)
            totals["busy_s"] += time.perf_counter() - start
            totals["trials"] += 1
            totals["instructions"] += result.stats["retired"]
            totals["sim_cycles"] += result.cycles
            totals["l1_hits"] += hstats["l1_hits"] - l1_before
            totals["lookups"] += _lookups(hstats) - lookups_before
            fastpath = getattr(session.cpu, "fastpath", None)
            if fastpath is not None:
                for name in ("cycles_skipped", "template_hits",
                             "template_misses", "pool_reuses",
                             "pool_allocations"):
                    totals[name] += getattr(fastpath, name)
            return result

        Session.run = run
        return self

    def __exit__(self, *exc):
        self.session_cls.run = self.original
        return False

    def metrics(self):
        t = self.totals
        return {
            "pipeline.trials": t["trials"],
            "pipeline.instructions": t["instructions"],
            "pipeline.sim_cycles": t["sim_cycles"],
            "pipeline.busy_s": t["busy_s"],
            "pipeline.kips": _ratio(t["instructions"], t["busy_s"]) / 1e3,
            "pipeline.ipc": _ratio(t["instructions"], t["sim_cycles"]),
            "pipeline.ff_skip_ratio": _ratio(t["cycles_skipped"],
                                             t["sim_cycles"]),
            "pipeline.template_hit_ratio": _ratio(
                t["template_hits"],
                t["template_hits"] + t["template_misses"]),
            "pipeline.dyninst_reuse_ratio": _ratio(
                t["pool_reuses"], t["pool_reuses"] + t["pool_allocations"]),
            "memory.accesses": t["lookups"],
            "memory.l1_hit_ratio": _ratio(t["l1_hits"], t["lookups"]),
        }


def _lookups(hstats):
    """L1 lookups: hits plus every kind of miss."""
    return (hstats["l1_hits"] + hstats["prefetch_buffer_hits"]
            + hstats["l2_hits"] + hstats["memory_accesses"])


def _ratio(part, whole):
    return part / whole if whole else 0.0


def counters(workload):
    """Public cache and telemetry counters accumulated so far."""
    from repro import telemetry
    reg = telemetry.REGISTRY
    hits, misses, corrupt = workload.cache_counts()
    out = {
        "engine.cache.hits": hits,
        "engine.cache.misses": misses,
        "engine.cache.hit_ratio": _ratio(hits, hits + misses),
        "engine.cache.corrupt": corrupt,
        "engine.cache.bytes_written":
            reg.total("repro_cache_write_bytes_total"),
        "engine.cache.bytes_read": reg.total("repro_cache_read_bytes_total"),
        "engine.batches": reg.total("repro_backend_batches_total"),
    }
    for phase in ("build", "probe", "submit", "merge"):
        hist = reg.value("repro_phase_seconds", default=None,
                         layer="engine.runner", phase=phase)
        out[f"engine.phase.{phase}_s"] = hist["total"] if hist else 0.0
    return out


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------

#: Seconds between calibration ticks while set-up or ops are timed.
TICK_S = 0.005

#: Median kernel time on the reference host (an otherwise idle 2-vCPU
#: VM, Python 3.11): times are reported as if the host ran at that speed.
REFERENCE_SAMPLE_S = 3.4e-4

#: When the kernel runs k times slower, ops run about k ** 0.8 times
#: slower: the exponent that gave the least ten-seed spread over
#: batches run in calm and in heavily loaded spells (0.8 beat 0.6-1.0).
SLOWDOWN_EXPONENT = 0.8

#: Imports (file reads, unmarshalling) slow down less: 1.4x when the
#: kernel slows 1.9x, over 60 timed imports.
IMPORT_SLOWDOWN_EXPONENT = 0.5


class HostSpeed:
    """Calibration ticks (see :func:`kernel`) taken while ops run.

    A shared host runs the same code up to 1.7x slower, in wall and CPU
    time alike, in spells from milliseconds to seconds long.  Inside
    ``with host:`` an interval timer interrupts the program every
    ``TICK_S`` and times the kernel once.  Each op's time, less the ticks
    taken inside it, is scaled back to the reference host by the ticks
    in and next to it.  Samples taken only between ops missed the short
    spells inside an op and so widened the latency tail: over 650-op
    stretches of fig7 leaks the p90 spread was 4.3% with samples around
    each op and 2.0% with ticks.  Raw times stay in the run JSON.
    """

    def __init__(self):
        self.starts = []
        self.kernel_s = []
        #: Prefix sums of the seconds the ticks took.
        self.spent = [0.0]

    def __enter__(self):
        self.handler = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.handler)
        self._tick()
        return False

    def _tick(self, *signal_args):
        clock = time.perf_counter
        start = clock()
        kernel()
        self.kernel_s.append(clock() - start)
        self.starts.append(start)
        self.spent.append(self.spent[-1] + clock() - start)

    def ticks_s(self, began, ended):
        """Seconds spent in ticks between ``began`` and ``ended``."""
        first = bisect.bisect_left(self.starts, began)
        last = bisect.bisect_left(self.starts, ended)
        return self.spent[last] - self.spent[first]

    def local(self, began, ended):
        """Mean kernel seconds of the ticks within one period of
        [began, ended] (or of the nearest tick)."""
        first = bisect.bisect_left(self.starts, began - TICK_S)
        last = bisect.bisect_right(self.starts, ended + TICK_S)
        if first == last:
            first = min(first, len(self.starts) - 1)
            last = first + 1
        return statistics.fmean(self.kernel_s[first:last])

    @staticmethod
    def factor(kernel_s, exponent=SLOWDOWN_EXPONENT):
        """Reference-host seconds per measured second."""
        return (REFERENCE_SAMPLE_S / kernel_s) ** exponent

    def scaled(self, began, ended):
        """``(reference-host seconds, raw seconds, kernel seconds)`` for
        the interval, ticks left out."""
        raw = ended - began - self.ticks_s(began, ended)
        local = self.local(began, ended)
        return raw * self.factor(local), raw, local

    def overall(self):
        return self.factor(statistics.median(self.kernel_s))


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------

class Loop:
    """Runs ops back to back and records what each returned.

    With a :class:`HostSpeed`, calibration ticks run throughout; their
    time is kept out of the op times and out of ``wall_s``, and times
    are also scaled to the reference host.  A ``profiler`` is on for the
    ops only, not for the garbage collection that prepares them.
    """

    def __init__(self, workload, digest_ops, host=None, profiler=None):
        self.workload = workload
        self.digest_ops = digest_ops
        self.host = host
        self.profiler = profiler
        self.latencies = []
        self.scaled = []
        self.spans = []
        self.outcomes = []
        self.failed = 0
        self.errors = []
        self.kernel_s = []
        self.slot_s = []
        self.wall_s = 0.0
        self.scaled_wall_s = 0.0
        self.peak_rss_mb = 0.0

    def run(self, first_pass, min_ops, max_ops=None, seconds=0.0):
        gc.collect()
        gc.freeze()
        if self.host is None:
            slots = self._ops(first_pass, min_ops, max_ops, seconds)
        else:
            with self.host:
                slots = self._ops(first_pass, min_ops, max_ops, seconds)
        gc.unfreeze()
        for previous, began, ended in slots:
            if self.host is None:
                self.latencies.append(ended - began)
                self.slot_s.append(ended - previous)
                continue
            scaled, raw, local = self.host.scaled(began, ended)
            self.scaled.append(scaled)
            self.latencies.append(raw)
            self.kernel_s.append(local)
            scaled, raw, _ = self.host.scaled(previous, ended)
            self.scaled_wall_s += scaled
            self.slot_s.append(raw)
        self.wall_s = sum(self.slot_s)
        if self.host is None:
            self.scaled, self.scaled_wall_s = self.latencies, self.wall_s
        return self

    def _ops(self, first_pass, min_ops, max_ops, seconds):
        """Run the ops; returns each op's slot: (end of the previous op,
        start, end)."""
        workload = self.workload
        clock = time.perf_counter
        if self.profiler is not None:
            self.profiler.enable()
        start = previous = clock()
        slots = []
        index = 0
        while True:
            if index and index % workload.n_ops == 0:
                workload.begin_pass(first_pass + index // workload.n_ops)
            began = clock()
            try:
                outcome = workload.run(index)
                ok = bool(workload.check(index, outcome))
            except Exception as exc:  # one failed op must not end the run
                outcome = f"error: {type(exc).__name__}: {exc}"
                ok = False
                if len(self.errors) < 5:
                    self.errors.append(traceback.format_exc())
            ended = clock()
            self.spans.append((index, began - start, ended - start))
            slots.append((previous, began, ended))
            previous = ended
            if index < self.digest_ops:
                self.outcomes.append(outcome)
            self.failed += not ok
            index += 1
            if index == min_ops:
                self.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            if max_ops is not None and index >= max_ops:
                break
            if index >= min_ops and ended - start >= seconds:
                break
        if self.profiler is not None:
            self.profiler.disable()
        return slots

    @property
    def attempted(self):
        return len(self.latencies)

    def digest(self):
        blob = hashlib.sha256()
        for outcome in self.outcomes:
            blob.update(json.dumps(outcome, sort_keys=True,
                                   separators=(",", ":")).encode())
            blob.update(b"\n")
        return blob.hexdigest()


def percentile_ms(values, q):
    """The ``q``-th percentile (1-99) of ``values``, in milliseconds."""
    if len(values) < 2:
        return 1e3 * values[0]
    return 1e3 * statistics.quantiles(values, n=100)[q - 1]


def pinned_digest(name, seed):
    with open(os.path.join(BENCH, "digests.json")) as handle:
        return json.load(handle).get(name, {}).get(str(seed))


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------

def run_workload(name, seed, trace=False, ops=None, results=None):
    """Run one workload in this process; returns the run record.

    ``ops`` fixes the op count (a quick run; no digest is pinned then).
    """
    from layers import LayerMap, call_counts, crosscheck, self_seconds
    from repro import telemetry
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    digest_ops = cls.digest_ops if ops is None else ops
    record = {"workload": name, "seed": seed, "seconds": RUN_SECONDS,
              "trace": int(trace), **machine(),
              "load_before": os.getloadavg()}
    scratch = os.path.join(BENCH, ".scratch")
    os.makedirs(scratch, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=scratch)
    try:
        imports = timed_imports(SETUPS)
        host = HostSpeed()
        spans = []
        with host:
            for _ in range(SETUPS):
                began = time.perf_counter()
                workload = cls(seed, tempfile.mkdtemp(dir=scratch))
                spans.append((began, time.perf_counter()))
        builds = [host.scaled(began, ended)[:2] for began, ended in spans]
        setup_s = statistics.median(scaled for scaled, _ in imports) \
            + statistics.median(scaled for scaled, _ in builds)
        raw_setup_s = statistics.median(raw for _, raw in imports) \
            + statistics.median(raw for _, raw in builds)
        telemetry.REGISTRY.reset()
        fixed = trace or ops is not None
        # A traced run reports no end-to-end times, so its untraced ops
        # run without ticks, which would land in pipeline.busy_s.
        with Shim() as shim:
            loop = Loop(workload, digest_ops, None if trace else host).run(
                first_pass=0,
                min_ops=digest_ops if fixed else max(MIN_OPS, digest_ops),
                max_ops=digest_ops if fixed else None,
                seconds=0.0 if fixed else RUN_SECONDS)
        layer_values = {**shim.metrics(), **counters(workload)}
        lat = loop.scaled
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": loop.attempted / loop.scaled_wall_s,
            "op_ms_p50": 1e3 * statistics.median(lat),
            "op_ms_p90": percentile_ms(lat, 90),
            # Read after a fixed number of ops: the program's caches grow
            # with every op, so a later reading would grow with host speed.
            "peak_rss_mb": loop.peak_rss_mb,
        }
        record.update({
            "wall_s": loop.wall_s,
            "import_runs_s": [raw for _, raw in imports],
            "setup_runs_s": [raw for _, raw in builds],
            "host_scale": host.overall(),
            "raw": {"setup_s": raw_setup_s,
                    "ops_per_s": loop.attempted / loop.wall_s,
                    "op_ms_p50": 1e3 * statistics.median(loop.latencies),
                    "op_ms_p90": percentile_ms(loop.latencies, 90)},
            "p90_samples_beyond": sum(
                1 for value in lat if 1e3 * value > metrics["op_ms_p90"]),
            "digest": loop.digest(), "digest_ops": len(loop.outcomes),
            "errors": loop.errors,
        })
        attempted, failed = loop.attempted, loop.failed
        if trace:
            import cProfile
            import pstats
            profiler = cProfile.Profile()
            workload.begin_pass(1)
            traced = Loop(workload, 0, profiler=profiler).run(
                first_pass=1, min_ops=digest_ops, max_ops=digest_ops)
            attempted += traced.attempted
            failed += traced.failed
            stats = pstats.Stats(profiler).stats
            if results is not None:
                os.makedirs(os.path.join(BENCH, "results"), exist_ok=True)
                profiler.dump_stats(os.path.join(BENCH, "results",
                                                 f"{name}.pstats"))
            overhead = traced.wall_s / loop.wall_s
            layers = LayerMap(PACKAGE, BENCH)
            seconds_by_layer = self_seconds(stats, layers)
            total = sum(seconds_by_layer.values()) or 1.0
            for layer, spent in seconds_by_layer.items():
                layer_values[f"{layer}.share"] = spent / total
                layer_values[f"{layer}.self_s"] = \
                    spent / total * loop.wall_s
            layer_values.update(call_counts(stats, layers))
            layer_values["trace.overhead_ratio"] = overhead
            phases = {phase: layer_values[f"engine.phase.{phase}_s"]
                      for phase in ("build", "probe", "submit", "merge")}
            record["crosscheck"] = crosscheck(phases, stats, overhead)
        record["spans"] = loop.spans
        record["op_kernel_s"] = loop.kernel_s
        record["slot_s"] = loop.slot_s
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    expected = pinned_digest(name, seed) if ops is None else None
    if expected is not None and record["digest"] != expected:
        failed = attempted
    record.update({
        "digest_expected": expected, "load_after": os.getloadavg(),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "correct": failed == 0})
    record["metrics"] = {**metrics, **layer_values}
    if results is not None:
        os.makedirs(results, exist_ok=True)
        path = os.path.join(results, f"{name}-seed{seed}-trace{int(trace)}"
                                     f"-{time.time_ns()}.json")
        with open(path, "w") as handle:
            json.dump(record, handle)
        record["path"] = path
    return record


def report(record):
    """Human-readable lines, then the result JSON as the last line."""
    name = record["workload"]
    trace = record["trace"]
    specs = PER_LAYER + layer_metrics() if trace else END_TO_END
    print(f"== {name} seed={record['seed']} trace={trace} "
          f"ops={record['attempted']} failed={record['failed']} "
          f"failed_frac={record['failed_frac']:.4f}")
    print(f"   digest {record['digest'][:16]} over "
          f"{record['digest_ops']} ops; pinned "
          f"{(record['digest_expected'] or 'none')[:16]}")
    if not trace:
        print(f"   op_ms_p90 from {record['attempted']} samples, "
              f"{record['p90_samples_beyond']} beyond it")
    for label, load in (("before", record["load_before"]),
                        ("after", record["load_after"])):
        if load[0] > record["nproc"]:
            print(f"   WARNING load average {load[0]:.2f} {label} the run "
                  f"exceeds nproc={record['nproc']}")
    for error in record["errors"]:
        print("   " + error.rstrip().replace("\n", "\n   "))
    values = record["metrics"]
    for metric, unit, _ in specs:
        print(f"   {metric:34s} {values[metric]:>14.6g} {unit}")
    for row in record.get("crosscheck", ()):
        note = "  DISAGREES by more than 2x" if row["disagrees"] else ""
        print(f"   phase {row['phase']:7s} repro_phase_seconds "
              f"{row['telemetry_s']:.4f} s, traced "
              f"{row['traced_s']:.4f} s{note}")
    if trace:
        engine = ", ".join(
            f"{layer} {values[layer + '.share']:.3f}"
            for layer in ("engine.runner", "engine.specs",
                          "engine.session", "engine.cache",
                          "engine.backends"))
        print(f"   engine shares: {engine}")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit, _ in specs}}))


# ----------------------------------------------------------------------
# every workload, each in a child process
# ----------------------------------------------------------------------

def run_all(args, names):
    env = {key: value for key, value in os.environ.items()
           if key not in PINNED_ENV}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    modes = (0, 1) if args.trace else (0,)
    for name in names:
        for trace in modes:
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--trace", str(trace), "--results", args.results]
            child = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                                   text=True)
            lines = child.stdout.rstrip("\n").split("\n")
            if lines[:-1]:
                print("\n".join(lines[:-1]), flush=True)
            if child.returncode != 0:
                print(f"error: {name} exited with {child.returncode}",
                      file=sys.stderr)
                return child.returncode
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    if not summary["correct"]:
        print(f"error: {summary['failed']} of {summary['attempted']} ops "
              "failed", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    import_program()
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--results",
                        default=os.path.join(BENCH, "results", "runs"))
    args = parser.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        parser.error(f"the run length is fixed at {RUN_SECONDS} s")
    if args.workload is None:
        return run_all(args, tuple(WORKLOADS))
    record = run_workload(args.workload, args.seed, bool(args.trace),
                          results=args.results)
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
