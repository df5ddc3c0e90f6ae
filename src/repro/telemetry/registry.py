"""Process-wide, label-aware fleet metrics: the third observability layer.

The repo already observes the *simulated* machine twice over —
:mod:`repro.stats` counts simulated events and :mod:`repro.trace`
records simulated cycles — but nothing observed the engine itself:
where a sweep spends wall-clock time, how often the result cache hits,
which execution backend ran how many trials.  :class:`MetricsRegistry`
is that third layer.  It is deliberately *outside* the simulation:
nothing recorded here may feed simulated state (results stay bitwise
identical whatever the registry already holds), nothing here enters a
:class:`~repro.engine.specs.SimSpec` fingerprint, and a
:class:`~repro.engine.session.RunResult` never carries it.

Two metric kinds with Prometheus-compatible semantics:

* **counters** — monotone event counts (``repro_cache_hits_total``).
* **histograms** — wall-clock distributions over a *bounded*, fixed
  bucket layout (:data:`DEFAULT_BUCKETS` plus a +Inf overflow), so a
  long sweep's registry never grows with the data.

Every metric family may carry labels (``backend="pool"``,
``phase="probe"``), giving one naming scheme across the engine instead
of ad-hoc dotted counters per subsystem.  It is the engine's only
wall-clock recorder: per-backend batch and trial counts, cache hits
and misses, and the :data:`PHASE_METRIC` phase profile, whose
``engine.runner`` layer is the one record of a batch's wall time.

Process model: one module-level :data:`~repro.telemetry.REGISTRY` per
process, and every recording site runs in the process that called
:func:`~repro.engine.runner.run_batch` — pool workers only simulate,
so a pool run records the same totals as a serial one.  ``python -m
repro report <command>`` resets the registry, runs one command and
renders what it recorded (:mod:`repro.telemetry.report`).

The registry is always on.  Its sites count events and time phases;
none samples a per-trial duration.
"""

import bisect
import re
import threading
import time

__all__ = [
    "DEFAULT_BUCKETS", "Counter", "MetricsRegistry", "PHASE_METRIC",
    "WallHistogram",
]

#: Bounded upper bounds (seconds) for wall-clock histograms.  The span
#: covers sub-millisecond cache probes up to ten-second bench phases;
#: anything slower lands in the +Inf overflow bucket.
DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: The one histogram family every phase-profiling hook records into,
#: labelled by ``layer`` (which subsystem) and ``phase`` (which step).
PHASE_METRIC = "repro_phase_seconds"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


# ----------------------------------------------------------------------
# metric instruments
# ----------------------------------------------------------------------

class Counter:
    """A monotone event count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters are monotone; inc() takes "
                             f"amount >= 0, got {amount}")
        self.value += amount

    def as_value(self):
        return self.value


class WallHistogram:
    """A bounded-bucket distribution over :data:`DEFAULT_BUCKETS`.

    The bounds are the inclusive upper edges; one extra overflow bucket
    catches everything above the last bound, so the layout — hence the
    registry's memory — is fixed no matter what gets observed.
    """

    __slots__ = ("counts", "count", "total")
    kind = "histogram"

    def __init__(self):
        self.counts = [0] * (len(DEFAULT_BUCKETS) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value):
        self.counts[bisect.bisect_left(DEFAULT_BUCKETS, value)] += 1
        self.count += 1
        self.total += value

    def as_value(self):
        return {"bounds": list(DEFAULT_BUCKETS),
                "counts": list(self.counts),
                "count": self.count, "total": self.total}


class _PhaseTimer:
    """Times one ``with`` block into a phase histogram."""

    __slots__ = ("_hist", "_start")

    def __init__(self, hist):
        self._hist = hist
        self._start = 0.0

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._hist.observe(time.perf_counter() - self._start)
        return False


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

class _Family:
    """One named metric family: kind + help + per-label-set samples."""

    __slots__ = ("name", "kind", "help", "samples")

    def __init__(self, name, kind, help=""):
        self.name = name
        self.kind = kind
        self.help = help
        self.samples = {}       # sorted (label, value) items -> metric

    def sample(self, key):
        metric = self.samples.get(key)
        if metric is None:
            if self.kind == "counter":
                metric = Counter()
            else:
                metric = WallHistogram()
            self.samples[key] = metric
        return metric


def _label_key(labels):
    """Canonical, hashable, deterministic form of a label mapping."""
    if not labels:
        return ()
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((name, str(value))
                        for name, value in labels.items()))


class MetricsRegistry:
    """Label-aware counters and wall-clock histograms.

    Every registry call takes one short lock; recording sites are
    per-batch/per-trial (never per simulated cycle), so the lock is far
    off every hot path.  A handle from :meth:`histogram` records without
    the lock, so it stays with the thread that fetched it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families = {}

    # -- handles -------------------------------------------------------

    def _family(self, name, kind, help):
        family = self._families.get(name)
        if family is None:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid metric name {name!r}")
            family = _Family(name, kind, help=help)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}")
        else:
            if help and not family.help:
                family.help = help
        return family

    def histogram(self, name, help="", **labels):
        """The histogram handle for ``name`` + ``labels``: fetch it
        once, then ``observe`` on it per sample."""
        with self._lock:
            return self._family(name, "histogram", help).sample(
                _label_key(labels))

    # -- recording -----------------------------------------------------

    def inc(self, name, amount=1, help="", **labels):
        """Add ``amount`` to counter ``name`` with ``labels``."""
        with self._lock:
            self._family(name, "counter", help).sample(
                _label_key(labels)).inc(amount)

    def phase(self, layer, phase):
        """Context manager timing one fleet phase into
        :data:`PHASE_METRIC` — ``with REGISTRY.phase("engine.runner",
        "probe"): ...``."""
        return _PhaseTimer(self.histogram(
            PHASE_METRIC,
            help="Wall-clock seconds per orchestration phase",
            layer=layer, phase=phase))

    # -- reading -------------------------------------------------------

    def value(self, name, default=0, **labels):
        """One sample's current value (tests and the bench ledger)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return default
            metric = family.samples.get(_label_key(labels))
            return default if metric is None else metric.as_value()

    def total(self, name):
        """Sum of a counter family across every label set."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return 0
            return sum(metric.as_value()
                       for metric in family.samples.values())

    # -- snapshots -----------------------------------------------------

    def snapshot(self):
        """Picklable, JSON-able, deterministic view of every family.

        ``{name: {"kind": ..., "help": ..., "samples": [[labels,
        value], ...]}}`` with names and label items sorted.  Histogram
        values are their ``as_value`` dicts.
        """
        with self._lock:
            out = {}
            for name in sorted(self._families):
                family = self._families[name]
                out[name] = {
                    "kind": family.kind,
                    "help": family.help,
                    "samples": [
                        [[list(item) for item in key],
                         family.samples[key].as_value()]
                        for key in sorted(family.samples)],
                }
            return out

    def reset(self):
        """Drop every recorded sample."""
        with self._lock:
            self._families.clear()
