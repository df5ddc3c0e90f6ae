"""Mergeable simulation metrics: counters, high-water marks, histograms.

Every distributional claim in the paper — the Figure 4/5 timing
deltas, the Figure 6 bsAES histogram, replay-trial convergence — is a
statement about *why* a run took the cycles it did.  :class:`SimStats`
is the run's one record of them: the pipeline logs store-queue
head-of-line stalls, the memory hierarchy its miss-latency histogram,
and the engine trial bookkeeping.  Counts a component already keeps
(``CPUStats``, the core's per-stage occupancy integrals and peaks, the
hierarchy's, caches', TLB's and plug-ins' ``stats``) are copied in
once, at the end of the run, by the engine's ``Session.run``.

Three value kinds with fixed merge semantics:

* **counters** — monotone event counts; merge by summing.
* **maxima** — high-water marks (peak ROB occupancy, workers seen);
  merge by taking the maximum.
* **histograms** — value distributions (:class:`Histogram`) with a
  per-name bin width; merge by summing per-bin counts.

A :class:`SimStats` is plain picklable data, so worker processes ship
it back inside each :class:`~repro.engine.session.RunResult` and the
parent merges trial records with :meth:`SimStats.merge` — merging is
associative and commutative, so a 4-worker fan-out aggregates to the
same record as a serial run.

Disabled mode: :data:`NULL_STATS` (a :class:`NullStats`) accepts every
recording call as a no-op, so instrumented code needs no conditionals
— though per-cycle hot loops additionally guard on :attr:`enabled` to
keep the disabled overhead to a single attribute test.
"""

import json


class Histogram:
    """Fixed-bin-width value histogram, mergeable and picklable.

    Bins are keyed by their lower edge (``(value // bin_width) *
    bin_width``); only occupied bins are stored, so wide-range
    latency distributions stay small.
    """

    __slots__ = ("bin_width", "bins", "count", "total", "min", "max")

    def __init__(self, bin_width=16):
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = bin_width
        self.bins = {}
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def add(self, value, weight=1):
        bin_lo = (value // self.bin_width) * self.bin_width
        self.bins[bin_lo] = self.bins.get(bin_lo, 0) + weight
        self.count += weight
        self.total += value * weight
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction):
        """Lower-edge of the bin holding the ``fraction`` quantile."""
        if not self.count:
            return None
        threshold = fraction * self.count
        seen = 0
        for bin_lo in sorted(self.bins):
            seen += self.bins[bin_lo]
            if seen >= threshold:
                return bin_lo
        return max(self.bins)

    def merge(self, other):
        if other.bin_width != self.bin_width:
            raise ValueError(
                f"cannot merge histograms with bin widths "
                f"{self.bin_width} and {other.bin_width}")
        for bin_lo, weight in other.bins.items():
            self.bins[bin_lo] = self.bins.get(bin_lo, 0) + weight
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max
        return self

    def as_dict(self):
        """JSON-able form; bin keys become strings, sorted for
        deterministic serialization."""
        return {
            "bin_width": self.bin_width,
            "bins": {str(bin_lo): self.bins[bin_lo]
                     for bin_lo in sorted(self.bins)},
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data):
        hist = cls(bin_width=data["bin_width"])
        hist.bins = {int(bin_lo): count
                     for bin_lo, count in data["bins"].items()}
        hist.count = data["count"]
        hist.total = data["total"]
        hist.min = data["min"]
        hist.max = data["max"]
        return hist

    def __eq__(self, other):
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self):
        return (f"Histogram(bin_width={self.bin_width}, "
                f"count={self.count}, min={self.min}, max={self.max})")


class SimStats:
    """One mergeable metrics record (see module docstring)."""

    __slots__ = ("counters", "maxima", "histograms")

    #: Recording calls are live; hot loops may skip work when False.
    enabled = True

    def __init__(self):
        self.counters = {}
        self.maxima = {}
        self.histograms = {}

    # -- recording -----------------------------------------------------

    def inc(self, name, amount=1):
        """Add ``amount`` to counter ``name`` (merge: sum)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name, value):
        """Raise high-water mark ``name`` to ``value`` (merge: max)."""
        if value > self.maxima.get(name, value - 1):
            self.maxima[name] = value

    def observe(self, name, value, bin_width=16):
        """Add ``value`` to histogram ``name`` (merge: per-bin sum).

        ``bin_width`` only applies when the histogram is first created.
        """
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(bin_width=bin_width)
        hist.add(value)

    # -- reading -------------------------------------------------------

    def get(self, name, default=0):
        """Counter value (falling back to a high-water mark)."""
        if name in self.counters:
            return self.counters[name]
        return self.maxima.get(name, default)

    def histogram(self, name):
        return self.histograms.get(name)

    def __bool__(self):
        return bool(self.counters or self.maxima or self.histograms)

    # -- merging -------------------------------------------------------

    def merge(self, other):
        """Fold ``other`` into this record; returns ``self``.

        ``other`` may be a :class:`SimStats`, a :meth:`as_dict` payload,
        or None/empty (no-op) — so callers can merge
        ``RunResult.metrics`` dicts directly.
        """
        if not other:
            return self
        payload = isinstance(other, dict)
        if payload:
            # Merged as it stands, with no intermediate record.
            counters = other.get("counters", {})
            maxima = other.get("maxima", {})
            histograms = other.get("histograms", {})
        else:
            counters, maxima = other.counters, other.maxima
            histograms = other.histograms
        totals, peaks = self.counters, self.maxima
        for name, amount in counters.items():
            totals[name] = totals.get(name, 0) + amount
        for name, value in maxima.items():
            if value > peaks.get(name, value - 1):
                peaks[name] = value
        for name, hist in histograms.items():
            if payload:
                hist = Histogram.from_dict(hist)
            mine = self.histograms.get(name)
            if mine is None:
                # A histogram of its own, never the source's.
                mine = self.histograms[name] = Histogram(hist.bin_width)
            mine.merge(hist)
        return self

    # -- serialization -------------------------------------------------

    def as_dict(self):
        """Deterministic JSON-able form (sorted keys throughout)."""
        data = {}
        if self.counters:
            data["counters"] = {name: self.counters[name]
                                for name in sorted(self.counters)}
        if self.maxima:
            data["maxima"] = {name: self.maxima[name]
                              for name in sorted(self.maxima)}
        if self.histograms:
            data["histograms"] = {
                name: self.histograms[name].as_dict()
                for name in sorted(self.histograms)}
        return data

    @classmethod
    def from_dict(cls, data):
        stats = cls()
        if not data:
            return stats
        stats.counters.update(data.get("counters", {}))
        stats.maxima.update(data.get("maxima", {}))
        for name, payload in data.get("histograms", {}).items():
            stats.histograms[name] = Histogram.from_dict(payload)
        return stats

    def to_json(self, **kwargs):
        return json.dumps(self.as_dict(), sort_keys=True, **kwargs)

    def __eq__(self, other):
        if isinstance(other, dict):
            return self.as_dict() == other
        if not isinstance(other, SimStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self):
        return (f"SimStats(counters={len(self.counters)}, "
                f"maxima={len(self.maxima)}, "
                f"histograms={len(self.histograms)})")


class NullStats(SimStats):
    """Disabled-mode stats: every recording call is a no-op.

    Shares the :class:`SimStats` read/merge/serialize interface (it is
    always empty), so instrumented code never branches on the mode —
    except per-cycle hot loops, which check :attr:`enabled` once.
    """

    __slots__ = ()

    enabled = False

    def inc(self, name, amount=1):
        pass

    def peak(self, name, value):
        pass

    def observe(self, name, value, bin_width=16):
        pass

    def merge(self, other):
        return self


#: Shared disabled-mode instance.  Recording is a no-op, so one global
#: record is safe to hand to every component.
NULL_STATS = NullStats()


def merge_all(records):
    """Merge an iterable of stats records / ``as_dict`` payloads.

    The canonical batch aggregation: ``merge_all(result.metrics for
    result in run_batch(specs))``.  Merging is associative and
    commutative, so the outcome is independent of trial scheduling.
    """
    merged = SimStats()
    for record in records:
        merged.merge(record)
    return merged
