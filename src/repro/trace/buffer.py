"""Cycle-accurate event tracing: typed events in a bounded ring buffer.

Where :mod:`repro.stats` answers *how much* (counters, maxima,
histograms), this module answers *when* and *why*: every layer of the
simulator — the out-of-order core, the memory hierarchy, and the
optimization plug-ins — emits typed events into one
:class:`TraceBuffer`, so a run can be replayed as a timeline (the
Figure 4 store cases, the Figure 5 head-of-line amplification) instead
of an aggregate delta.

Events are plain tuples ``(cycle, category, name, seq, pc, addr,
info)`` — picklable, JSON-able, and cheap to emit.  ``seq``/``pc``/
``addr`` are ``-1`` when not applicable; ``info`` is a short free-form
string (instruction text at dispatch, an MLD outcome tag on plug-in
firings, a latency on cache fills).

The buffer is a bounded ring: when ``capacity`` is reached the oldest
event is overwritten and the overwrite is counted (``dropped``, plus
the ``trace.dropped_events`` counter of the attached
:class:`~repro.stats.SimStats`), so a full trace never grows without
bound and truncation is always visible.  Per-category filters and
per-category sampling keep full-fleet traces affordable.

Everything recorded here is derived from simulated state only (cycle
numbers, addresses, sequence numbers), so a trace payload is bitwise
deterministic across serial and pooled execution — the same contract
as :class:`~repro.stats.SimStats`.  Wall-clock engine telemetry lives
in the :mod:`repro.telemetry` registry instead.

Disabled mode: :data:`NULL_TRACE` (a :class:`NullTraceBuffer`) accepts
every ``emit`` as a no-op; hot paths additionally guard on
:attr:`TraceBuffer.enabled` so an untraced run pays one attribute test
per site.
"""

from collections import deque

from repro.stats import NULL_STATS

#: The event taxonomy.  See DESIGN.md ("The trace layer") for what each
#: layer emits into which category.
#:
#: * ``fetch``  — the front end fetched an instruction (pc only).
#: * ``inst``   — instruction lifecycle: dispatch, issue, complete,
#:   retire, squash_request, squash, flush.
#: * ``sq``     — store-queue events: address_resolved, ss_load_issued,
#:   ss_load_returned, fill_request, hol_stall, silent_dequeue, perform.
#: * ``mem``    — hierarchy events: l1_hit/l2_hit/pb_hit/dram_access,
#:   l1_evict/l2_evict, tlb_walk, prefetch.
#: * ``opt``    — optimization-plug-in firings, tagged with their MLD
#:   outcome in ``info`` (e.g. ``case_a_silent``, ``mispredict_squash``).
CATEGORIES = ("fetch", "inst", "sq", "mem", "opt")

#: What the Figure 4 :func:`~repro.trace.timeline.store_timelines`
#: reader consumes: instruction lifecycle plus store-queue events.
PIPELINE_CATEGORIES = ("inst", "sq")


class TraceError(Exception):
    """Raised for malformed trace configurations."""


class TraceBuffer:
    """Bounded ring buffer of trace events (see module docstring).

    Parameters
    ----------
    capacity:
        Ring size in events; the oldest event is overwritten (and
        counted as dropped) once full.
    categories:
        Iterable of :data:`CATEGORIES` members to record; ``None`` or
        empty records everything.
    sample:
        Keep every ``sample``-th event *per category* (1 = keep all).
        Sampling is positional over the (deterministic) event stream,
        so sampled traces stay reproducible.
    metrics:
        Optional :class:`~repro.stats.SimStats` that receives the
        ``trace.dropped_events`` counter.
    """

    enabled = True

    __slots__ = ("capacity", "categories", "sample", "metrics", "_clock",
                 "_events", "_sampled", "emitted", "dropped", "filtered")

    def __init__(self, capacity=65536, categories=None, sample=1,
                 metrics=None):
        if capacity <= 0:
            raise TraceError("capacity must be positive")
        if sample <= 0:
            raise TraceError("sample must be positive")
        if categories:
            unknown = sorted(set(categories) - set(CATEGORIES))
            if unknown:
                raise TraceError(f"unknown trace categories {unknown}; "
                                 f"known: {sorted(CATEGORIES)}")
            self.categories = frozenset(categories)
        else:
            self.categories = None
        self.capacity = capacity
        self.sample = sample
        self.metrics = metrics if metrics is not None else NULL_STATS
        self._clock = None
        self._events = deque(maxlen=capacity)
        self._sampled = {}
        self.emitted = 0    # events accepted into the ring
        self.dropped = 0    # accepted events later overwritten
        self.filtered = 0   # events rejected by filter or sampling

    # -- recording -----------------------------------------------------

    def set_clock(self, clock):
        """Install a zero-arg current-cycle callable (the core's clock),
        used when ``emit`` is called without an explicit ``cycle``."""
        self._clock = clock

    def emit(self, category, name, cycle=None, seq=-1, pc=-1, addr=-1,
             info=""):
        """Record one event (subject to the filter and sampling)."""
        if self.categories is not None and category not in self.categories:
            self.filtered += 1
            return
        if self.sample > 1:
            seen = self._sampled.get(category, 0)
            self._sampled[category] = seen + 1
            if seen % self.sample:
                self.filtered += 1
                return
        if cycle is None:
            cycle = self._clock() if self._clock is not None else 0
        if len(self._events) == self.capacity:
            self.dropped += 1
            self.metrics.inc("trace.dropped_events")
        self._events.append((cycle, category, name, seq, pc, addr, info))
        self.emitted += 1

    # -- reading -------------------------------------------------------

    def __len__(self):
        return len(self._events)

    def __bool__(self):
        return bool(self._events)

    def events(self, category=None):
        """Retained events oldest-first (optionally one category)."""
        if category is None:
            return list(self._events)
        return [event for event in self._events if event[1] == category]

    def clear(self):
        self._events.clear()
        self._sampled.clear()
        self.emitted = 0
        self.dropped = 0
        self.filtered = 0

    # -- serialization -------------------------------------------------

    def as_payload(self):
        """Deterministic JSON-able form (the ``RunResult.trace`` field)."""
        return {
            "capacity": self.capacity,
            "sample": self.sample,
            "categories": (sorted(self.categories)
                           if self.categories is not None else []),
            "emitted": self.emitted,
            "dropped": self.dropped,
            "filtered": self.filtered,
            "events": [list(event) for event in self._events],
        }

    def __repr__(self):
        return (f"TraceBuffer(capacity={self.capacity}, "
                f"events={len(self._events)}, dropped={self.dropped})")


class NullTraceBuffer(TraceBuffer):
    """Disabled-mode trace: every ``emit`` is a no-op.

    Shares the read/serialize interface (always empty) so instrumented
    code never branches on the mode — except per-cycle hot paths, which
    check :attr:`enabled` once per site.
    """

    enabled = False

    __slots__ = ()

    def __init__(self):
        super().__init__(capacity=1)

    def set_clock(self, clock):
        pass

    def emit(self, category, name, cycle=None, seq=-1, pc=-1, addr=-1,
             info=""):
        pass


#: Shared disabled-mode instance (emit is a no-op, so one global
#: buffer is safe to hand to every component).
NULL_TRACE = NullTraceBuffer()


def events_of(trace):
    """Event tuples from a :class:`TraceBuffer` or an ``as_payload``
    dict (e.g. a ``RunResult.trace`` field)."""
    if isinstance(trace, TraceBuffer):
        return trace.events()
    if not trace:
        return []
    return [tuple(event) for event in trace.get("events", ())]
