"""Two-level cache hierarchy with a flat latency model.

Latencies are the channel: every demand access returns the number of
cycles it takes, determined by where the line is found.  Prefetches can
optionally be routed into a small *prefetch buffer* in front of L1 —
the "defense" discussed (and dismissed) in Section V-B3 of the paper:
buffered prefetches stay out of L1, but still fill L2, so a receiver that
probes L2 timing still sees them.
"""

import random
from dataclasses import dataclass, field

from repro.memory.cache import Cache
from repro.trace.buffer import NULL_TRACE


@dataclass
class MemoryLatencies:
    """Cycle costs by hit level.

    The defaults give a > 100-cycle gap between an L1 hit and a memory
    access, matching the paper's observation that a single store miss
    produces an easily distinguishable end-to-end difference (Figure 6).

    ``jitter`` adds seeded, uniform ±jitter cycles to every *memory*
    access (DRAM scheduling, refresh, bus contention), the dominant
    source of timing spread on real systems; the simulator stays
    reproducible because the stream is seeded.  ``draws`` counts the
    jittered latencies handed out: latency -> how many accesses got it.
    """

    l1_hit: int = 2
    l2_hit: int = 12
    memory: int = 120
    store_perform: int = 1
    jitter: int = 0
    seed: int = 0
    _rng: object = field(default=None, repr=False, compare=False)
    draws: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def memory_latency(self):
        """The (possibly jittered) DRAM access latency."""
        if not self.jitter:
            return self.memory
        if self._rng is None:
            self._rng = random.Random(self.seed)
        latency = self.memory + self._rng.randint(-self.jitter, self.jitter)
        self.draws[latency] = self.draws.get(latency, 0) + 1
        return latency


class MemoryHierarchy:
    """L1 + optional L2 presence model over a :class:`FlatMemory`.

    The hierarchy is write-through for data (values always live in the
    backing :class:`FlatMemory`) but write-allocate for presence: a store
    may only *perform* when its line is in L1, which is the property the
    silent-store amplification gadget exploits (Section V-A2).
    """

    def __init__(self, memory, l1=None, l2=None, latencies=None,
                 prefetch_buffer_size=0, tlb=None):
        self.memory = memory
        self.l1 = l1 if l1 is not None else Cache()
        self.l2 = l2
        self.latencies = latencies if latencies is not None else MemoryLatencies()
        self.prefetch_buffer_size = prefetch_buffer_size
        #: Optional TLB: demand accesses AND prefetches translate
        #: through it (the IMP sits close to the core for exactly this;
        #: Section IV-D2).
        self.tlb = tlb
        self._prefetch_buffer = []  # FIFO of line addresses
        #: Shared :class:`repro.trace.TraceBuffer` (the attached core
        #: installs it via :meth:`CPU.install_trace`).
        self.trace = NULL_TRACE
        #: Every event is counted here, in a cache's or the TLB's
        #: ``stats``, or in the latencies' jitter ``draws``; a spec-built
        #: run's stats record gets them via :meth:`snapshot_into`.
        self.stats = {
            "reads": 0, "writes": 0, "prefetches": 0,
            "l1_hits": 0, "l2_hits": 0, "memory_accesses": 0,
            "prefetch_buffer_hits": 0,
        }
        #: Monotone activity counter: bumped on every state-bearing
        #: access (demand reads, writes, prefetches, store fills).  The
        #: fast-path core (:mod:`repro.pipeline.fastpath`) compares it
        #: across a cycle to prove the memory system saw no activity —
        #: including plug-in-initiated traffic — before skipping ahead.
        self.epoch = 0

    # -- presence ------------------------------------------------------------

    def line_in_l1(self, addr):
        return self.l1.contains(addr)

    def line_in_l2(self, addr):
        return self.l2 is not None and self.l2.contains(addr)

    def in_prefetch_buffer(self, addr):
        return self.l1.line_of(addr) in self._prefetch_buffer

    # -- demand accesses -------------------------------------------------------

    def read(self, addr, width=8, fill=True):
        """Demand read: returns ``(value, latency_cycles, hit_level)``.

        ``hit_level`` is one of ``"l1"``, ``"pb"``, ``"l2"``, ``"mem"``.
        A read that memory rejects (:class:`MemoryError_`) raises with no
        state changed.
        """
        value = self.memory.read(addr, width)
        self.epoch += 1
        self.stats["reads"] += 1
        latency, level = self._access_for_latency(addr, fill)
        return value, latency, level

    def read_lines(self, addrs):
        """Latency-only demand reads of ``addrs`` (a sequence), in order.

        Returns the list of latencies and leaves every structure,
        counter, RNG and event as ``[self.read(a)[1] for a in addrs]``
        would, with one difference: all of ``addrs`` are bounds-checked
        before any is read, so an address outside memory raises
        :class:`MemoryError_` with no state changed, where per-line reads
        raise only after the earlier lines changed it.  With an L1 alone
        (no L2, no TLB, nothing in the prefetch buffer) and the trace
        disabled, the reads are one :meth:`Cache.touch_lines` call whose
        hit flags map to latencies, a miss drawing its DRAM latency in
        order; anything else takes the per-line step that :meth:`read`
        takes.
        """
        if not addrs:
            return []
        low = min(addrs)
        self.memory._check(low, max(addrs) + 8 - low)
        self.epoch += len(addrs)
        stats = self.stats
        stats["reads"] += len(addrs)
        if (self.l2 is not None or self.tlb is not None
                or self._prefetch_buffer or self.trace.enabled):
            step = self._access_for_latency
            return [step(addr, True)[0] for addr in addrs]
        hits = self.l1.touch_lines(addrs)
        l1_hits = hits.count(True)
        stats["l1_hits"] += l1_hits
        stats["memory_accesses"] += len(hits) - l1_hits
        l1_hit = self.latencies.l1_hit
        memory_latency = self.latencies.memory_latency
        return [l1_hit if hit else memory_latency() for hit in hits]

    def access_latency(self, addr, fill=True):
        """Latency-only access (used for instruction-less probes)."""
        self.epoch += 1
        latency, _ = self._access_for_latency(addr, fill)
        return latency

    def _access_for_latency(self, addr, fill):
        if self.tlb is not None:
            translation = self.tlb.access(addr)
            if translation and self.trace.enabled:
                self.trace.emit("mem", "tlb_walk", addr=addr,
                                info=f"latency={translation}")
        else:
            translation = 0
        latency, level = self._cache_access(addr, fill)
        return translation + latency, level

    def _fill_l1(self, addr):
        evicted = self.l1.fill_line(addr)
        if evicted is not None and self.trace.enabled:
            self.trace.emit("mem", "l1_evict", addr=evicted)

    def _fill_l2(self, addr):
        evicted = self.l2.fill_line(addr)
        if evicted is not None and self.trace.enabled:
            self.trace.emit("mem", "l2_evict", addr=evicted)

    def _cache_access(self, addr, fill):
        lat = self.latencies
        trace_on = self.trace.enabled
        if self.l1.lookup(addr):
            self.stats["l1_hits"] += 1
            if trace_on:
                self.trace.emit("mem", "l1_hit", addr=addr)
            return lat.l1_hit, "l1"
        line = self.l1.line_of(addr)
        if line in self._prefetch_buffer:
            # Promote from the prefetch buffer into L1.
            self.stats["prefetch_buffer_hits"] += 1
            self._prefetch_buffer.remove(line)
            if fill:
                self._fill_l1(addr)
            if trace_on:
                self.trace.emit("mem", "pb_hit", addr=addr,
                                info=f"latency={lat.l1_hit + 1}")
            return lat.l1_hit + 1, "pb"
        if self.l2 is not None and self.l2.lookup(addr):
            self.stats["l2_hits"] += 1
            if fill:
                self._fill_l1(addr)
            if trace_on:
                self.trace.emit("mem", "l2_hit", addr=addr,
                                info=f"latency={lat.l2_hit}")
            return lat.l2_hit, "l2"
        self.stats["memory_accesses"] += 1
        if fill:
            if self.l2 is not None:
                self._fill_l2(addr)
            self._fill_l1(addr)
        latency = lat.memory_latency()
        if trace_on:
            self.trace.emit("mem", "dram_access", addr=addr,
                            info=f"latency={latency}")
        return latency, "mem"

    def request_line_for_store(self, addr):
        """Bring ``addr``'s line into L1 for a store to perform.

        Returns the fill latency (0 when already resident).  This is the
        path that the amplification gadget stretches: a non-silent store
        whose line was evicted pays the full memory latency here while
        head-of-line blocking the store queue.
        """
        if self.l1.contains(addr):
            return 0
        self.epoch += 1
        latency, _ = self._access_for_latency(addr, fill=True)
        return latency

    def write(self, addr, value, width=8):
        """Architecturally perform a store (line must already be in L1).

        A write that memory rejects (:class:`MemoryError_`) raises with
        no state changed.
        """
        self.memory.write(addr, value, width)
        self.epoch += 1
        self.stats["writes"] += 1
        self.l1.lookup(addr)  # promotes the written line under LRU

    # -- prefetches -----------------------------------------------------------

    def prefetch(self, addr):
        """Prefetcher-initiated fill.

        Fills L2 always; fills L1 directly unless a prefetch buffer is
        configured, in which case the line is parked in the buffer.
        Translates through the TLB when one is attached — the IMP
        prefetches virtual addresses (Section IV-D2), leaving
        page-granularity footprints too.
        """
        self.epoch += 1
        self.stats["prefetches"] += 1
        if self.trace.enabled:
            self.trace.emit("mem", "prefetch", addr=addr)
        if self.tlb is not None:
            walk = self.tlb.access(addr)
            if walk and self.trace.enabled:
                self.trace.emit("mem", "tlb_walk", addr=addr,
                                info=f"latency={walk}")
        if self.l2 is not None:
            self._fill_l2(addr)
        if self.prefetch_buffer_size > 0:
            line = self.l1.line_of(addr)
            if line not in self._prefetch_buffer:
                self._prefetch_buffer.append(line)
                if len(self._prefetch_buffer) > self.prefetch_buffer_size:
                    self._prefetch_buffer.pop(0)
        else:
            self._fill_l1(addr)

    # -- utilities --------------------------------------------------------------

    def snapshot_into(self, metrics):
        """Copy the run's memory-system counts into a stats record.

        Each event is counted once, in ``stats`` or in a :class:`Cache`'s
        or the :class:`TLB`'s own; the record gets whole-run totals,
        non-zero ones only, evictions always.  Counters sum under merge,
        so per-trial snapshots aggregate correctly across a batch.

        ``mem.miss_latency`` is the latency of every demand access that
        missed L1, from the same counts: each prefetch-buffer hit took
        ``l1_hit + 1`` cycles and each L2 hit ``l2_hit``; each DRAM
        access took ``memory``, or with jitter the latency it drew
        (``latencies.draws``).  It is absent when no access missed.
        """
        stats = self.stats
        lat = self.latencies
        dram = (lat.draws if lat.jitter
                else {lat.memory: stats["memory_accesses"]})
        for latency, count in ((lat.l1_hit + 1,
                                stats["prefetch_buffer_hits"]),
                               (lat.l2_hit, stats["l2_hits"]),
                               *dram.items()):
            if count:
                metrics.observe("mem.miss_latency", latency, bin_width=8,
                                count=count)
        copied = {
            "mem.l1.hits": stats["l1_hits"],
            "mem.l1.misses": (stats["prefetch_buffer_hits"]
                              + stats["l2_hits"]
                              + stats["memory_accesses"]),
            "mem.pb.hits": stats["prefetch_buffer_hits"],
            "mem.l2.hits": stats["l2_hits"],
            "mem.dram.accesses": stats["memory_accesses"],
            "mem.writes": stats["writes"],
            "mem.prefetches": stats["prefetches"],
        }
        metrics.inc("mem.l1.evictions", self.l1.stats["evictions"])
        if self.l2 is not None:
            copied["mem.l2.misses"] = stats["memory_accesses"]
            metrics.inc("mem.l2.evictions", self.l2.stats["evictions"])
        if self.tlb is not None:
            copied["mem.tlb.walks"] = self.tlb.stats["misses"]
            copied["mem.tlb.hits"] = self.tlb.stats["hits"]
            metrics.inc("mem.tlb.evictions", self.tlb.stats["evictions"])
        for name, value in copied.items():
            if value:
                metrics.inc(name, value)

    def flush_all(self):
        self.l1.flush()
        if self.l2 is not None:
            self.l2.flush()
        if self.tlb is not None:
            self.tlb.flush()
        self._prefetch_buffer.clear()
