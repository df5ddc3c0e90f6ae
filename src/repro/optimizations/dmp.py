"""Data memory-dependent prefetching (Sections I, IV-D2, V-B).

A model of the *indirect-memory prefetcher* (IMP) of Yu et al.
(MICRO'15, Intel patent US9582422B2), in both its 2-level
(``Y[Z[i]]``) and 3-level (``X[Y[Z[i]]]``) forms.

How the model learns, mirroring the IMP design (Section V-B2):

1. A **stride detector** watches per-PC load addresses and flags
   streaming loads (the ``Z[i]`` accesses).
2. An **indirection solver** watches pairs of (producer value, consumer
   address) samples.  From two samples with distinct producer values it
   solves ``addr = base + (value << shift)`` for power-of-two scales —
   exactly how IMP recovers ``&Y[0]`` and the element size without any
   software cooperation.
3. Confirmed links are chained behind a streaming PC.  On each stream
   advance, the prefetcher walks the chain ``delta`` iterations ahead:
   it **reads program data memory directly** (``z = mem[z_addr]``,
   ``y = mem[baseY + (z << shift)]``) and prefetches each derived line.

The crucial security property is faithful to hardware: the prefetcher
has *no knowledge of array bounds* (Section V-B2), so attacker-planted
values past the end of ``Z`` steer its dereferences anywhere in memory,
and the final prefetch's cache fill transmits the loaded value — the
universal read gadget of Figure 1.

Prefetches go through :meth:`MemoryHierarchy.prefetch`, so the prefetch
buffer "defense" of Section V-B3 can be switched on to show it only
aggravates the attack (L2 still fills).
"""

from collections import deque
from dataclasses import dataclass

from repro.isa.opcodes import Op
from repro.memory.flatmem import MemoryError_
from repro.pipeline.plugins import FF_WAKEUP, OptimizationPlugin


@dataclass
class StrideEntry:
    last_addr: int
    stride: int = 0
    confidence: int = 0
    width: int = 8


@dataclass
class IndirectionLink:
    """A solved relation: consumer_addr = base + (producer_value << shift)."""

    producer_pc: int
    consumer_pc: int
    base: int
    shift: int
    width: int  # consumer load width in bytes
    confidence: int = 1

    def target(self, value):
        return self.base + (value << self.shift)


@dataclass
class PrefetchJob:
    """One in-flight chained prefetch walk."""

    z_addr: int
    z_width: int
    links: list
    stage: int = 0
    ready_cycle: int = 0
    value: int = 0


class IndirectMemoryPrefetcher(OptimizationPlugin):
    """IMP: 2- or 3-level indirect-memory prefetcher."""

    name = "indirect-memory-prefetcher"

    #: The chained walk advances in ``end_of_cycle`` whenever the head
    #: job's stage latency has elapsed; :meth:`ff_next_cycle` bounds a
    #: skip to that point.  Learning hooks are pure (driven by retired
    #: loads), so an empty job queue imposes no constraint.
    ff_policy = FF_WAKEUP

    metric_names = {
        "jobs_launched": "opt.imp.jobs_launched",
        "prefetches": "opt.imp.prefetches",
    }

    def ff_next_cycle(self):
        if not self._jobs:
            return None
        return max(self.cpu.cycle + 1, self._jobs[0].ready_cycle)

    #: Static leakage contract (:mod:`repro.lint.contracts`): the
    #: indirection solver dereferences values returned by loads — a
    #: secret loaded value becomes a prefetch *address*, observable
    #: through the cache (the paper's universal read gadget).
    LINT_CONTRACT = {
        "mld": "prefetch_target",
        "rows": (
            {"ops": (Op.LOAD,), "taps": ("loaded_value",),
             "detail": "loaded values are dereferenced as prefetch "
                       "pointers"},
        ),
        "defaults": {"levels": 3},
        # A two-level prefetcher still dereferences loaded values, so
        # the contract must hold under the levels ablation too.
        "domains": {"levels": (2, 3)},
    }

    def __init__(self, levels=3, delta=4, stride_threshold=2,
                 link_threshold=2, stage_latency=8, max_jobs=8,
                 history_length=6):
        super().__init__()
        if levels < 2:
            raise ValueError("an indirect prefetcher needs >= 2 levels")
        self.levels = levels
        #: Prefetch distance (the paper's ``i + Δ``; IMP uses Δ=4).
        self.delta = delta
        self.stride_threshold = stride_threshold
        self.link_threshold = link_threshold
        #: Cycles each chained dereference takes.
        self.stage_latency = stage_latency
        self.max_jobs = max_jobs

        self._strides = {}
        self._samples = {}  # (producer_pc, consumer_pc) -> (value, addr)
        self._links = {}    # (producer_pc, consumer_pc) -> IndirectionLink
        self._recent = deque(maxlen=history_length)
        self._jobs = []
        self.stats = {"stream_advances": 0, "links_confirmed": 0,
                      "jobs_launched": 0, "prefetches": 0,
                      "out_of_memory_aborts": 0}

    def reset(self):
        self._strides.clear()
        self._samples.clear()
        self._links.clear()
        self._recent.clear()
        self._jobs.clear()

    # ------------------------------------------------------------------
    # learning
    # ------------------------------------------------------------------

    def on_load_response(self, dyn, addr, value):
        pc = dyn.pc
        self._update_stride(pc, addr, dyn.inst.width)
        self._update_links(pc, addr, dyn.inst.width)
        self._recent.append((pc, addr, value, dyn.seq))
        self._maybe_launch(pc, addr)

    def _update_stride(self, pc, addr, width):
        entry = self._strides.get(pc)
        if entry is None:
            self._strides[pc] = StrideEntry(last_addr=addr, width=width)
            return
        stride = addr - entry.last_addr
        if stride != 0 and stride == entry.stride:
            entry.confidence += 1
        else:
            entry.stride = stride
            entry.confidence = 0
        entry.last_addr = addr

    def _update_links(self, consumer_pc, consumer_addr, width):
        # A confidently-striding load is handled by the stream engine and
        # never enters the indirect table as a consumer (IMP separates
        # the stream detector from the indirect-pattern detector).
        stride = self._strides.get(consumer_pc)
        if stride is not None and stride.confidence >= self.stride_threshold:
            return
        # Out-of-order completion interleaves iterations, so several
        # producer values of the same PC can sit in the history at once.
        # A link is re-confirmed when ANY of them predicts this consumer
        # address, and degraded only when none does.
        per_key = {}
        for producer_pc, _p_addr, producer_value, _seq in self._recent:
            if producer_pc == consumer_pc:
                continue
            key = (producer_pc, consumer_pc)
            per_key.setdefault(key, []).append(producer_value)
        for key, values in per_key.items():
            link = self._links.get(key)
            if link is not None:
                if any(link.target(value) == consumer_addr
                       for value in values):
                    link.confidence += 1
                else:
                    link.confidence -= 1
                    if link.confidence <= 0:
                        del self._links[key]
                continue
            sample = self._samples.get(key)
            solved = None
            if sample is not None:
                for value in values:
                    solved = self._solve(sample[0], sample[1], value,
                                         consumer_addr)
                    if solved is not None:
                        break
            self._samples[key] = (values[-1], consumer_addr)
            if solved is None:
                continue
            base, shift = solved
            self._links[key] = IndirectionLink(
                key[0], consumer_pc, base, shift, width)
            self.stats["links_confirmed"] += 1

    @staticmethod
    def _solve(value0, addr0, value1, addr1):
        """Solve addr = base + (value << shift) from two samples."""
        dv = value1 - value0
        da = addr1 - addr0
        if dv == 0 or da == 0:
            return None
        if da % dv:
            return None
        scale = da // dv
        if scale <= 0 or scale & (scale - 1):
            return None
        shift = scale.bit_length() - 1
        base = addr1 - (value1 << shift)
        if base < 0:
            return None
        return base, shift

    # ------------------------------------------------------------------
    # prefetch launch and chained walk
    # ------------------------------------------------------------------

    def _best_link_from(self, producer_pc):
        """Highest-confidence confirmed link with the given producer.

        Confidence selection matters: accidental correlations can form
        short-lived links, but only the true indirection re-confirms on
        every iteration.
        """
        best = None
        for link in self._links.values():
            if link.producer_pc != producer_pc:
                continue
            if link.confidence < self.link_threshold:
                continue
            if best is None or link.confidence > best.confidence:
                best = link
        return best

    def _chain_for(self, stream_pc):
        """Find the confirmed link chain rooted at a streaming PC.

        An N-level prefetcher chains N-1 links (2-level: ``Y[Z[i]]``,
        3-level: ``X[Y[Z[i]]]`` as in IMP, 4-level:
        ``W[X[Y[Z[i]]]]`` as in Ainsworth & Jones's graph prefetcher).
        """
        chain = []
        producer_pc = stream_pc
        visited = {stream_pc}
        for _level in range(self.levels - 1):
            link = self._best_link_from(producer_pc)
            if link is None or link.consumer_pc in visited:
                return None
            chain.append(link)
            visited.add(link.consumer_pc)
            producer_pc = link.consumer_pc
        return chain

    def _maybe_launch(self, pc, addr):
        stride = self._strides.get(pc)
        if stride is None or stride.confidence < self.stride_threshold:
            return
        chain = self._chain_for(pc)
        if chain is None:
            return
        self.stats["stream_advances"] += 1
        if len(self._jobs) >= self.max_jobs:
            return
        job = PrefetchJob(
            z_addr=addr + self.delta * stride.stride,
            z_width=stride.width, links=chain,
            ready_cycle=self.cpu.cycle + self.stage_latency)
        self._jobs.append(job)
        self.stats["jobs_launched"] += 1

    def end_of_cycle(self, free_load_ports):
        if not self._jobs:
            return 0
        job = self._jobs[0]
        if self.cpu.cycle < job.ready_cycle:
            return 0
        self._step_job(job)
        if job.stage > len(job.links):
            self._jobs.pop(0)
        return 0

    def _step_job(self, job):
        memory = self.cpu.memory
        try:
            if job.stage == 0:
                # Dereference Z[i + Δ] — no bounds check, by design.
                self._prefetch(job, job.z_addr)
                job.value = memory.read(job.z_addr, job.z_width)
            else:
                link = job.links[job.stage - 1]
                addr = link.target(job.value)
                self._prefetch(job, addr)
                if job.stage < len(job.links):
                    job.value = memory.read(addr, link.width)
        except MemoryError_:
            # Off the end of physical memory: hardware would squash the
            # prefetch; the job dies.
            self.stats["out_of_memory_aborts"] += 1
            job.stage = len(job.links) + 1
            return
        job.stage += 1
        job.ready_cycle = self.cpu.cycle + self.stage_latency

    def _prefetch(self, job, addr):
        self.cpu.hierarchy.prefetch(addr)
        self.stats["prefetches"] += 1
        if self.trace.enabled:
            self.trace.emit("opt", self.name, addr=addr,
                            info=f"prefetch_stage{job.stage}")

    def drain(self):
        """Run all queued prefetch jobs to completion.

        A hardware prefetcher keeps walking its chains after the
        triggering program finishes; the simulator stops stepping at
        HALT, so attack drivers and tests call this to flush the queue.
        """
        while self._jobs:
            job = self._jobs[0]
            self._step_job(job)
            if job.stage > len(job.links):
                self._jobs.pop(0)

    # ------------------------------------------------------------------
    # inspection (used by tests and the URG analysis)
    # ------------------------------------------------------------------

    @property
    def links(self):
        return list(self._links.values())

    def streaming_pcs(self):
        return [pc for pc, entry in self._strides.items()
                if entry.confidence >= self.stride_threshold]
