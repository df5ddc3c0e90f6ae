"""Cache covert-channel receivers (Section II of the paper).

The classic Prime+Probe receiver (Osvik, Shamir & Tromer, CT-RSA'06),
operating on the simulator's cache hierarchy: the attacker *primes*
cache sets with its own lines, lets the transmitter run, then *probes*
its lines again — a set whose probe is slow lost a way to the victim.

The receiver measures with access latencies, exactly what a real
receiver derives from its timer; there is no oracle access to cache
internals on this path.  (Tests separately use `Cache.resident_lines`
to cross-check the receiver against ground truth.)
"""


class PrimeProbeReceiver:
    """Prime+Probe over the L1 (or any) cache of a hierarchy.

    Parameters
    ----------
    hierarchy:
        The shared :class:`repro.memory.MemoryHierarchy`.
    buffer_base:
        Base address of the attacker's own probing buffer.  Must be
        aligned to ``num_sets * line_size`` so that offset-zero maps to
        set 0, and the ``ways * num_sets * line_size`` bytes it spans
        must lie inside the hierarchy's memory.

    The way addresses are computed once; :meth:`prime` and
    :meth:`probe` each hand them to one
    :meth:`~repro.memory.MemoryHierarchy.read_lines` call.
    """

    def __init__(self, hierarchy, buffer_base, cache=None):
        self.hierarchy = hierarchy
        self.cache = cache if cache is not None else hierarchy.l1
        span = self.cache.num_sets * self.cache.line_size
        if buffer_base % span:
            raise ValueError(
                f"buffer_base {buffer_base:#x} must be aligned to "
                f"{span:#x}")
        end = buffer_base + self.cache.ways * span
        if buffer_base < 0 or end > hierarchy.memory.size:
            raise ValueError(
                f"buffer [{buffer_base:#x}, {end:#x}) does not fit in "
                f"memory of size {hierarchy.memory.size:#x}")
        self.buffer_base = buffer_base
        #: Latency above which a probe access counts as a miss.
        self.miss_threshold = hierarchy.latencies.l1_hit
        #: ``set_index -> (way 0 address, way 1 address, ...)``.
        self._set_lines = {
            set_index: tuple(self.way_address(set_index, way)
                             for way in range(self.cache.ways))
            for set_index in range(self.cache.num_sets)}
        self._all_lines = [addr for lines in self._set_lines.values()
                           for addr in lines]

    def way_address(self, set_index, way):
        """Attacker-buffer address mapping to ``set_index`` (one per way)."""
        stride = self.cache.num_sets * self.cache.line_size
        return (self.buffer_base + set_index * self.cache.line_size
                + way * stride)

    def _lines_of(self, target_sets):
        """Every way address of ``target_sets`` (all sets for None),
        set by set."""
        if target_sets is None:
            return self._all_lines
        return [addr for set_index in target_sets
                for addr in self._set_lines[set_index]]

    def prime(self, target_sets=None):
        """Fill every target set with the attacker's own lines."""
        self.hierarchy.read_lines(self._lines_of(target_sets))

    def probe(self, target_sets=None):
        """Re-access primed lines; returns ``{set_index: total_latency}``."""
        if target_sets is not None:
            target_sets = list(target_sets)  # read twice below
        latencies = self.hierarchy.read_lines(self._lines_of(target_sets))
        if target_sets is None:
            target_sets = range(self.cache.num_sets)
        ways = self.cache.ways
        return {set_index: sum(latencies[i * ways:(i + 1) * ways])
                for i, set_index in enumerate(target_sets)}

    def evicted_sets(self, probe_latencies):
        """Sets where at least one way missed (victim activity)."""
        baseline = self.cache.ways * self.miss_threshold
        return sorted(set_index
                      for set_index, latency in probe_latencies.items()
                      if latency > baseline)


class FlushReloadReceiver:
    """Flush+Reload (Yarom & Falkner, Security'14) for shared-memory
    settings: flush a shared line, let the victim run, reload and time.

    Used by tests as a second receiver against the same transmitters.
    """

    def __init__(self, hierarchy):
        self.hierarchy = hierarchy

    def flush(self, addr):
        self.hierarchy.l1.invalidate(addr)
        if self.hierarchy.l2 is not None:
            self.hierarchy.l2.invalidate(addr)

    def reload(self, addr):
        """Returns (was_cached, latency)."""
        cached = self.hierarchy.line_in_l1(addr) or self.hierarchy.line_in_l2(addr)
        _value, latency, _level = self.hierarchy.read(addr)
        return cached, latency
