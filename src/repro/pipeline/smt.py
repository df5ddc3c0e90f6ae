"""A two-thread SMT model (Section IV-B3's threat scenario).

Two hardware threads, each a full :class:`CPU` context (own fetch,
rename, ROB, LSQ, architectural state), sharing what real SMT siblings
share — and what the paper's attacks exploit:

* **issue ports** (ALU/load/store bandwidth per cycle) — the
  port-contention channel, and the arena where operand packing lets a
  receiver "set its own instruction operands such that the packing
  optimization occurs strictly as a function of a victim instruction's
  operands";
* **multiply/divide units** (non-pipelined, busy-until) — the
  SMoTherSpectre-style execution-unit contention channel;
* **the memory hierarchy** (caches, TLB) — the classic shared state;
* **optimization plug-in state** when the same plug-in instance is
  attached to both threads (e.g. one value-prediction table, one reuse
  buffer — the cross-thread priming the paper's IV-C4 attacks assume).

Threads advance in lockstep; issue priority round-robins each cycle.
"""

from repro.pipeline.cpu import CPU, SimulationError


class SMTCore:
    """Two CPUs in lockstep with shared execution resources."""

    def __init__(self, program_a, program_b, hierarchy, config_a=None,
                 config_b=None, plugins_a=(), plugins_b=()):
        # Reference cores: this loop drives each thread through
        # ``step()``, where the fast path's fast-forward never engages.
        self.thread_a = CPU(program_a, hierarchy, config=config_a,
                            plugins=list(plugins_a))
        self.thread_b = CPU(program_b, hierarchy, config=config_b,
                            plugins=list(plugins_b))
        # Share the per-cycle port budget and the arithmetic units.
        self.thread_b.ports = self.thread_a.ports
        self.thread_b.mul_busy_until = self.thread_a.mul_busy_until
        self.thread_b.div_busy_until = self.thread_a.div_busy_until
        self.thread_a._owns_ports = False
        self.thread_b._owns_ports = False
        self.cycle = 0

    @property
    def threads(self):
        return (self.thread_a, self.thread_b)

    def step(self):
        """One joint cycle; issue priority alternates between threads."""
        self.cycle += 1
        self.thread_a.refill_ports()
        order = (self.thread_a, self.thread_b)
        if self.cycle % 2:
            order = (self.thread_b, self.thread_a)
        for thread in order:
            if not thread.halted:
                thread.step()

    def run(self, max_cycles=1_000_000):
        """Run until both threads halt; returns (stats_a, stats_b)."""
        while not (self.thread_a.halted and self.thread_b.halted):
            if self.cycle >= max_cycles:
                raise SimulationError(
                    f"SMT pair exceeded {max_cycles} cycles")
            self.step()
        return self.thread_a.stats, self.thread_b.stats
