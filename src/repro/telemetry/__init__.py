"""Fleet observability: wall-clock metrics for the engine itself.

The third observability layer, complementing the two *simulated* ones:

===============  =====================  ===============================
layer            observes               unit
===============  =====================  ===============================
repro.stats      simulated events       counts per :class:`RunResult`
repro.trace      simulated time         cycles per event
repro.telemetry  the engine             wall-clock seconds, totals
===============  =====================  ===============================

* :mod:`repro.telemetry.registry` — :class:`MetricsRegistry`
  (label-aware counters and bounded wall-clock histograms with a
  zero-cost disabled path) and the process-wide :data:`REGISTRY`
  every orchestration layer records into.
* :mod:`repro.telemetry.report` — the run report of one command
  (``python -m repro report <command> [args...]``), the registry's
  one front door.

Telemetry is invisible to the simulation: it never enters a
:class:`~repro.engine.specs.SimSpec` fingerprint or a
:class:`~repro.engine.session.RunResult`, and simulated outcomes are
bitwise identical with it enabled or disabled (the differential suite
pins this).  Disable with ``REPRO_TELEMETRY=0`` or
``REGISTRY.set_enabled(False)``;
``benchmarks/bench_instrumentation_overhead.py`` gates the disabled
path at ≤2% on the fig6 KIPS workload.
"""

from repro.telemetry.registry import (
    DEFAULT_BUCKETS, Counter, MetricsRegistry, PHASE_METRIC,
    REPRO_TELEMETRY_ENV, WallHistogram, _env_enabled,
)

__all__ = [
    "Counter", "DEFAULT_BUCKETS", "MetricsRegistry", "PHASE_METRIC",
    "REGISTRY", "REPRO_TELEMETRY_ENV", "WallHistogram",
]

#: The process-wide registry.  Every recording site runs in the
#: process that called ``run_batch``; pool workers only simulate.
REGISTRY = MetricsRegistry(enabled=_env_enabled())
