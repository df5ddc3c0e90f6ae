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
  (label-aware counters and bounded wall-clock histograms) and the
  process-wide :data:`REGISTRY` every orchestration layer records
  into.  A batch's wall time is recorded once, as the
  ``engine.runner`` phases of ``repro_phase_seconds``; there are no
  per-trial samples.
* :mod:`repro.telemetry.report` — the run report of one command
  (``python -m repro report <command> [args...]``), the registry's
  one front door.

Telemetry is always on and invisible to the simulation: it never
enters a :class:`~repro.engine.specs.SimSpec` fingerprint or a
:class:`~repro.engine.session.RunResult`, and simulated outcomes are
bitwise identical whatever the registry already holds
(``tests/test_telemetry_integration.py`` pins this).
"""

from repro.telemetry.registry import (
    DEFAULT_BUCKETS, Counter, MetricsRegistry, PHASE_METRIC,
    WallHistogram,
)

__all__ = [
    "Counter", "DEFAULT_BUCKETS", "MetricsRegistry", "PHASE_METRIC",
    "REGISTRY", "WallHistogram",
]

#: The process-wide registry.  Every recording site runs in the
#: process that called ``run_batch``; pool workers only simulate.
REGISTRY = MetricsRegistry()
