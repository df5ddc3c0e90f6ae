"""Fleet observability: wall-clock metrics for the engine itself.

The third observability layer, complementing the two *simulated* ones:

=============  =======================  ===============================
layer          observes                 unit
=============  =======================  ===============================
repro.stats    simulated events         counts per :class:`RunResult`
repro.trace    simulated time           cycles per event
repro.telemetry  the engine fleet      wall-clock seconds, live totals
=============  =======================  ===============================

* :mod:`repro.telemetry.registry` — :class:`MetricsRegistry`
  (label-aware counters / gauges / bounded wall-clock histograms with
  snapshot-merge semantics and a zero-cost disabled path) and the
  process-wide :data:`REGISTRY` every orchestration layer records into.
* :mod:`repro.telemetry.expo` — the Prometheus text exposition.
* :mod:`repro.telemetry.server` — the stdlib ``/metrics`` +
  ``/healthz`` HTTP endpoint (``python -m repro serve-metrics``).
* :mod:`repro.telemetry.report` — the merged run report
  (``python -m repro report``).

Telemetry is invisible to the simulation: it never enters a
:class:`~repro.engine.specs.SimSpec` fingerprint or a
:class:`~repro.engine.session.RunResult`, and simulated outcomes are
bitwise identical with it enabled or disabled (the differential suite
pins this).  Disable with ``REPRO_TELEMETRY=0`` or
:func:`set_enabled`; ``benchmarks/bench_instrumentation_overhead.py``
gates the disabled path at ≤2% on the fig6 KIPS workload.
"""

import os
import time

from repro.telemetry.expo import CONTENT_TYPE, render_prometheus
from repro.telemetry.registry import (
    DEFAULT_BUCKETS, Counter, Gauge, MetricsRegistry, PHASE_METRIC,
    REPRO_TELEMETRY_ENV, WallHistogram, _env_enabled,
)

__all__ = [
    "CONTENT_TYPE", "Counter", "DEFAULT_BUCKETS", "Gauge",
    "MetricsRegistry", "PHASE_METRIC", "REGISTRY",
    "REPRO_TELEMETRY_ENV", "WallHistogram", "enabled", "phase",
    "render_prometheus", "set_enabled", "worker_heartbeat",
]

#: The process-wide registry.  In-process execution records straight
#: into it; pool workers drain their (forked) copy per job and ship the
#: snapshot back for the parent to merge.
REGISTRY = MetricsRegistry(enabled=_env_enabled())


def enabled():
    """Is fleet telemetry recording in this process?"""
    return REGISTRY.enabled


def set_enabled(flag):
    """Enable/disable the process registry (``REPRO_TELEMETRY`` sets
    the initial state)."""
    REGISTRY.set_enabled(flag)


def phase(layer, phase):
    """``with telemetry.phase("engine.runner", "probe"): ...`` — time
    one orchestration phase into the process registry."""
    return REGISTRY.phase(layer, phase)


def worker_heartbeat(trials=1, registry=None):
    """Record this worker process's liveness: a last-seen wall-clock
    gauge plus a per-worker trial counter, both labelled by pid.  Pool
    workers call this per job; the snapshot merge's gauge-max rule
    keeps the freshest heartbeat per pid in the parent."""
    registry = REGISTRY if registry is None else registry
    if not registry.enabled:
        return
    pid = str(os.getpid())
    registry.set("repro_worker_heartbeat_timestamp_seconds",
                 time.time(),  # det-lint: allow — fleet liveness, never simulated state
                 help="Unix time this worker last completed a trial",
                 pid=pid)
    registry.inc("repro_worker_trials_total", trials,
                 help="Trials completed per worker process", pid=pid)
