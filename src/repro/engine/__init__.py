"""The experiment engine: one way to build and run every simulation.

Four layers (Section II-2's replay-attack structure, industrialized):

* **Specs** (:mod:`repro.engine.specs`) — :class:`SimSpec` and friends:
  a declarative, picklable, content-hashable description of one
  simulation (program + :class:`CPUConfig` + hierarchy + plug-ins +
  memory image + registers + seed).
* **Sessions** (:mod:`repro.engine.session`) — :class:`Session` builds
  a spec into a ready core and packages each run as a structured,
  JSON-serializable :class:`RunResult`.
* **Runner + cache** (:mod:`repro.engine.runner`,
  :mod:`repro.engine.cache`) — :func:`run_batch` fingerprints each
  spec once, bulk-probes the optional content-addressed
  :class:`ResultCache`, and hands only distinct misses to the
  selected execution backend.
* **Backends** (:mod:`repro.engine.backends`) — how misses execute:
  one ``map`` of :func:`execute_spec`, in process (``"serial"``,
  trace-friendly) or on a process pool (``"pool"``).  Both are
  bitwise-equivalent; pick one through ``workers`` or per process
  (``REPRO_BACKEND=pool``).

Typical use::

    from repro.engine import SimSpec, PluginSpec, run_batch

    specs = [SimSpec(program=program,
                     plugins=(PluginSpec.of("silent-stores"),),
                     mem_writes=((0x8000, guess, 2),),
                     label=f"guess={guess:#x}")
             for guess in range(256)]
    results = run_batch(specs, workers=4)          # pool backend
    cycles = [result.cycles for result in results]
"""

from repro.engine.backends import BACKEND_NAMES, REPRO_BACKEND_ENV
from repro.engine.cache import ResultCache
from repro.engine.runner import (
    derive_seed, execute_spec, run_batch, run_spec,
)
from repro.engine.session import RunResult, Session
from repro.engine.specs import (
    CacheSpec, HierarchySpec, LatencySpec, PluginSpec, SimSpec,
    SpecError, TaintSpec, TLBSpec, TraceSpec, register_plugin,
)
from repro.stats import SimStats, merge_all

__all__ = [
    "BACKEND_NAMES", "CacheSpec", "HierarchySpec", "LatencySpec",
    "PluginSpec", "REPRO_BACKEND_ENV", "ResultCache", "RunResult",
    "Session", "SimSpec", "SimStats", "SpecError", "TLBSpec",
    "TaintSpec", "TraceSpec", "derive_seed", "execute_spec",
    "merge_all", "register_plugin", "run_batch", "run_spec",
]
