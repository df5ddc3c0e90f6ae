"""Trial-execution backends for the engine runner.

The runner's job is *what* to run — building idempotent
:class:`TrialJob` descriptors, probing the result cache, depositing
results.  *How* cache misses execute is this layer's job, behind the
small :class:`ExecutionBackend` protocol:

* :class:`SerialBackend` — everything in the submitting process, in
  input order.  Debugger- and trace-friendly; the reference scheduling
  the pool must match bitwise.
* :class:`PoolBackend` — ``ProcessPoolExecutor`` fan-out: an ephemeral
  pool per submit unless the caller :meth:`~ExecutionBackend.open`\\ s
  the backend to keep one warm across batches.

Both obey the same contract: ``submit(jobs)`` returns one
:class:`ExecutedTrial` per job, in input order, with results **bitwise
identical** across backends (every randomness source in a spec is
seeded, and cores never share mutable simulation state).  The trial's
wall time rides in the :class:`ExecutedTrial` envelope and never inside
a :class:`~repro.engine.session.RunResult`.

Selection, in priority order: an explicit ``backend=`` argument to
:func:`repro.engine.runner.run_batch` (``"serial"``, ``"pool"`` or a
:class:`PoolBackend` the caller opened), the ``REPRO_BACKEND``
environment variable (the ``python -m repro --backend`` flag), and
finally the ``workers`` heuristic (serial for ``workers <= 1`` or
singleton batches, pool otherwise).
"""

import os
import time

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro import telemetry

#: Environment variable naming the default backend for every
#: :func:`repro.engine.runner.run_batch` call that doesn't pass one
#: explicitly.  Empty or unset means "no override".
REPRO_BACKEND_ENV = "REPRO_BACKEND"

#: The backends ``backend=`` and ``REPRO_BACKEND`` select by name.
BACKEND_NAMES = ("serial", "pool")

#: Worker count used when a pool backend is forced by name without an
#: explicit ``workers`` (e.g. ``REPRO_BACKEND=pool`` on a serial call).
DEFAULT_POOL_WORKERS = 4


def _now_us():
    return time.perf_counter_ns() // 1000


# ----------------------------------------------------------------------
# jobs and outcomes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TrialJob:
    """One idempotent unit of trial work.

    ``fingerprint`` is the spec's content hash — the job's identity:
    submitting the same job twice (to any backend, in any process)
    yields byte-identical results, which is what lets the runner probe
    the cache once up front and hand only misses to the backend.
    ``index`` is the job's position in the submitting batch, where the
    runner deposits its result.
    """

    index: int
    spec: object
    fingerprint: str


@dataclass
class ExecutedTrial:
    """One finished trial plus its wall time.

    ``elapsed_us`` feeds the ``repro_trial_seconds`` histogram; it is
    scheduling-dependent and never enters the
    :class:`~repro.engine.session.RunResult`.  Untimed submissions
    carry zero.
    """

    result: object
    elapsed_us: int = 0


def execute_spec(spec, fingerprint=None):
    """Build and run one spec (module-level: picklable for the pool).

    ``fingerprint`` is the spec's precomputed content hash; passing it
    spares :meth:`Session.from_spec` from hashing the spec again (the
    hash covers the whole program and memory image, so for short runs
    recomputing it was a measurable fraction of the trial).

    This is the one trial path of both backends and of
    :func:`~repro.engine.runner.run_spec`.  The session it builds is
    released (:meth:`Session.release`) once it has produced its
    result, so reference counting frees the core, hierarchy and memory
    at once instead of leaving them to the cyclic collector.
    """
    from repro.engine.session import Session
    session = Session.from_spec(spec, fingerprint=fingerprint)
    result = session.run()
    session.release()
    return result


def _execute_job(job):
    """Pool target: ``(spec, fingerprint) -> RunResult``."""
    spec, fingerprint = job
    return execute_spec(spec, fingerprint)


def _timed_execute(job):
    """Like :func:`_execute_job`, plus the wall clock.

    Returns ``(result, start_us, elapsed_us)``.  The timing never enters
    the :class:`RunResult` — wall time is scheduling-dependent, and
    results must stay bitwise identical across backends.
    """
    spec, fingerprint = job
    start_us = _now_us()
    result = execute_spec(spec, fingerprint)
    return result, start_us, max(1, _now_us() - start_us)


# ----------------------------------------------------------------------
# the protocol
# ----------------------------------------------------------------------

class ExecutionBackend:
    """How a batch of cache-missing :class:`TrialJob`\\ s executes.

    Lifecycle: :meth:`open` acquires long-lived resources (a warm
    process pool), :meth:`close` releases them; both are optional and
    idempotent, and the class is a context manager.  ``submit`` must
    work on a backend that was never opened — it then acquires and
    releases per call.  The runner never opens backends it resolves by
    name; persistence is the caller's choice.
    """

    name = "abstract"

    def open(self):
        return self

    def close(self):
        pass

    def __enter__(self):
        return self.open()

    def __exit__(self, *exc):
        self.close()

    def submit(self, jobs, timed=False):
        """Execute ``jobs``; one :class:`ExecutedTrial` each, in input
        order.  ``timed`` asks for per-trial wall time (skipped
        otherwise — the clock reads are measurable on micro-trials)."""
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """In-process, in-order execution — the reference scheduling."""

    name = "serial"

    def submit(self, jobs, timed=False):
        out = []
        for job in jobs:
            payload = (job.spec, job.fingerprint)
            if timed:
                result, _, elapsed_us = _timed_execute(payload)
                out.append(ExecutedTrial(result, elapsed_us))
            else:
                out.append(ExecutedTrial(_execute_job(payload)))
        return out


class PoolBackend(ExecutionBackend):
    """Process-pool fan-out (the engine's ``workers > 1``).

    Without :meth:`open`, every submit builds and tears down its own
    ``ProcessPoolExecutor``.  :meth:`open` keeps one pool warm across
    submits for callers with many batches.
    """

    name = "pool"

    def __init__(self, workers=DEFAULT_POOL_WORKERS, chunksize=None):
        self.workers = max(2, int(workers))
        self.chunksize = chunksize
        self._pool = None

    def open(self):
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self

    def close(self):
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _map(self, pool, jobs, timed):
        payload = [(job.spec, job.fingerprint) for job in jobs]
        chunksize = self.chunksize
        if chunksize is None:
            chunksize = max(1, len(payload) // (4 * self.workers))
        if not timed:
            return [ExecutedTrial(result) for result in
                    pool.map(_execute_job, payload, chunksize=chunksize)]
        submit_us = _now_us()
        out = []
        for result, start_us, elapsed_us in pool.map(
                _timed_execute, payload, chunksize=chunksize):
            # Time from batch submission until the worker picked the
            # job up: the pool's queueing delay (includes pool spawn
            # for ephemeral pools, amortized for warm ones).
            telemetry.REGISTRY.observe(
                "repro_backend_queue_wait_seconds",
                max(0, start_us - submit_us) / 1e6,
                help="Seconds a trial waited between batch submit and "
                     "worker pickup",
                backend=self.name)
            out.append(ExecutedTrial(result, elapsed_us))
        return out

    def submit(self, jobs, timed=False):
        if self._pool is not None:
            return self._map(self._pool, jobs, timed)
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            return self._map(pool, jobs, timed)


# ----------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------

def resolve_backend(backend=None, workers=1, chunksize=None, pending=0):
    """The backend a batch should use (see the module docstring for the
    priority order).  ``pending`` is the number of cache-missing jobs;
    the ``workers`` heuristic keeps singleton batches in process."""
    if isinstance(backend, ExecutionBackend):
        return backend
    name = backend or os.environ.get(REPRO_BACKEND_ENV) or None
    if name is None:
        if workers <= 1 or pending <= 1:
            return SerialBackend()
        return PoolBackend(workers=workers, chunksize=chunksize)
    if name == "serial":
        return SerialBackend()
    if name == "pool":
        return PoolBackend(
            workers=workers if workers > 1 else DEFAULT_POOL_WORKERS,
            chunksize=chunksize)
    raise ValueError(f"unknown execution backend {name!r}; known: "
                     f"{list(BACKEND_NAMES)}")


__all__ = [
    "BACKEND_NAMES", "DEFAULT_POOL_WORKERS", "ExecutedTrial",
    "ExecutionBackend", "PoolBackend", "REPRO_BACKEND_ENV",
    "SerialBackend", "TrialJob", "execute_spec", "resolve_backend",
]
