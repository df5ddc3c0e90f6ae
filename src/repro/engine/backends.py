"""How a batch's cache misses execute: in process or on a process pool.

The runner decides *what* runs (fingerprints, the cache probe, one
simulation per distinct missing fingerprint); this module runs it.
Both backends are one ``map`` of :func:`execute_spec` over the missing
specs:

* ``"serial"`` — the builtin ``map`` in the calling process, in input
  order.  Debugger- and trace-friendly; the reference the pool must
  match bitwise.
* ``"pool"`` — the same ``map`` on a ``ProcessPoolExecutor`` built for
  the one batch and shut down after it.

Results come back in input order and **bitwise identical** across
backends: every randomness source in a spec is seeded, and cores
never share mutable simulation state.

:func:`backend_for` picks the backend: the ``REPRO_BACKEND``
environment variable (the ``python -m repro --backend`` flag) if set,
else serial for ``workers <= 1`` or a singleton batch and pool
otherwise.
"""

import os

from concurrent.futures import ProcessPoolExecutor

#: Environment variable naming the backend every
#: :func:`repro.engine.runner.run_batch` call uses.  Empty or unset
#: means "no override".
REPRO_BACKEND_ENV = "REPRO_BACKEND"

#: The backends ``REPRO_BACKEND`` selects by name.
BACKEND_NAMES = ("serial", "pool")

#: Worker count used when the pool backend is forced by name without
#: ``workers > 1`` (e.g. ``REPRO_BACKEND=pool`` on a serial call).
DEFAULT_POOL_WORKERS = 4


def execute_spec(spec, fingerprint=None):
    """Build and run one spec.

    ``fingerprint`` is the spec's precomputed content hash; passing it
    spares :meth:`Session.from_spec` from hashing the spec again (the
    hash covers the whole program and memory image, so for short runs
    recomputing it was a measurable fraction of the trial).

    This is the one trial path of both backends and of
    :func:`~repro.engine.runner.run_spec`.  The session it builds is
    released (:meth:`Session.release`) once the run returns or raises,
    so reference counting frees the core, hierarchy and memory at once
    instead of leaving them to the cyclic collector.
    """
    from repro.engine.session import Session
    session = Session.from_spec(spec, fingerprint=fingerprint)
    try:
        return session.run()
    finally:
        session.release()


def backend_for(workers, pending):
    """The name of the backend a batch of ``pending`` cache misses
    runs on (see the module docstring)."""
    name = os.environ.get(REPRO_BACKEND_ENV) or None
    if name is None:
        return "serial" if workers <= 1 or pending <= 1 else "pool"
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown execution backend {name!r}; known: "
                         f"{list(BACKEND_NAMES)}")
    return name


def submit(backend, specs, fingerprints, workers):
    """Run ``specs`` (with their precomputed ``fingerprints``) on
    ``backend``; their results, in input order."""
    if backend == "serial":
        return list(map(execute_spec, specs, fingerprints))
    workers = workers if workers > 1 else DEFAULT_POOL_WORKERS
    chunksize = max(1, len(specs) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(execute_spec, specs, fingerprints,
                             chunksize=chunksize))


__all__ = [
    "BACKEND_NAMES", "DEFAULT_POOL_WORKERS", "REPRO_BACKEND_ENV",
    "backend_for", "execute_spec", "submit",
]
