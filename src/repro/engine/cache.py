"""Content-addressed result cache.

Replay experiments re-simulate identical points constantly: a bench
sweep re-runs the grid every invocation, key-recovery calibration
repeats the same two probes per slot, and narrowing searches re-query
overlapping prefixes.  Since a :class:`~repro.engine.specs.SimSpec`
fingerprint covers *everything* that determines a run's outcome
(program bytes, core config, hierarchy geometry, plug-ins, memory
image, registers, seed), a finished :class:`RunResult` can be reused
for any spec with the same fingerprint.

The cache is in-memory by default; give it a directory and every
result is also persisted as ``<fingerprint>.json``, surviving across
processes and sessions (bench re-runs skip already-simulated points).

Persistence is safe under concurrency: several pooled workers (or
several bench processes) may try to create the cache directory and
write the same fingerprint at once, so directory creation is
``exist_ok`` and every file write goes through a uniquely-named
temporary file followed by an atomic :func:`os.replace` — readers
never observe a partially-written JSON file, and the last writer of
identical content wins harmlessly.
"""

import dataclasses
import os
import tempfile

from repro import telemetry
from repro.engine.session import RunResult


class ResultCache:
    """Maps spec fingerprints to :class:`RunResult` records.

    A corrupted or truncated persisted entry (a crashed writer on a
    filesystem without atomic rename, a bad disk, a hand-edited file)
    is treated as a **miss**, never an error: the trial re-executes and
    the subsequent :meth:`put` atomically replaces the bad file.  Each
    such entry bumps :attr:`corrupt` and the process-wide
    ``repro_cache_corrupt_total`` telemetry counter — a growing count
    is a store-health signal, not a crash mid-batch.
    """

    def __init__(self, path=None):
        self.path = path
        self._results = {}
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        if path is not None:
            os.makedirs(path, exist_ok=True)

    def __len__(self):
        return len(self._results)

    def __contains__(self, fingerprint):
        return self.get(fingerprint) is not None

    def _file_for(self, fingerprint):
        return os.path.join(self.path, f"{fingerprint}.json")

    def _load(self, fingerprint):
        """Read one persisted result into the in-memory map (or None).

        A file that is missing is a plain miss; one that exists but
        cannot be read or parsed back into a :class:`RunResult` is a
        *corrupt* miss — counted, tolerated, and overwritten by the
        next :meth:`put` of the re-executed trial.
        """
        try:
            with open(self._file_for(fingerprint), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return None
        except OSError:
            self._count_corrupt()
            return None
        try:
            text = data.decode()
            result = RunResult.from_json(text)
        except (KeyError, TypeError, ValueError):
            # Bytes that are not UTF-8, truncated JSON, a non-dict
            # payload, or missing required fields: the entry is
            # unusable — treat it as a miss.
            self._count_corrupt()
            return None
        telemetry.REGISTRY.inc(
            "repro_cache_read_bytes_total", len(text),
            help="Bytes read from the persistent result store")
        self._results[fingerprint] = result
        return result

    def _count_corrupt(self):
        self.corrupt += 1
        telemetry.REGISTRY.inc(
            "repro_cache_corrupt_total",
            help="Persisted cache entries dropped as corrupt/truncated")

    def _count_probes(self, hits, misses):
        tel = telemetry.REGISTRY
        if not tel.enabled:
            return
        if hits:
            tel.inc("repro_cache_hits_total", hits,
                    help="Result-cache probe hits")
        if misses:
            tel.inc("repro_cache_misses_total", misses,
                    help="Result-cache probe misses")

    def get(self, fingerprint):
        """The cached result (marked ``cached=True``), or None."""
        result = self._results.get(fingerprint)
        if result is None and self.path is not None:
            result = self._load(fingerprint)
        if result is None:
            self.misses += 1
            self._count_probes(0, 1)
            return None
        self.hits += 1
        self._count_probes(1, 0)
        return dataclasses.replace(result, cached=True)

    def probe_many(self, fingerprints):
        """Bulk lookup: one result-or-None per fingerprint, in order.

        The semantics (including the hit/miss counters and the
        ``cached=True`` marking) match one :meth:`get` per fingerprint;
        what changes is the store traffic.  A persistent cache is
        scanned **once** — a single directory listing — and only files
        known to exist are opened, so a thousand-trial batch costs one
        ``listdir`` instead of a thousand per-trial ``stat``/``open``
        attempts.  Duplicate fingerprints within one batch behave like
        the sequential probes always did: every occurrence before the
        result is deposited misses.  A corrupted persisted entry is a
        miss (see :meth:`_load`) — one bad file never aborts the
        batch's probe.
        """
        listing = None
        out = []
        hits = misses = 0
        for fingerprint in fingerprints:
            result = self._results.get(fingerprint)
            if result is None and self.path is not None:
                if listing is None:
                    try:
                        listing = set(os.listdir(self.path))
                    except FileNotFoundError:
                        listing = set()
                if f"{fingerprint}.json" in listing:
                    result = self._load(fingerprint)
            if result is None:
                self.misses += 1
                misses += 1
                out.append(None)
            else:
                self.hits += 1
                hits += 1
                out.append(dataclasses.replace(result, cached=True))
        self._count_probes(hits, misses)
        return out

    def put(self, result):
        if not result.fingerprint:
            return  # from_parts sessions are not content-addressed
        self._results[result.fingerprint] = result
        if self.path is not None:
            os.makedirs(self.path, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.path, prefix=f".{result.fingerprint}.",
                suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    text = result.to_json()
                    handle.write(text)
                os.replace(tmp_path, self._file_for(result.fingerprint))
                telemetry.REGISTRY.inc(
                    "repro_cache_write_bytes_total", len(text),
                    help="Bytes written to the persistent result store")
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except FileNotFoundError:
                    pass
                raise

    def clear(self):
        self._results.clear()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
