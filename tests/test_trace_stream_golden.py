"""Golden pin of the traced event streams the kernels produce.

The stats golden (:mod:`tests.test_stats_payload_golden`) pins counts,
and counts do not see the *order* of a cycle's events: firing each
cycle's due events in reverse leaves every cycle count, stat and metric
as it was while it reorders most traced streams.  This digest covers
the whole traced :class:`~repro.engine.session.RunResult` — event
streams, cycles, stats and metrics — over the same corpus, under both
kernels.

If the streams changed on purpose, re-pin with::

    PYTHONPATH=src python -c "from tests.test_trace_stream_golden \\
        import traced_digest; print(traced_digest())"
"""

import hashlib

from repro.engine import TraceSpec, execute_spec
from repro.pipeline.cpu import CPU
from tests.test_stats_payload_golden import corpus

GOLDEN_DIGEST = (
    "e98a3920dfe0824393ebf2c5fee241dfa2cf8019b1710c57b3b5d60abd16fc18")


def traced_digest():
    """sha256 over the traced ``RunResult.to_json()`` of every corpus
    spec, reference kernel then fast path."""
    digest = hashlib.sha256()
    for spec in corpus():
        for fastpath in (False, True):
            result = execute_spec(spec.replace(trace=TraceSpec(),
                                               fastpath=fastpath))
            assert result.trace["events"], spec.label
            digest.update(result.to_json().encode())
            digest.update(b"\n")
    return digest.hexdigest()


def test_traced_results_match_golden():
    assert traced_digest() == GOLDEN_DIGEST


def test_the_golden_catches_reversed_event_order(monkeypatch):
    """A ``schedule`` that puts each new event first fires every
    cycle's events in reverse; no count moves, the digest does."""

    def prepend(self, delay, fn, *args):
        when = self.cycle + (delay if delay > 1 else 1)
        self._events.setdefault(when, []).insert(0, (fn, args))

    monkeypatch.setattr(CPU, "schedule", prepend)
    assert traced_digest() != GOLDEN_DIGEST
