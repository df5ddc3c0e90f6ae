"""Golden pin of the stats record a spec-built run produces.

``RunResult.metrics`` is part of the cached result payload and of the
bench JSON stats blocks, so a change to which counters a run records,
or to their values, must fail here rather than drift silently.  The
corpus is every catalog spec (:mod:`tests.spec_catalog`) with its
secret variants, plus generated cases for the three plug-ins whose
outcome counts the record copies (silent stores, value prediction, the
indirect-memory prefetcher).  Each runs on three machines under both
kernels: as declared, with an L2, a small TLB and a prefetch buffer
added, and on a narrow core whose tiny L1 and two-entry store queue
reach the rarer outcomes.  One digest covers every run's ``metrics``.

If the payload changed on purpose, re-pin with::

    PYTHONPATH=src python -c "from tests.test_stats_payload_golden \\
        import corpus_digest; print(corpus_digest())"
"""

import dataclasses
import hashlib
import json

from repro.engine import (
    CacheSpec, PluginSpec, Session, TLBSpec, execute_spec,
)
from repro.lint.perturb import secret_variants
from repro.lint.progen import CaseGenerator
from repro.pipeline.config import CPUConfig
from tests.spec_catalog import attack_specs

GOLDEN_DIGEST = (
    "07368f13e47b15ea0f1e8a895ee60a0dd5e51e2fbb5b72554c1b96bbe513c334")

#: Plug-ins whose outcome counters the record carries, and how many
#: generated cases each contributes (two passes over its templates).
PROGEN_BUDGETS = {
    "silent-stores": 6,
    "value-prediction": 4,
    "indirect-memory-prefetcher": 4,
}

#: Counter names the corpus must record non-zero at least once, so the
#: digest covers every counter a run copies from a component's own
#: statistics.
COPIED_NAMES = (
    "pipeline.cycles", "pipeline.squashed_instructions",
    "pipeline.sq.silent_dequeues",
    "pipeline.dispatch_stall.rob", "pipeline.dispatch_stall.rs",
    "pipeline.dispatch_stall.sq", "pipeline.dispatch_stall.lq",
    "pipeline.dispatch_stall.preg", "pipeline.dispatch_stall.fence",
    "mem.l1.hits", "mem.l1.misses", "mem.pb.hits", "mem.l2.hits",
    "mem.l2.misses", "mem.dram.accesses", "mem.writes",
    "mem.prefetches", "mem.tlb.walks", "mem.tlb.hits",
    "opt.silent_stores.ss_loads_issued", "opt.silent_stores.squashes",
    "opt.silent_stores.nonsilent", "opt.silent_stores.no_port",
    "opt.silent_stores.late_ss_loads",
    "opt.vp.predictions", "opt.vp.correct",
    "opt.vp.mispredict_squashes",
    "opt.imp.jobs_launched", "opt.imp.prefetches",
)


def with_deep_memory(spec):
    """``spec`` plus an L2, an 8-entry TLB and an 8-line prefetch
    buffer (the IMP's probe target then hits in the buffer)."""
    return spec.replace(hierarchy=dataclasses.replace(
        spec.hierarchy, l2=CacheSpec(num_sets=128, ways=8),
        tlb=TLBSpec(entries=8), prefetch_buffer_size=8))


def on_narrow_core(spec):
    """``spec`` on one load port, a two-entry store queue and a
    4-line direct-mapped L1: stores dispatch-stall on the queue, lose
    the port steal (Case C) or issue an SS-Load to an evicted line
    (Case D)."""
    config = spec.config if spec.config is not None else CPUConfig()
    return spec.replace(
        config=dataclasses.replace(config, num_load_ports=1,
                                   store_queue_size=2),
        hierarchy=dataclasses.replace(
            spec.hierarchy, l1=CacheSpec(num_sets=4, ways=1)))


def corpus():
    specs = []
    for _name, spec in sorted(attack_specs().items()):
        specs.extend(secret_variants(spec))
    generator = CaseGenerator(seed=0)
    for plugin, budget in sorted(PROGEN_BUDGETS.items()):
        for case in generator.cases_for(plugin, budget):
            specs.append(case.spec(plugins=(PluginSpec.of(plugin),)))
    return [variant for spec in specs
            for variant in (spec, with_deep_memory(spec),
                            on_narrow_core(spec))]


def corpus_metrics():
    return [execute_spec(spec.replace(fastpath=fastpath)).metrics
            for spec in corpus() for fastpath in (False, True)]


def corpus_digest(payloads=None):
    payloads = corpus_metrics() if payloads is None else payloads
    digest = hashlib.sha256()
    for metrics in payloads:
        digest.update(json.dumps(metrics, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_metrics_payload_matches_golden():
    payloads = corpus_metrics()
    recorded = {name for metrics in payloads
                for name, value in metrics["counters"].items() if value}
    assert set(COPIED_NAMES) <= recorded, \
        sorted(set(COPIED_NAMES) - recorded)
    assert corpus_digest(payloads) == GOLDEN_DIGEST


def test_the_golden_catches_a_spec_built_core_that_skips_sampling(
        monkeypatch):
    """Committed mutant: a ``Session.from_spec`` whose core is built
    with ``sample_occupancy=False`` leaves every stepped cycle out of
    the occupancy counts, and the digest moves."""
    from_spec = Session.from_spec.__func__

    def unsampled(cls, spec, fingerprint=None):
        session = from_spec(cls, spec, fingerprint)
        session.cpu.sample_occupancy = False
        return session

    monkeypatch.setattr(Session, "from_spec", classmethod(unsampled))
    assert corpus_digest() != GOLDEN_DIGEST
