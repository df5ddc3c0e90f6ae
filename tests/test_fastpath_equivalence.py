"""Differential suite: the fast-path kernel must be bitwise-exact.

:class:`~repro.pipeline.fastpath.FastPathCPU` buys wall-clock speed
from idle-cycle fast-forward, which may not change a single
observable.  This suite pins that contract three ways:

* every catalog spec (one per attack module) runs under both kernels
  and the full serialized :class:`RunResult` — cycles, retired stream,
  stats, metrics, fingerprint — must match byte for byte; the gate is
  itself tested, by patching in a fast-forward that overshoots its
  target by one cycle and a quiet-cycle test blind to blocked issue
  retries, each of which it must catch;
* the same holds with event tracing on (fast-forwarded spans must
  synthesize the exact per-cycle stall events the reference emits) and
  across serial vs pooled scheduling;
* a hypothesis property test sweeps random programs over random
  machine configurations, including runs that end in
  :class:`SimulationError` — both kernels must fail identically too.

No result cache is involved anywhere here: a cache hit would make the
comparison vacuous (both kernels share fingerprints by design).
"""

from hypothesis import given

from repro.engine import TraceSpec, derive_seed, run_batch
from repro.engine.runner import execute_spec
from repro.pipeline.fastpath import FastPathCPU
from tests.spec_catalog import attack_specs
from tests.test_property_roundtrip import BOUNDED, sim_specs


def _catalog_specs(**overrides):
    specs = []
    for index, (name, spec) in enumerate(sorted(attack_specs().items())):
        specs.append(spec.replace(seed=derive_seed(index, 0),
                                  label=f"{name}/fastpath-diff",
                                  **overrides))
    return specs


def _outcome(spec):
    """Serialized result, or the failure identity if the run dies."""
    try:
        return ("ok", execute_spec(spec).to_json())
    except Exception as exc:  # noqa: BLE001 — compared across kernels
        return (type(exc).__name__, str(exc))


def _diverging_labels(specs):
    """Labels of the specs whose fast-path outcome differs from the
    reference kernel's serialized result."""
    diverging = []
    for spec in specs:
        reference = execute_spec(spec.replace(fastpath=False))
        # Sanity: the comparison is not vacuous.
        assert reference.cycles > 0, spec.label
        assert reference.stats["retired"] > 0, spec.label
        if _outcome(spec.replace(fastpath=True)) != ("ok",
                                                     reference.to_json()):
            diverging.append(spec.label)
    return diverging


def test_catalog_specs_bitwise_identical_across_kernels():
    assert _diverging_labels(_catalog_specs()) == []


def test_the_catalog_gate_catches_fast_path_mutants(monkeypatch):
    """The gate above fails on a broken fast path: each mutant, patched
    in alone, makes at least one catalog spec diverge."""
    fast_forward = FastPathCPU._fast_forward

    def overshoot(self, limit):
        # Jump one cycle past the fast-forward target.
        before = self.cycle
        fast_forward(self, limit)
        if self.cycle != before:
            self.cycle += 1

    # The issue stage's blocked-retry signal always reads False, so a
    # cycle whose retry would act still counts as quiet.  A class-level
    # data descriptor wins over the instance attribute CPU.__init__
    # sets, so every write to it is dropped.
    blind = property(lambda self: False, lambda self, value: None)

    # Every reference run halts within 700 cycles; the cap keeps a
    # mutant that loses an event from ticking to the default limit.
    specs = _catalog_specs(max_cycles=5_000)
    for name, mutant in (("_fast_forward", overshoot),
                         ("_issue_blocked", blind)):
        with monkeypatch.context() as patch:
            # ``_issue_blocked`` is an instance attribute, so the class
            # has none to replace.
            patch.setattr(FastPathCPU, name, mutant, raising=False)
            assert _diverging_labels(specs), name


def test_traced_catalog_specs_identical_across_kernels():
    """Fast-forwarded spans must synthesize the reference's per-cycle
    trace events (e.g. the SQ head-of-line stall burst) verbatim."""
    for spec in _catalog_specs(trace=TraceSpec()):
        reference = execute_spec(spec.replace(fastpath=False))
        fastpath = execute_spec(spec.replace(fastpath=True))
        assert reference.to_json() == fastpath.to_json(), spec.label
        assert reference.trace["events"], spec.label


def test_pooled_fastpath_matches_serial_reference():
    """Kernel choice and scheduling mode are both invisible: fastpath
    across 4 worker processes == reference run serially."""
    specs = _catalog_specs()
    reference = run_batch([s.replace(fastpath=False) for s in specs],
                          workers=1)
    fastpath = run_batch([s.replace(fastpath=True) for s in specs],
                         workers=4)
    assert len(reference) == len(fastpath) == len(specs)
    for spec, ref, fast in zip(specs, reference, fastpath):
        assert ref.to_json() == fast.to_json(), spec.label


@BOUNDED
@given(spec=sim_specs())
def test_random_specs_identical_across_kernels(spec):
    spec = spec.replace(max_cycles=5_000)
    reference = _outcome(spec.replace(fastpath=False))
    fastpath = _outcome(spec.replace(fastpath=True))
    assert reference == fastpath
