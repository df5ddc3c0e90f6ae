"""The benchmark's five workloads.

Each workload is a class built from a ``--seed`` (its set-up: attack
objects and generated inputs) that then answers ``run(index)`` — one
op, a single call into the program's public API — and
``check(index, outcome)``.  Ops are numbered from 0; a *pass* is the
workload's ``n_ops`` distinct ops, and a run that has time left starts
another pass over the same inputs with fresh per-pass state
(``begin_pass``).  Outcomes are JSON-able, so the runner can digest them;
it digests the first ``digest_ops``, which is also how many ops a traced
run makes.

Only public entry points are used: ``repro.attacks.*``,
``repro.lint.{check_soundness,check_precision,check_synthesis}`` and
``repro.engine.ResultCache``.
"""

import os
import random

from repro.attacks.amplification import amplified_probe_spec
from repro.attacks.bsaes_attack import (
    BSAESSilentStoreAttack, BSAESVictimServer,
)
from repro.attacks.compsimp_attack import ZeroSkipAttack
from repro.attacks.dmp_attack import DMPSandboxAttack
from repro.attacks.packing_attack import OperandPackingAttack
from repro.attacks.reuse_attack import ComputationReuseAttack
from repro.attacks.rfc_attack import RegisterFileCompressionAttack
from repro.attacks.vp_attack import ValuePredictionAttack
from repro.engine import ResultCache
from repro.lint import (
    check_precision, check_soundness, check_synthesis,
    contracted_plugin_names,
)


class Workload:
    """Defaults: no per-pass state and no result cache."""

    cache = None

    def __init__(self):
        self.retired = [0, 0, 0]

    def begin_pass(self, number):
        pass

    def open_cache(self, path):
        """A fresh :class:`ResultCache` on ``path``; the previous one's
        counts are kept, the cache itself is let go."""
        if self.cache is not None:
            for slot, count in enumerate(self._counts(self.cache)):
                self.retired[slot] += count
        self.cache = ResultCache(path=path)
        return self.cache

    def cache_counts(self):
        """Hits, misses and corrupt entries over every cache opened."""
        live = self._counts(self.cache) if self.cache else (0, 0, 0)
        return tuple(a + b for a, b in zip(self.retired, live))

    @staticmethod
    def _counts(cache):
        return cache.hits, cache.misses, cache.corrupt


class Fig6(Workload):
    """Paper Figure 6: BSAES silent-store runtime histograms."""

    name = "fig6-bsaes"
    n_ops = 100
    # A traced run makes these ops twice, once under cProfile (about 3x
    # slower); 40 keeps it well under 30 s.
    digest_ops = 40

    def __init__(self, seed, scratch):
        super().__init__()
        rng = random.Random(f"fig6/{seed}")
        server = BSAESVictimServer(rng.randbytes(16), rng.randbytes(16))
        self.attack = BSAESSilentStoreAttack(server, rng.randbytes(16))
        self.seeds = [rng.getrandbits(32) for _ in range(self.n_ops)]

    def run(self, index):
        return self.attack.histogram_runs(
            runs_per_type=36, target_slot=4,
            seed=self.seeds[index % self.n_ops])

    def check(self, index, outcome):
        return max(outcome["correct"]) < min(outcome["incorrect"])


class Fig7(Workload):
    """Paper Figure 7: the eBPF universal read gadget, byte by byte."""

    name = "fig7-urg"
    # Secret bytes past offset 320 sit on lines whose L1 set also
    # carries an X[] transmit line; a secret the training set masks is
    # then misread as that line's byte.  The first 256 bytes are on
    # sets the attack already excludes, so every leak is right or None.
    n_ops = 256
    digest_ops = 128

    def __init__(self, seed, scratch):
        super().__init__()
        # Every byte value once, in seeded order: a pass needs the same
        # number of replayed leaks whatever the seed.
        values = list(range(256))
        random.Random(f"fig7/{seed}").shuffle(values)
        self.secret = bytes(values)
        self.begin_pass(0)

    def begin_pass(self, number):
        # One attack object per pass: the Prime+Probe hierarchy state
        # carries over between leaks, so each pass starts it afresh.
        self.attack = DMPSandboxAttack()
        self.base = self.attack.config.kernel_secret_base
        self.attack.runtime.place_kernel_secret(self.base, self.secret)

    def run(self, index):
        return self.attack.leak_byte(self.base + index % self.n_ops) \
            .leaked_byte

    def check(self, index, outcome):
        return outcome is None or outcome == self.secret[index % self.n_ops]


class Audit(Workload):
    """The CI audit loops: precision and contract synthesis."""

    name = "audit"
    n_ops = 128
    digest_ops = 64

    def __init__(self, seed, scratch):
        super().__init__()
        rng = random.Random(f"audit/{seed}")
        self.ops = []
        for audit_seed in [rng.getrandbits(31) for _ in range(8)]:
            for plugin in contracted_plugin_names():
                self.ops.append(("precision", audit_seed, plugin))
                self.ops.append(("synthesis", audit_seed, plugin))

    def run(self, index):
        kind, seed, plugin = self.ops[index % self.n_ops]
        if kind == "precision":
            return check_precision(budget=1, seed=seed,
                                   opts=(plugin,)).to_json_dict()
        return check_synthesis(plugin, budget=8, seed=seed).to_json_dict()

    def check(self, index, outcome):
        return outcome["ok"] and outcome.get("missed", 0) == 0


def probe_specs():
    """One probe spec per attack module with a public spec builder.

    The replay oracle has none: its query is an amplified silent-store
    probe, which the amplification entry already covers.
    """
    server = BSAESVictimServer(
        bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"),
        b"public-header-00")
    bsaes = BSAESSilentStoreAttack(server, bytes(range(16, 32)))
    return [
        amplified_probe_spec(0x1234, 0x4321, gadget=True,
                             label="amp_nonsilent"),
        bsaes.measure_spec([(37 * (slot + 3)) & 0xFFFF
                            for slot in range(8)],
                           target_slot=4, label="bsaes_probe"),
        ZeroSkipAttack().measure_spec(0, 1),
        OperandPackingAttack().measure_spec(5),
        ComputationReuseAttack(41).measure_spec(41),
        RegisterFileCompressionAttack().measure_spec(1),
        ValuePredictionAttack(0x42).measure_spec(0x42),
    ]


def sweep_ops(seed, triples):
    """(probe spec, pattern triple) pairs, triple-major so that any
    prefix covers every probe spec.

    No pattern repeats for a spec, so only each spec's baseline run is
    shared across its triples and the hit ratio is the same whatever
    the seed.
    """
    rng = random.Random(f"sweep/{seed}")
    specs = probe_specs()
    patterns = [rng.sample(range(1, 256), 3 * triples) for _ in specs]
    return [(spec, tuple(drawn[3 * triple:3 * triple + 3]))
            for triple in range(triples)
            for spec, drawn in zip(specs, patterns)]


def soundness(op, cache):
    spec, patterns = op
    result = check_soundness(spec, patterns=patterns, cache=cache)
    return [result.label, list(result.flagged), list(result.divergent),
            list(result.unflagged), result.variants,
            [[label, list(names)] for label, names in result.details]]


class SweepCold(Workload):
    """Catalog soundness sweep against an empty on-disk result cache."""

    name = "sweep-cold"
    # Eight triples keep sweep-warm, which fills its cache three times
    # in set-up, well under 30 s a run.
    triples = 8
    n_ops = 7 * triples  # one op per probe spec and triple
    digest_ops = n_ops

    def __init__(self, seed, scratch):
        super().__init__()
        self.ops = sweep_ops(seed, self.triples)
        self.scratch = scratch
        self.begin_pass(0)

    def begin_pass(self, number):
        # A new empty directory per pass keeps every pass cold.
        self.open_cache(os.path.join(self.scratch, f"pass-{number}"))

    def run(self, index):
        return soundness(self.ops[index % self.n_ops], self.cache)

    def check(self, index, outcome):
        return not outcome[3]


class SweepWarm(Workload):
    """The cold sweep's ops, replayed against the directory set-up
    filled.  Every replay opens a fresh :class:`ResultCache` there, so
    each hit reads and decodes its file."""

    name = "sweep-warm"
    replays = 5
    n_ops = replays * SweepCold.n_ops
    digest_ops = n_ops

    def __init__(self, seed, scratch):
        super().__init__()
        self.ops = sweep_ops(seed, SweepCold.triples)
        self.path = os.path.join(scratch, "filled")
        filled = ResultCache(path=self.path)
        self.expected = [soundness(op, filled) for op in self.ops]

    def run(self, index):
        position = index % len(self.ops)
        if position == 0:
            self.open_cache(self.path)
        return soundness(self.ops[position], self.cache)

    def check(self, index, outcome):
        # A miss would mean a simulation ran: every probe must hit.
        return self.cache.misses == 0 and not outcome[3] and \
            outcome == self.expected[index % len(self.ops)]


WORKLOADS = {cls.name: cls
             for cls in (Fig6, Fig7, Audit, SweepCold, SweepWarm)}
