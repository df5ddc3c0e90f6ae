"""End-to-end silent-store attack on Bitslice AES-128 (Section V-A3).

Cloud threat model: a server worker thread encrypts for multiple
tenants.  Stack temporaries are not cleared between calls ("as-provided
behavior of the victim program").  The victim encrypts known public
data with its secret key, leaving the final byte-substitution stage's
eight 16-bit bit-plane spills on the worker stack.  The attacker then
triggers encryptions with *its own* key and chosen plaintexts; the
store that re-writes a targeted stack slot is **silent** exactly when
the attacker's plane value equals the victim's leftover — and the
amplification gadget (Figure 5) turns that single store's silence into
a > 100-cycle end-to-end runtime difference (Figure 6).

Repeating over candidate plaintexts recovers each victim plane value
(up to 65,536 tries per 16-bit value, at most 8 × 65,536 = 524,288
oracle queries); the planes reconstruct the post-SubBytes state, the
known victim ciphertext gives the last round key, and the invertible
key schedule yields the full victim key.

The simulator configuration follows the paper's experiment: a 5-entry
store queue and a 4-way set-associative cache.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.attacks.amplification import GadgetLayout, emit_gadget, \
    flush_pointer_write
from repro.crypto.aes import encrypt_block
from repro.crypto.batch import batch_last_round_planes, random_plaintexts
from repro.crypto.bsaes import last_round_planes, recover_key_from_planes
from repro.engine import (
    CacheSpec, HierarchySpec, LatencySpec, PluginSpec, Session, SimSpec,
    SimStats, TaintSpec, derive_seed, run_batch,
)
from repro.isa.assembler import Assembler
from repro.memory.hierarchy import MemoryLatencies
from repro.pipeline.config import CPUConfig

NUM_SLOTS = 8


@dataclass
class BSAESAttackConfig:
    """Geometry of the simulated victim (paper: 5-entry SQ, 4-way cache).

    The eight 16-bit intermediates sit one cache line apart: the
    victim's (large) stack frame interleaves them with other spilled
    temporaries, as the x86 BSAES frame does.
    """

    store_queue_size: int = 5
    num_l1_sets: int = 64
    l1_ways: int = 4
    line_size: int = 64
    memory_size: int = 1 << 20
    stack_base: int = 0x8000
    slot_stride: int = 64
    delay_ptr_addr: int = 0x4_0000
    flush_area_base: int = 0x5_0000
    latencies: MemoryLatencies = field(default_factory=MemoryLatencies)

    def slot_addr(self, slot):
        return self.stack_base + self.slot_stride * slot


class BSAESVictimServer:
    """The victim side: secret key, public plaintext, stack leftovers."""

    def __init__(self, victim_key, public_plaintext):
        self.victim_key = bytes(victim_key)
        self.public_plaintext = bytes(public_plaintext)
        #: Observable by the attacker (the server returns ciphertexts).
        self.ciphertext = encrypt_block(victim_key, public_plaintext)
        #: Ground truth, used only by tests — never by the attack logic.
        self.leftover_planes = last_round_planes(victim_key,
                                                 public_plaintext)


class BSAESSilentStoreAttack:
    """Drives the oracle, the search, and the key reconstruction."""

    def __init__(self, server, attacker_key, config=None, seed=2021):
        self.server = server
        self.attacker_key = bytes(attacker_key)
        self.config = config if config is not None else BSAESAttackConfig()
        self.seed = seed
        self.timed_queries = 0
        self.last_cpu = None
        self.last_histogram_stats = None
        self._thresholds = {}

    # ------------------------------------------------------------------
    # the simulated encryption tail (spill stage + gadget)
    # ------------------------------------------------------------------

    def _build_program(self, planes, target_slot, l1_spec):
        cfg = self.config
        layout = GadgetLayout(
            target_addr=cfg.slot_addr(target_slot),
            delay_ptr_addr=cfg.delay_ptr_addr,
            flush_area_base=cfg.flush_area_base)
        asm = Assembler()
        asm.li(1, cfg.stack_base)
        asm.annotate("warm the worker-stack slot lines")
        for slot in range(NUM_SLOTS):
            asm.load(2, 1, cfg.slot_stride * slot)
        asm.fence()
        for slot in range(target_slot):
            asm.li(3, planes[slot])
            asm.store(3, 1, cfg.slot_stride * slot, width=2)
        emit_gadget(asm, layout, l1_spec)
        asm.annotate("target store: spills the attacked plane")
        asm.li(6, planes[target_slot])
        asm.store(6, 1, cfg.slot_stride * target_slot, width=2)
        for slot in range(target_slot + 1, NUM_SLOTS):
            asm.li(3, planes[slot])
            asm.store(3, 1, cfg.slot_stride * slot, width=2)
        asm.fence()
        asm.halt()
        return asm.assemble(), layout

    def _spec_parts(self):
        """The frozen parts every measure spec of this configuration
        shares: ``(hierarchy, plug-ins, taint)``."""
        cfg = self.config
        hierarchy = HierarchySpec(
            memory_size=cfg.memory_size,
            l1=CacheSpec(num_sets=cfg.num_l1_sets, ways=cfg.l1_ways,
                         line_size=cfg.line_size),
            latencies=LatencySpec.from_latencies(cfg.latencies))
        taint = TaintSpec.of(secret=tuple(
            (cfg.slot_addr(slot), cfg.slot_addr(slot) + 2)
            for slot in range(NUM_SLOTS)))
        return hierarchy, (PluginSpec.of("silent-stores"),), taint

    def measure_spec(self, attacker_planes, target_slot,
                     leftover_planes=None, label="", trial_seed=0):
        """One timed "encryption call" as a declarative engine spec.

        ``leftover_planes`` defaults to the victim's stack leftovers
        (the real attack); calibration passes attacker-known values.
        """
        return self._measure_spec(self._spec_parts(), attacker_planes,
                                  target_slot, leftover_planes, label,
                                  trial_seed)

    def _measure_spec(self, parts, attacker_planes, target_slot,
                      leftover_planes, label, trial_seed):
        """:meth:`measure_spec` on ``parts`` from :meth:`_spec_parts`.

        Only the program, memory image, label, seed and config are the
        spec's own; the config is mutable, so each spec gets one.
        """
        cfg = self.config
        if leftover_planes is None:
            leftover_planes = self.server.leftover_planes
        hierarchy, plugins, taint = parts
        program, layout = self._build_program(
            [int(p) for p in attacker_planes], target_slot, hierarchy.l1)
        mem_writes = [(cfg.slot_addr(slot), int(leftover_planes[slot]), 2)
                      for slot in range(NUM_SLOTS)]
        mem_writes.append(flush_pointer_write(layout, hierarchy.l1))
        return SimSpec(
            program=program,
            config=CPUConfig(store_queue_size=cfg.store_queue_size),
            hierarchy=hierarchy, plugins=plugins,
            mem_writes=tuple(mem_writes), seed=trial_seed, label=label,
            taint=taint)

    def measure(self, attacker_planes, target_slot,
                leftover_planes=None):
        """One timed "encryption call": returns total cycles."""
        # Successive timed calls see fresh (but reproducible) DRAM
        # jitter, as successive encryptions on a real machine would.
        trial_seed = (derive_seed(self.seed, self.timed_queries)
                      if self.config.latencies.jitter else 0)
        session = Session.from_spec(self.measure_spec(
            attacker_planes, target_slot, leftover_planes,
            trial_seed=trial_seed))
        result = session.run()
        self.timed_queries += 1
        self.last_cpu = session.cpu
        return result.cycles

    # ------------------------------------------------------------------
    # oracle
    # ------------------------------------------------------------------

    def calibrate(self, target_slot):
        """Attacker self-calibration: it encrypts twice with leftovers it
        *knows* (its own previous call), once matching and once not,
        and places the threshold at the midpoint."""
        reference = [(37 * (slot + 3)) & 0xFFFF
                     for slot in range(NUM_SLOTS)]
        silent_cycles = self.measure(reference, target_slot,
                                     leftover_planes=reference)
        mismatched = list(reference)
        mismatched[target_slot] ^= 0x1
        noisy_cycles = self.measure(mismatched, target_slot,
                                    leftover_planes=reference)
        threshold = (silent_cycles + noisy_cycles) // 2
        self._thresholds[target_slot] = threshold
        return silent_cycles, noisy_cycles, threshold

    def timed_oracle(self, attacker_planes, target_slot):
        """True iff the targeted store was silent, judged by timing."""
        if target_slot not in self._thresholds:
            self.calibrate(target_slot)
        cycles = self.measure(attacker_planes, target_slot)
        return cycles < self._thresholds[target_slot]

    def functional_oracle(self, attacker_planes, target_slot):
        """The hardware equality check itself (what timing measures)."""
        return (int(attacker_planes[target_slot])
                == self.server.leftover_planes[target_slot])

    # ------------------------------------------------------------------
    # search and reconstruction
    # ------------------------------------------------------------------

    def recover_plane(self, target_slot, oracle="functional",
                      max_tries=1 << 18, batch_size=8192):
        """Search candidate plaintexts until the target store is silent.

        Returns ``(plane_value, tries)`` or ``(None, tries)`` when the
        budget is exhausted.  Each candidate costs one oracle query
        (one encryption request against the server).
        """
        check = (self.functional_oracle if oracle == "functional"
                 else self.timed_oracle)
        tries = 0
        offset = 0
        tried_values = set()
        # The attacker knows its own plane value before sending a
        # request, so it never wastes an oracle query on a repeat —
        # this is what makes the paper's "up to 65,536 possibilities"
        # per 16-bit value a hard bound.
        while tries < max_tries and len(tried_values) < (1 << 16):
            plaintexts = random_plaintexts(
                batch_size, seed=(self.seed, target_slot, offset))
            planes = batch_last_round_planes(self.attacker_key,
                                             plaintexts)
            for row in planes:
                value = int(row[target_slot])
                if value in tried_values:
                    continue
                tried_values.add(value)
                tries += 1
                if check(row, target_slot):
                    return value, tries
                if tries >= max_tries:
                    break
            offset += 1
        return None, tries

    def recover_key(self, oracle="functional", max_tries=1 << 18):
        """Recover all eight planes, then the victim key.

        Returns ``(key_or_None, per_slot_tries)``.
        """
        planes = []
        per_slot_tries = []
        for slot in range(NUM_SLOTS):
            value, tries = self.recover_plane(slot, oracle=oracle,
                                              max_tries=max_tries)
            per_slot_tries.append(tries)
            if value is None:
                return None, per_slot_tries
            planes.append(value)
        key = recover_key_from_planes(planes, self.server.ciphertext)
        return key, per_slot_tries

    def confirm_planes_timed(self, planes):
        """Validate recovered planes through the *timing* channel: each
        matching plane must time as silent, and a perturbed value as
        non-silent.  Returns the number of confirmed slots."""
        confirmed = 0
        for slot in range(NUM_SLOTS):
            match = list(planes)
            if not self.timed_oracle(match, slot):
                continue
            perturbed = list(planes)
            perturbed[slot] ^= 0x8001
            if self.timed_oracle(perturbed, slot):
                continue
            confirmed += 1
        return confirmed

    # ------------------------------------------------------------------
    # Figure 6: the runtime histogram
    # ------------------------------------------------------------------

    def histogram_specs(self, runs_per_type=30, target_slot=4, seed=7):
        """The Figure 6 trial batch as engine specs (label: guess type).

        Non-target slots vary across runs, as they would across real
        encryption calls.  The specs share one set of frozen parts
        (hierarchy, plug-ins, taint), so the batch builds and
        fingerprints them once.
        """
        rng = np.random.default_rng(seed)
        victim = self.server.leftover_planes
        jitter = bool(self.config.latencies.jitter)
        parts = self._spec_parts()
        specs = []
        for run in range(runs_per_type):
            noise = rng.integers(0, 1 << 16, size=NUM_SLOTS)
            correct = list(noise)
            correct[target_slot] = victim[target_slot]
            specs.append(self._measure_spec(
                parts, correct, target_slot, None, f"correct/{run}",
                derive_seed(seed, 2 * run) if jitter else 0))
            incorrect = list(noise)
            incorrect[target_slot] = victim[target_slot] ^ int(
                rng.integers(1, 1 << 16))
            specs.append(self._measure_spec(
                parts, incorrect, target_slot, None, f"incorrect/{run}",
                derive_seed(seed, 2 * run + 1) if jitter else 0))
        return specs

    def histogram_runs(self, runs_per_type=30, target_slot=4, seed=7,
                       workers=1, cache=None):
        """Timed runs for correct vs incorrect guesses (Figure 6).

        Returns ``{"correct": [cycles...], "incorrect": [cycles...]}``.
        The trials are independent replays, so ``workers > 1`` fans
        them across processes with identical aggregated results.

        The per-guess-type simulator metrics, merged across trials, land
        in :attr:`last_histogram_stats` as ``{"correct": ...,
        "incorrect": ...}`` ``as_dict`` payloads — the Figure 6 bench
        persists them so the amplification mechanism (store-queue
        head-of-line stall cycles) is auditable from the results JSON.
        """
        specs = self.histogram_specs(runs_per_type=runs_per_type,
                                     target_slot=target_slot, seed=seed)
        outcomes = run_batch(specs, workers=workers, cache=cache)
        self.timed_queries += len(outcomes)
        results = {"correct": [], "incorrect": []}
        merged = {"correct": SimStats(), "incorrect": SimStats()}
        for spec, outcome in zip(specs, outcomes):
            kind = spec.label.split("/")[0]
            results[kind].append(outcome.cycles)
            merged[kind].merge(outcome.metrics)
        self.last_histogram_stats = {
            kind: record.as_dict() for kind, record in merged.items()}
        return results
