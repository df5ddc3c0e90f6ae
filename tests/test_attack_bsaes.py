"""End-to-end BSAES key recovery through silent stores (Section V-A3)."""

import random

import pytest

from repro.attacks.bsaes_attack import (
    BSAESAttackConfig, BSAESSilentStoreAttack, BSAESVictimServer, NUM_SLOTS,
)
from repro.crypto.batch import batch_last_round_planes, random_plaintexts

VICTIM_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
ATTACKER_KEY = bytes(range(16, 32))
PUBLIC_PLAINTEXT = b"public-header-00"


@pytest.fixture(scope="module")
def server():
    return BSAESVictimServer(VICTIM_KEY, PUBLIC_PLAINTEXT)


@pytest.fixture()
def attack(server):
    return BSAESSilentStoreAttack(server, ATTACKER_KEY)


def test_server_exposes_only_public_information(server):
    assert server.ciphertext is not None
    assert len(server.leftover_planes) == NUM_SLOTS


def test_calibration_gap_exceeds_100_cycles(attack):
    silent, nonsilent, threshold = attack.calibrate(target_slot=3)
    assert nonsilent - silent > 100
    assert silent < threshold < nonsilent


def test_timed_oracle_agrees_with_functional_oracle(attack, server):
    """The timing channel and the hardware equality check coincide."""
    plaintexts = random_plaintexts(6, seed=11)
    planes = batch_last_round_planes(ATTACKER_KEY, plaintexts)
    slot = 2
    for row in planes:
        assert (attack.timed_oracle(row, slot)
                == attack.functional_oracle(row, slot))
    # And a forced match must read as silent:
    forced = list(planes[0])
    forced[slot] = server.leftover_planes[slot]
    assert attack.timed_oracle(forced, slot)


def test_full_key_recovery_functional(attack, server):
    key, tries = attack.recover_key(oracle="functional")
    assert key == server.victim_key
    assert len(tries) == NUM_SLOTS
    # Paper: up to 65,536 tries per 16-bit value, <= 524,288 total —
    # a hard bound, since the attacker never re-tries a plane value.
    assert all(count <= 65_536 for count in tries)
    assert sum(tries) <= 524_288


def test_recovered_planes_confirmed_by_timing(attack, server):
    confirmed = attack.confirm_planes_timed(
        list(server.leftover_planes))
    assert confirmed == NUM_SLOTS


def test_histogram_is_bimodal(attack):
    histogram = attack.histogram_runs(runs_per_type=5, target_slot=4)
    assert max(histogram["correct"]) < min(histogram["incorrect"])
    gap = min(histogram["incorrect"]) - max(histogram["correct"])
    assert gap > 100


def test_search_budget_exhaustion_returns_none(attack):
    value, tries = attack.recover_plane(0, oracle="functional",
                                        max_tries=4)
    assert tries == 4
    # Statistically impossible to find a 16-bit value in 4 tries
    # (seeded search; verified deterministic).
    assert value is None


def test_wrong_attacker_key_still_recovers(server):
    """The attack works for any attacker key — it only needs to know
    its own key (paper: "the attacker has access to its own key")."""
    other = BSAESSilentStoreAttack(server, bytes(range(100, 116)),
                                   seed=5)
    value, _tries = other.recover_plane(0, oracle="functional")
    assert value == server.leftover_planes[0]


# ----------------------------------------------------------------------
# the assembled-once program template
# ----------------------------------------------------------------------


def template_mismatches(attack, rounds=3, seed=0):
    """``(target_slot, round)`` pairs whose spec program differs from the
    one the assembler builds for the same random planes, in encoding,
    labels or listing (which shows annotations)."""
    rng = random.Random(seed)
    l1 = attack._spec_parts()[0].l1
    mismatches = []
    for target_slot in range(NUM_SLOTS):
        for index in range(rounds):
            planes = [rng.randrange(1 << 16) for _ in range(NUM_SLOTS)]
            made = attack.measure_spec(planes, target_slot).program
            assembled = attack._build_program(planes, target_slot, l1)[0]
            if ((made.encode(), made.labels, made.listing())
                    != (assembled.encode(), assembled.labels,
                        assembled.listing())):
                mismatches.append((target_slot, index))
    return mismatches


def test_template_programs_equal_assembled_programs(server):
    """For every target slot and random planes, the program a spec gets
    from the template is the one the assembler builds, also after the
    (mutable) config changes its addresses and stride."""
    attack = BSAESSilentStoreAttack(server, ATTACKER_KEY)
    assert template_mismatches(attack) == []
    other = BSAESSilentStoreAttack(server, ATTACKER_KEY, BSAESAttackConfig(
        num_l1_sets=32, l1_ways=8, stack_base=0x9000, slot_stride=128))
    assert template_mismatches(other, seed=1) == []
    attack.config.slot_stride = 192
    attack.config.delay_ptr_addr = 0x4_8000
    assert template_mismatches(attack, seed=2) == []
    assert len(attack._templates) == 2 * NUM_SLOTS


def test_the_template_check_catches_a_stale_plane(server, monkeypatch):
    """Committed mutant: a template that leaves the last slot's plane
    immediate as assembled (all-zero planes) fails the check above for
    every target slot."""
    template = BSAESSilentStoreAttack._template

    def stale(self, target_slot, l1_spec):
        program, plane_pcs, flush_write, slot_addrs = template(
            self, target_slot, l1_spec)
        return program, plane_pcs[:-1], flush_write, slot_addrs

    monkeypatch.setattr(BSAESSilentStoreAttack, "_template", stale)
    attack = BSAESSilentStoreAttack(server, ATTACKER_KEY)
    assert {slot for slot, _ in template_mismatches(attack)} == \
        set(range(NUM_SLOTS))
