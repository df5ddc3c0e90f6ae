"""Differential soundness: dynamic MLD divergence ⊆ static flags.

The checker's no-false-negatives contract, enforced over the full
attack-spec catalog plus targeted pairs where the dynamic divergence
is constructed to be non-vacuous.
"""

import pytest

from tests.spec_catalog import attack_specs

from repro.attacks.amplification import amplified_probe_spec
from repro.lint import check_soundness, lint_spec, secret_variants
from repro.lint.soundness import divergent_plugins


@pytest.fixture(scope="module")
def catalog():
    return attack_specs()


@pytest.mark.parametrize("name", sorted(attack_specs()))
def test_catalog_spec_is_soundly_flagged(catalog, name):
    spec = catalog[name]
    result = check_soundness(spec)
    assert result.ok, (
        f"{name}: dynamically divergent but unflagged plug-ins "
        f"{result.unflagged} — the checker missed a real leak")


def test_catalog_has_nonvacuous_coverage(catalog):
    divergent = {name for name, spec in catalog.items()
                 if not check_soundness(spec).vacuous}
    # Most of the catalog must demonstrate a *real* dynamic divergence,
    # otherwise the gate proves nothing.
    assert len(divergent) >= 5, sorted(divergent)


def test_amplification_silent_pair_diverges():
    # secret == store value: the baseline store is silent; flipping
    # secret bytes makes it non-silent. The canonical equality channel.
    spec = amplified_probe_spec(0x4321, 0x4321, gadget=True,
                                label="amp_silent_pair")
    result = check_soundness(spec)
    assert "silent-stores" in result.divergent
    assert "silent-stores" in result.flagged
    assert result.ok


def test_bsaes_audit_flags_exactly_silent_stores(catalog):
    report = lint_spec(catalog["bsaes"])
    assert report.leaking_plugins() == ["silent-stores"]
    assert not report.ok


def test_secret_variants_touch_only_secret_bytes(catalog):
    spec = catalog["reuse"]
    variants = secret_variants(spec)
    assert variants[0] is spec
    assert len(variants) > 1
    secret = spec.taint.secret
    for variant in variants[1:]:
        assert variant.program is spec.program
        assert variant.fingerprint() != spec.fingerprint()
        for (addr, value, width), (vaddr, vvalue, vwidth) in zip(
                spec.mem_writes, variant.mem_writes):
            assert addr == vaddr and width == vwidth
            if value != vvalue:
                changed = value ^ vvalue
                for index in range(width):
                    if (changed >> (8 * index)) & 0xFF:
                        byte_addr = addr + index
                        assert any(start <= byte_addr < end
                                   for start, end in secret), (
                            f"byte {byte_addr:#x} flipped outside the "
                            f"declared secret {secret}")


def test_spec_without_secrets_is_vacuous():
    spec = amplified_probe_spec(0x1111, 0x2222)
    stripped = spec.replace(taint=None)
    variants = secret_variants(stripped)
    assert variants == [stripped]
    result = check_soundness(stripped)
    assert result.ok and result.vacuous


def test_divergent_plugins_attributes_cycle_drift():
    class FakeResult:
        def __init__(self, cycles, plugins):
            self.cycles = cycles
            self.observations = {"plugins": plugins}

    same = {"silent-stores": {"silent": 1}}
    a = FakeResult(100, same)
    b = FakeResult(105, dict(same))
    # identical stats but drifted cycles: attribute to enabled plug-ins
    assert divergent_plugins(a, b, enabled=("silent-stores",)) == \
        {"silent-stores"}
    c = FakeResult(100, {"silent-stores": {"silent": 2}})
    assert divergent_plugins(a, c) == {"silent-stores"}
    assert divergent_plugins(a, FakeResult(100, dict(same))) == set()
