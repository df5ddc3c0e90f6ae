"""Golden-fingerprint regression pins for the result cache.

A :meth:`SimSpec.fingerprint` keys the persistent
:class:`~repro.engine.ResultCache` — if it drifts silently, every
cached simulation (including the bench cache under
``benchmarks/results/cache/``) is orphaned and experiments quietly
re-run from scratch.  This pins the fingerprint of one spec per attack
module so any change to the hash inputs (program encoding, canonical
form, payload schema, ``result_version``) shows up as an explicit test
failure.

If you changed the fingerprint *on purpose* (e.g. the RunResult schema
grew a field and ``result_version`` was bumped), re-pin with::

    PYTHONPATH=src python - <<'EOF'
    from tests.spec_catalog import attack_specs
    for name, spec in sorted(attack_specs().items()):
        print(f'    "{name}":\\n        "{spec.fingerprint()}",')
    EOF

and say so in the commit message — it invalidates persisted caches.
"""

import pytest

from tests.spec_catalog import attack_specs

#: Pinned against ``result_version`` 3 (version 2 added ``metrics`` to
#: RunResult; version 3 added ``trace``).
GOLDEN = {
    "amplification":
        "c2f56fce687f1bda48ec672a538db7e93e913b588304f272ac4b38b21b96a297",
    "bsaes":
        "00d133e71880354c5d76ea067497a73710ab1389913b7fc5c7a1e30f2945e43c",
    "compsimp":
        "77ed28a7de447c4ce314a52d3d23f85183c0980d438b596e4fcdc723528fba53",
    "packing":
        "9d078fda9f84dc983270904c7893759e3a71fcc78c1e66a523770ac3871f791f",
    "replay":
        "355e11b122f81db21ea32f541c184dc2d610a14f45626f122cb64bc146516652",
    "reuse":
        "6c39b24de8155a4f374a6dd494a28a098b8a94fc8ae9318c932632797eef5762",
    "rfc":
        "a7dc8b121734a7209008692ce01ecee72ac1e18244b067d64365a066ff433d3c",
    "vp":
        "d8a0a3bebdce7d1138314ef457e991a77de917017548e9782fe6c2dd4443ddaf",
}


def test_catalog_and_goldens_cover_the_same_attacks():
    assert sorted(attack_specs()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fingerprint_is_pinned(name):
    spec = attack_specs()[name]
    assert spec.fingerprint() == GOLDEN[name]
    # Fingerprints are also stable across spec rebuilds (no hidden
    # object-identity or ordering dependence).
    assert attack_specs()[name].fingerprint() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fingerprint_ignores_presentation_fields(name):
    spec = attack_specs()[name]
    assert spec.replace(label="renamed",
                        meta=(("phase", 1),)).fingerprint() == GOLDEN[name]


@pytest.mark.parametrize("collect_stats", [True, False])
def test_spec_json_with_the_retired_stats_switch_loads(collect_stats):
    """Spec JSON written while ``collect_stats`` existed still loads,
    fingerprints as the spec without it, and is written back without
    the key: every spec-built run records its stats now."""
    from repro.engine import SimSpec
    data = attack_specs()["amplification"].to_json_dict()
    data["collect_stats"] = collect_stats
    loaded = SimSpec.from_json_dict(data)
    assert loaded.fingerprint() == GOLDEN["amplification"]
    assert "collect_stats" not in loaded.to_json_dict()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fingerprint_ignores_taint_metadata(name):
    """Lint metadata must never re-key the result cache: the taint
    seed changes what the *checker* says, not what the machine does.
    Every catalog spec already ships a TaintSpec, and stripping or
    rewriting it must not move the pinned hash."""
    from repro.engine import TaintSpec
    spec = attack_specs()[name]
    assert spec.taint is not None
    assert spec.replace(taint=None).fingerprint() == GOLDEN[name]
    assert spec.replace(taint=TaintSpec.of(
        secret=((0, 1 << 12),), secret_regs=(1, 2, 3),
    )).fingerprint() == GOLDEN[name]


def test_fingerprint_depends_on_trace_only_when_set():
    from repro.engine import TraceSpec
    spec = attack_specs()["amplification"]
    assert spec.replace(trace=None).fingerprint() == \
        GOLDEN["amplification"]
    traced = spec.replace(trace=TraceSpec()).fingerprint()
    assert traced != GOLDEN["amplification"]
    # ... and on the trace *configuration*, not just its presence.
    assert spec.replace(
        trace=TraceSpec(categories=("sq",))).fingerprint() != traced
