"""The fingerprint's bytes, however the specs that carry them were built.

:meth:`SimSpec.fingerprint` hashes ``json.dumps(payload, sort_keys=True,
separators=(",", ":"))`` of one payload dict.  It joins that JSON from
per-component texts: a frozen spec component keeps its own text, and a
config's text is memoized under a typed key.  These tests keep the
payload construction as an oracle and check that the digest depends
only on the spec's content, never on what the process fingerprinted
before.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
from hypothesis import given

from repro.attacks.bsaes_attack import (
    NUM_SLOTS, BSAESSilentStoreAttack, BSAESVictimServer,
)
from repro.engine import (
    CacheSpec, HierarchySpec, LatencySpec, PluginSpec, SimSpec, TLBSpec,
    TraceSpec,
)
from repro.engine.specs import _canonical
from repro.isa.assembler import Assembler
from repro.pipeline.config import CPUConfig
from tests.spec_catalog import VICTIM_KEY
from tests.test_property_roundtrip import BOUNDED, sim_specs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def oracle(spec):
    """The digest as one payload dict and one ``json.dumps`` built it,
    with the program encoded record by record."""
    program = spec.program
    records = [f"{inst.op.value},{inst.rd},{inst.rs1},{inst.rs2},"
               f"{inst.imm},{inst.width},"
               f"{-1 if inst.target is None else int(inst.target)}"
               for inst in program]
    records += [f".secret,{start},{end}"
                for start, end in program.secret_regions]
    records += [f".public,{start},{end}"
                for start, end in program.public_regions]
    payload = {
        "result_version": 3,
        "program": "\n".join(records).encode().hex(),
        "config": _canonical(spec.config if spec.config is not None
                             else CPUConfig()),
        "hierarchy": _canonical(spec.hierarchy),
        "plugins": _canonical(spec.plugins),
        "mem_writes": _canonical(spec.mem_writes),
        "mem_blobs": [[addr, bytes(data).hex()]
                      for addr, data in spec.mem_blobs],
        "regs": _canonical(spec.regs),
        "max_cycles": spec.max_cycles,
        "seed": spec.seed,
        "record_regs": _canonical(spec.record_regs),
    }
    if spec.trace is not None:
        payload["trace"] = _canonical(spec.trace)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _program(value=5):
    asm = Assembler()
    asm.li(1, value)
    asm.store(1, 0, 0x100)
    asm.halt()
    return asm.assemble()


# ----------------------------------------------------------------------
# the assembled JSON against the payload it replaces
# ----------------------------------------------------------------------


@BOUNDED
@given(spec=sim_specs())
def test_fingerprint_matches_the_payload_oracle(spec):
    assert spec.fingerprint() == oracle(spec)


def test_fixed_cases_match_the_oracle():
    base = SimSpec(program=_program(),
                   hierarchy=HierarchySpec(l2=CacheSpec(num_sets=128),
                                           tlb=TLBSpec(entries=16)),
                   plugins=(PluginSpec.of("silent-stores"),
                            PluginSpec.of("value-prediction")))
    cases = {
        "base": base,
        "traced": base.replace(trace=TraceSpec(categories=("sq", "inst"),
                                               sample=2)),
        "image": base.replace(
            mem_blobs=((0x200, b"\x00\xffblob"), (0x300, bytearray(3))),
            regs=((3, 7), (4, (1 << 64) - 1)), record_regs=(3, 4),
            max_cycles=5_000),
        "default-config": base.replace(config=CPUConfig()),
        "plugin-options": base.replace(config=CPUConfig(
            store_queue_size=5,
            plugin_options={"vp": {"threshold": 3}, "ss": [1, 2]})),
    }
    digests = {name: spec.fingerprint() for name, spec in cases.items()}
    for name, spec in cases.items():
        assert digests[name] == oracle(spec), name
    assert len(set(digests.values())) == len(digests) - 1
    # No config fingerprints as the default config.
    assert digests["default-config"] == digests["base"]


def test_components_another_spec_fingerprinted_keep_their_bytes():
    first = SimSpec(program=_program(1),
                    config=CPUConfig(store_queue_size=5),
                    hierarchy=HierarchySpec(latencies=LatencySpec(jitter=3)),
                    plugins=(PluginSpec.of("silent-stores"),),
                    trace=TraceSpec())
    first.fingerprint()
    # Every shared component now carries its text.
    second = SimSpec(program=_program(2),
                     config=CPUConfig(store_queue_size=5),
                     hierarchy=first.hierarchy, plugins=first.plugins,
                     trace=first.trace, seed=9)
    assert second.fingerprint() == oracle(second)
    rebuilt = SimSpec.from_json(second.to_json())
    assert rebuilt.fingerprint() == second.fingerprint()


def test_a_component_holding_a_mutable_value_is_serialized_each_time():
    table = [1, 2]
    plugin = PluginSpec(name="value-prediction", kwargs=(("table", table),))
    spec = SimSpec(program=_program(), plugins=(plugin,))
    before = spec.fingerprint()
    assert before == oracle(spec)
    table.append(3)
    after = spec.replace(seed=0)
    assert after.fingerprint() == oracle(after) != before


# ----------------------------------------------------------------------
# no history: equal components that serialize differently
# ----------------------------------------------------------------------


def history_pairs():
    """Pairs of specs whose components compare equal across the pair
    (``0 == False``) but serialize differently; fresh objects per call."""
    program = _program()
    return {
        "latency-jitter": tuple(
            SimSpec(program=program, hierarchy=HierarchySpec(
                latencies=LatencySpec(jitter=jitter)))
            for jitter in (0, False)),
        "cache-seed": tuple(
            SimSpec(program=program, hierarchy=HierarchySpec(
                l1=CacheSpec(seed=seed)))
            for seed in (0, False)),
        "config-flag": tuple(
            SimSpec(program=program,
                    config=CPUConfig(in_order_store_dequeue=flag))
            for flag in (True, 1)),
    }


def _fresh_process_digest(name, index):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = ("import sys\n"
            "from tests.test_engine_fingerprint import history_pairs\n"
            "name, index = sys.argv[1], int(sys.argv[2])\n"
            "print(history_pairs()[name][index].fingerprint())\n")
    done = subprocess.run([sys.executable, "-c", code, name, str(index)],
                          cwd=ROOT, env=env, capture_output=True,
                          text=True, check=True)
    return done.stdout.strip()


def test_a_fingerprint_does_not_depend_on_what_came_before():
    forward = {name: [first.fingerprint(), second.fingerprint()]
               for name, (first, second) in history_pairs().items()}
    backward = {}
    for name, (first, second) in history_pairs().items():
        later = second.fingerprint()
        backward[name] = [first.fingerprint(), later]
    for name, (first, second) in history_pairs().items():
        fresh = [_fresh_process_digest(name, index) for index in (0, 1)]
        assert forward[name] == backward[name] == fresh, name
        assert fresh[0] != fresh[1], name
        assert fresh == [oracle(first), oracle(second)], name


# ----------------------------------------------------------------------
# Figure 6 specs from shared parts
# ----------------------------------------------------------------------


def _attack():
    server = BSAESVictimServer(VICTIM_KEY, b"public-header-00")
    return BSAESSilentStoreAttack(server, bytes(range(16, 32)))


def _alone(runs_per_type, target_slot, seed):
    """The histogram's specs, each built alone by ``measure_spec``: the
    guesses ``histogram_specs`` draws, drawn the same way."""
    attack = _attack()
    rng = np.random.default_rng(seed)
    victim = attack.server.leftover_planes
    specs = []
    for run in range(runs_per_type):
        noise = rng.integers(0, 1 << 16, size=NUM_SLOTS)
        correct = list(noise)
        correct[target_slot] = victim[target_slot]
        incorrect = list(noise)
        incorrect[target_slot] = victim[target_slot] ^ int(
            rng.integers(1, 1 << 16))
        specs.append(attack.measure_spec(correct, target_slot,
                                         label=f"correct/{run}"))
        specs.append(attack.measure_spec(incorrect, target_slot,
                                         label=f"incorrect/{run}"))
    return specs


def test_histogram_specs_share_their_frozen_parts():
    specs = _attack().histogram_specs(runs_per_type=36, target_slot=4,
                                      seed=11)
    assert len(specs) == 72
    first = specs[0]
    for spec in specs:
        assert spec.hierarchy is first.hierarchy
        assert spec.plugins is first.plugins
        assert spec.taint is first.taint
    # A config is mutable: every spec has its own.
    assert len({id(spec.config) for spec in specs}) == 72


def test_shared_parts_fingerprint_as_specs_built_alone():
    # Alone first (in reverse), then shared; and the other way round.
    alone = _alone(36, 4, 11)
    alone_digests = [spec.fingerprint() for spec in reversed(alone)][::-1]
    shared = _attack().histogram_specs(runs_per_type=36, target_slot=4,
                                       seed=11)
    assert [spec.fingerprint() for spec in shared] == alone_digests
    assert [spec.label for spec in shared] == \
        [spec.label for spec in alone]
    assert [spec.to_json() for spec in shared] == \
        [spec.to_json() for spec in alone]

    shared = _attack().histogram_specs(runs_per_type=36, target_slot=2,
                                       seed=12)
    shared_digests = [spec.fingerprint() for spec in shared]
    alone = _alone(36, 2, 12)
    assert [spec.fingerprint() for spec in reversed(alone)][::-1] == \
        shared_digests
    assert shared_digests == [oracle(spec) for spec in shared]
