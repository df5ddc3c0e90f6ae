"""Auditing leakage twice: at design time and at code-review time.

Part 1 (Section IV-A) audits a *proposed optimization* with the MLD
framework: write the descriptor, and the framework says what it leaks,
to which attackers, and how fast.

Part 2 (the ``repro.lint`` checker) audits a *program* against the
already-built optimizations: per static instruction, can secret data
reach the operand taps each optimization's MLD observes?  The verdict
comes with a taint-flow witness, and the differential harness then
runs secret-pair trials through the engine to confirm every dynamic
divergence was statically flagged — the checker's no-false-negatives
contract.

Run:  python examples/leakage_audit.py
"""

import os

from repro.core import (
    InputKind, InstSnapshot, MLD, MLDInput, classify_mld,
    induced_partition, leakage_bits,
)
from repro.engine import PluginSpec, SimSpec, TaintSpec
from repro.isa.text import assemble_file
from repro.lint import check_soundness, lint_program

PROGRAMS = os.path.join(os.path.dirname(__file__), "programs")


def build_proposed_mld():
    """The optimization under audit: hit iff operands repeat."""
    def outcome(i1, last_operands):
        return int(tuple(i1.args) == tuple(last_operands))

    return MLD(
        "operand_reuse_adder",
        [MLDInput(InputKind.INST, "i1"),
         MLDInput(InputKind.UARCH, "last_operands")],
        outcome,
        "Skips an ADD when its operands equal the previous ADD's.")


def design_time_audit():
    mld = build_proposed_mld()
    print(f"Descriptor under audit: {mld!r}")
    print(f"  {mld.description}\n")

    print("--- classification (Table II methodology) ---")
    print(f"  {classify_mld(mld).value}")
    print("  -> persistent Uarch state participates: active attackers "
          "can precondition it.\n")

    print("--- what leaks, per preconditioning (lattice analysis) ---")
    secret_domain = list(range(16))

    def outcome_fn(secret, precondition):
        return mld(InstSnapshot(args=(secret, 7)), precondition)

    for precondition in ((7, 7), (3, 7)):
        blocks = induced_partition(outcome_fn, secret_domain,
                                   (precondition,))
        bits = leakage_bits(outcome_fn, secret_domain, (precondition,))
        print(f"  attacker preconditions last_operands={precondition}: "
              f"{len(blocks)} distinguishable classes, "
              f"{bits:.3f} bits/observation")
    print("\nVerdict: a stateful instruction-centric equality "
          "transmitter, the class of\nsilent stores and Sv computation "
          "reuse (Table I columns SS/CR).\n")


def code_review_audit():
    print("--- the gadget, statically ---")
    program = assemble_file(os.path.join(PROGRAMS, "leaky_window.s"))
    report = lint_program(
        program,
        opts=("silent-stores", "computation-simplification",
              "value-prediction", "operand-packing"),
        program_name="leaky_window.s")
    print(report.render())
    print()

    print("--- the clean control ---")
    clean = assemble_file(os.path.join(PROGRAMS, "ct_checksum.s"))
    clean_report = lint_program(
        clean,
        opts=("silent-stores", "computation-simplification",
              "value-prediction", "operand-packing"),
        program_name="ct_checksum.s")
    print(clean_report.render())
    print()

    print("--- dynamic confirmation (soundness harness) ---")
    spec = SimSpec(
        program=program,
        plugins=(PluginSpec.of("silent-stores"),),
        # secret = 1 makes the multiply an identity, so the baseline
        # store rewrites the old value (silent); every secret-flipped
        # variant scales it (non-silent) — the equality channel,
        # observed end to end.
        mem_writes=((0x1000, 1, 8), (0x2000, 0x4321, 8)),
        taint=TaintSpec.of(secret=((0x1000, 0x1008),)),
        label="leaky_window/ss")
    result = check_soundness(spec)
    print(f"  statically flagged: {', '.join(result.flagged) or 'none'}")
    print(f"  dynamically divergent over {result.variants} secret-pair "
          f"variants: {', '.join(result.divergent) or 'none'}")
    print(f"  unflagged divergences (checker bugs): "
          f"{', '.join(result.unflagged) or 'none'}")
    assert result.ok, "soundness violation!"


def main():
    print("=== Part 1: design-time audit of a proposed optimization "
          "===\n")
    design_time_audit()
    print("=== Part 2: code-review audit of a program (repro.lint) "
          "===\n")
    code_review_audit()
    print("\nSame question both times — can a secret reach the MLD's "
          "inputs? — asked of\na design in Part 1 and of a binary in "
          "Part 2.")


if __name__ == "__main__":
    main()
