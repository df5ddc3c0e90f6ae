"""Figure 6 — BSAES runtime histogram, correct vs incorrect guesses.

Reproduces the paper's experiment: a 5-entry store queue, a 4-way
set-associative cache, the amplification gadget on one of the eight
AES-state stores, and many encryption calls per guess type.  The paper
reports a large, easily distinguishable (> 100 cycle) separation; the
shape claim checked here is exactly that.

Absolute cycle counts differ from the paper's gem5 x86 machine (theirs
cluster around 14,000 cycles because they run the full encryption; we
simulate the spill stage), but the separation — the figure's takeaway —
is reproduced, including under injected receiver noise.
"""

from conftest import emit, emit_json

from repro.analysis.histogram import TimingHistogram, apply_receiver_noise
from repro.attacks.bsaes_attack import (
    BSAESSilentStoreAttack, BSAESVictimServer,
)

VICTIM_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
ATTACKER_KEY = bytes(range(16, 32))


def run_histogram(runs_per_type=20, cache=None):
    server = BSAESVictimServer(VICTIM_KEY, b"public-header-00")
    attack = BSAESSilentStoreAttack(server, ATTACKER_KEY)
    samples = attack.histogram_runs(runs_per_type=runs_per_type,
                                    target_slot=4, cache=cache)
    return samples, attack.last_histogram_stats


def test_fig6_bsaes_histogram(once, results_cache):
    samples, run_stats = once(run_histogram, cache=results_cache)
    histogram = TimingHistogram()
    histogram.extend("correct", samples["correct"])
    histogram.extend("incorrect", samples["incorrect"])
    separation = histogram.separation("correct", "incorrect")

    noisy = TimingHistogram()
    noisy.extend("correct",
                 apply_receiver_noise(samples["correct"], 10, seed=1))
    noisy.extend("incorrect",
                 apply_receiver_noise(samples["incorrect"], 10, seed=2))

    lines = [
        histogram.render(bin_width=16),
        "",
        f"correct:   {histogram.summary('correct')}",
        f"incorrect: {histogram.summary('incorrect')}",
        f"separation: {separation} cycles (paper: > 100)",
        f"misclassified with midpoint threshold: "
        f"{histogram.overlap_count('correct', 'incorrect')}",
        f"misclassified under sigma=10 receiver noise: "
        f"{noisy.overlap_count('correct', 'incorrect')}",
    ]
    emit("fig6_bsaes_histogram", "\n".join(lines))
    emit_json("fig6_bsaes_histogram",
              {"samples": samples, "separation": separation,
               "misclassified": histogram.overlap_count(
                   "correct", "incorrect"),
               "misclassified_noisy": noisy.overlap_count(
                   "correct", "incorrect"),
               "stats": run_stats})

    assert separation > 100
    assert histogram.overlap_count("correct", "incorrect") == 0
    assert noisy.overlap_count("correct", "incorrect") == 0

    # The separation is manufactured by store-queue head-of-line
    # blocking: incorrect guesses (non-silent target store) accumulate
    # far more stall cycles than correct ones (see bench_fig5 for the
    # per-run attribution).
    def hol(kind):
        return run_stats[kind]["counters"].get(
            "pipeline.sq.head_of_line_stall_cycles", 0)
    assert hol("incorrect") > hol("correct")
