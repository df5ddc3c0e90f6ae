"""Histogram metrics and receiver noise."""

from repro.analysis.histogram import TimingHistogram, apply_receiver_noise


def bimodal_histogram():
    histogram = TimingHistogram()
    histogram.extend("correct", [380, 382, 381, 380])
    histogram.extend("incorrect", [500, 502, 501])
    return histogram


def test_summary_statistics():
    histogram = bimodal_histogram()
    summary = histogram.summary("correct")
    assert summary["count"] == 4
    assert summary["min"] == 380 and summary["max"] == 382
    assert 380 <= summary["mean"] <= 382
    assert summary["std"] < 2


def test_separation_and_threshold():
    histogram = bimodal_histogram()
    assert histogram.separation("correct", "incorrect") == 118
    threshold = histogram.threshold("correct", "incorrect")
    assert 382 < threshold < 500
    assert histogram.overlap_count("correct", "incorrect") == 0


def test_overlapping_distributions_detected():
    histogram = TimingHistogram()
    histogram.extend("fast", [100, 110, 130])
    histogram.extend("slow", [120, 140])
    assert histogram.separation("fast", "slow") < 0
    assert histogram.overlap_count("fast", "slow") > 0


def test_render_mentions_labels_and_bins():
    text = bimodal_histogram().render(bin_width=8)
    assert "[correct]" in text and "[incorrect]" in text
    assert "#" in text


def test_render_empty():
    assert "empty" in TimingHistogram().render()


def test_receiver_noise_is_seeded_and_bounded():
    samples = [500] * 100
    noisy_a = apply_receiver_noise(samples, sigma=5, seed=1)
    noisy_b = apply_receiver_noise(samples, sigma=5, seed=1)
    assert noisy_a == noisy_b
    assert any(x != 500 for x in noisy_a)
    assert all(x >= 0 for x in noisy_a)


def test_channel_survives_moderate_noise():
    histogram = TimingHistogram()
    histogram.extend("correct", apply_receiver_noise([382] * 50, 8, 2))
    histogram.extend("incorrect", apply_receiver_noise([502] * 50, 8, 3))
    assert histogram.separation("correct", "incorrect") > 50

