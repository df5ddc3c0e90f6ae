"""Measurement analysis: histograms, distinguishability, leakage."""

from repro.analysis.histogram import TimingHistogram, apply_receiver_noise
from repro.analysis.information import (
    capacity_achieved, leakage_per_observation, mutual_information,
)

__all__ = [
    "TimingHistogram", "apply_receiver_noise", "capacity_achieved",
    "leakage_per_observation", "mutual_information",
]
