"""Simulator observability: mergeable metrics for every layer.

* :mod:`repro.stats.core` — :class:`SimStats` (counters, high-water
  marks, histograms) with fixed merge semantics, and :func:`merge_all`
  for batch aggregation.
* :mod:`repro.stats.report` — the human-readable run-report renderer
  behind ``python -m repro stats``.

Every spec-built run has a record, which ``Session.run`` writes once
from the simulator's own counts; the simulator itself never imports
this package.  See DESIGN.md ("The stats layer") for the counter
catalogue.
"""

from repro.stats.core import Histogram, SimStats, merge_all
from repro.stats.report import extract_stats_blocks, render_stats

__all__ = [
    "Histogram", "SimStats", "extract_stats_blocks", "merge_all",
    "render_stats",
]
