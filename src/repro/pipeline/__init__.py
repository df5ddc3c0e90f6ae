"""Out-of-order core: config, dynamic instructions, plug-in interface."""

from repro.pipeline.branch_predictor import BranchPredictor
from repro.pipeline.config import CPUConfig
from repro.pipeline.cpu import CPU, CPUStats, SimulationError, run_on_cpu
from repro.pipeline.dyninst import DynInst, InstState, LQEntry, SilentState, SQEntry
from repro.pipeline.fastpath import FastPathCPU, FastPathStats
from repro.pipeline.plugins import (
    FF_EVERY_CYCLE, FF_PURE, FF_WAKEUP, OptimizationPlugin,
)
from repro.pipeline.presets import PRESETS
from repro.pipeline.smt import SMTCore

__all__ = [
    "BranchPredictor", "CPUConfig", "CPU", "CPUStats", "SimulationError",
    "run_on_cpu", "DynInst", "InstState", "LQEntry", "SilentState",
    "SQEntry", "FastPathCPU", "FastPathStats", "FF_EVERY_CYCLE",
    "FF_PURE", "FF_WAKEUP", "OptimizationPlugin", "PRESETS", "SMTCore",
]
