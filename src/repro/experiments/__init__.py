"""Evaluation harness: one module per table/figure of the paper (§VI)."""

from .accuracy import (
    ACCURACY_FIGURES,
    AccuracyCell,
    AccuracySweepResult,
    format_accuracy_figure,
    format_accuracy_table,
    run_accuracy_figure,
    run_accuracy_sweep,
)
from .common import DeployedWorkload, prepare_workload, restore_tcam, snapshot_tcam
from .figure3 import Figure3Series, format_figure3, run_figure3
from .figure7 import (
    Figure7Result,
    GammaSample,
    SIMULATION_BINS,
    TESTBED_BINS,
    format_figure7,
    run_suspect_reduction,
)
from .scalability import ScalabilityPoint, format_scalability, run_scalability

__all__ = [
    "ACCURACY_FIGURES",
    "AccuracyCell",
    "AccuracySweepResult",
    "DeployedWorkload",
    "Figure3Series",
    "Figure7Result",
    "GammaSample",
    "SIMULATION_BINS",
    "ScalabilityPoint",
    "TESTBED_BINS",
    "format_accuracy_figure",
    "format_accuracy_table",
    "format_figure3",
    "format_figure7",
    "format_scalability",
    "prepare_workload",
    "restore_tcam",
    "run_accuracy_figure",
    "run_accuracy_sweep",
    "run_figure3",
    "run_scalability",
    "run_suspect_reduction",
    "snapshot_tcam",
]
