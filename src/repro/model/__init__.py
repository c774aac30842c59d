"""The paper's §6 analytical disk-performance model."""

from repro.model.alternatives import OPERATIONS, design_alternatives
from repro.model.evaluate import Prediction, predict, predict_all
from repro.model.primitives import (
    Cpu,
    Fraction,
    Latency,
    MinusTransfer,
    Revolution,
    Script,
    Seek,
    SeekOver,
    ShortSeek,
    SlotAhead,
    Step,
    Transfer,
)
from repro.model.scripts import ModelAssumptions, all_scripts
from repro.model.validate import (
    ValidationRow,
    compare,
    max_abs_error_pct,
    mean_abs_error_pct,
)

__all__ = [
    "Cpu",
    "Fraction",
    "Latency",
    "MinusTransfer",
    "ModelAssumptions",
    "OPERATIONS",
    "Prediction",
    "Revolution",
    "Script",
    "Seek",
    "SeekOver",
    "ShortSeek",
    "SlotAhead",
    "Step",
    "Transfer",
    "ValidationRow",
    "all_scripts",
    "compare",
    "design_alternatives",
    "max_abs_error_pct",
    "mean_abs_error_pct",
    "predict",
    "predict_all",
]
