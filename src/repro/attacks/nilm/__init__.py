"""NILM attacks: PowerPlay (model-driven) and FHMM (learned)."""

from .common import DisaggregationResult, align_truth_to_meter, disaggregation_error
from .fhmm import FHMMConfig, FHMMDisaggregator
from .powerplay import LoadKind, LoadSignature, PowerPlayTracker, fig2_signatures

__all__ = [
    "DisaggregationResult",
    "align_truth_to_meter",
    "disaggregation_error",
    "FHMMConfig",
    "FHMMDisaggregator",
    "LoadKind",
    "LoadSignature",
    "PowerPlayTracker",
    "fig2_signatures",
]
