"""Privacy attacks on energy IoT data: NIOM, NILM, and profiling."""

from .niom import (
    DEFAULT_WINDOW_S,
    ClusterNIOM,
    HMMNIOM,
    NIOMResult,
    ThresholdNIOM,
    score_occupancy_attack,
)
from .nilm import (
    DisaggregationResult,
    FHMMConfig,
    FHMMDisaggregator,
    LoadKind,
    LoadSignature,
    PowerPlayTracker,
    align_truth_to_meter,
    disaggregation_error,
    fig2_signatures,
)
from .profiling import (
    HouseholdProfile,
    MealProfile,
    active_days_of_week,
    build_profile,
    estimated_bedtime_hour,
    meal_profile,
    usage_events_per_day,
    usage_hours_histogram,
)

__all__ = [
    "DEFAULT_WINDOW_S",
    "ClusterNIOM",
    "HMMNIOM",
    "NIOMResult",
    "ThresholdNIOM",
    "score_occupancy_attack",
    "DisaggregationResult",
    "FHMMConfig",
    "FHMMDisaggregator",
    "LoadKind",
    "LoadSignature",
    "PowerPlayTracker",
    "align_truth_to_meter",
    "disaggregation_error",
    "fig2_signatures",
    "HouseholdProfile",
    "MealProfile",
    "active_days_of_week",
    "build_profile",
    "estimated_bedtime_hour",
    "meal_profile",
    "usage_events_per_day",
    "usage_hours_histogram",
]
