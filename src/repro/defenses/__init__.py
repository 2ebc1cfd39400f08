"""Defenses against energy-data privacy attacks (Sec. III of the paper)."""

from .base import DefenseOutcome, IdentityDefense, TraceDefense
from .battery import Battery, BatteryConfig, NILLDefense, SteppedDefense
from .chpr import CHPrConfig, CHPrController, CHPrTraceDefense, apply_chpr
from .dp import DPConfig, LaplaceReleaseDefense, dp_aggregate_consumption, laplace_noise
from .local import LocalAnalyticsHub, ScheduleRecommendation, SharedPayload
from .smoothing import CoarseningDefense, NoiseInjectionDefense, SmoothingDefense
from .zkp import (
    BillProof,
    Commitment,
    OpeningProof,
    PrivateMeter,
    UtilityVerifier,
)

__all__ = [
    "DefenseOutcome",
    "IdentityDefense",
    "TraceDefense",
    "Battery",
    "BatteryConfig",
    "NILLDefense",
    "SteppedDefense",
    "CHPrConfig",
    "CHPrController",
    "CHPrTraceDefense",
    "apply_chpr",
    "DPConfig",
    "LaplaceReleaseDefense",
    "dp_aggregate_consumption",
    "laplace_noise",
    "LocalAnalyticsHub",
    "ScheduleRecommendation",
    "SharedPayload",
    "CoarseningDefense",
    "NoiseInjectionDefense",
    "SmoothingDefense",
    "BillProof",
    "Commitment",
    "OpeningProof",
    "PrivateMeter",
    "UtilityVerifier",
]
