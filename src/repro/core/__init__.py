"""Core: evaluation pipeline, privacy knob, claims model, registries.

The knob module also holds :func:`dial_violations`, the running-minimum
rule that both sweep frontiers and ``monotone`` claims gate on.
"""

from .claims import (
    Claim,
    ClaimSet,
    ClaimsError,
    Selector,
    Span,
    load_claims,
    parse_span,
)
from .evaluation import (
    DEFAULT_DETECTORS,
    PrivacyScore,
    TradeoffPoint,
    UtilityScore,
    analytics_utility,
    evaluate_defense_outcome,
    occupancy_privacy,
)
from .knob import (
    KnobStage,
    PrivacyKnob,
    dial_violations,
    knob_defense,
    knob_defense_name,
    knob_domains,
    knob_mapping,
    knob_mapping_names,
    parse_knob_name,
    register_knob_mapping,
    sweep_knob,
)
from .pipeline import (
    PipelineResult,
    evaluate_baseline,
    evaluate_simulation,
    run_pipeline,
)
from .registry import (
    RegistryError,
    defense_names,
    make_defense,
    niom_attack_names,
    register_defense,
)

__all__ = [
    "Claim",
    "ClaimSet",
    "ClaimsError",
    "Selector",
    "Span",
    "load_claims",
    "parse_span",
    "DEFAULT_DETECTORS",
    "PrivacyScore",
    "TradeoffPoint",
    "UtilityScore",
    "analytics_utility",
    "evaluate_defense_outcome",
    "occupancy_privacy",
    "KnobStage",
    "PrivacyKnob",
    "dial_violations",
    "knob_defense",
    "knob_defense_name",
    "knob_domains",
    "knob_mapping",
    "knob_mapping_names",
    "parse_knob_name",
    "register_knob_mapping",
    "sweep_knob",
    "PipelineResult",
    "evaluate_baseline",
    "evaluate_simulation",
    "run_pipeline",
    "RegistryError",
    "defense_names",
    "make_defense",
    "niom_attack_names",
    "register_defense",
]
