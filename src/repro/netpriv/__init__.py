"""IoT network privacy (Sec. IV): traffic simulation, attacks, gateway."""

from .adaptive import (
    ADAPTIVE_FEATURE_NAMES,
    AdaptiveOccupancyInferrer,
    ArmsRaceOutcome,
    AttackerReport,
    evaluate_arms_race,
    occupancy_window_features,
)
from .devices import PROFILES, Device, DeviceType, TrafficProfile
from .fingerprint import (
    FEATURE_NAMES,
    DeviceFingerprinter,
    FingerprintReport,
    device_window_features,
)
from .flows import Direction, Flow, FlowLog, flow_log_digest
from .gateway import (
    DeviceBaseline,
    GatewayReport,
    SmartGateway,
)
from .lan import LanConfig, LanSimulation, simulate_lan
from .shaping import (
    NETPRIV_KNOB_DOMAIN,
    ConstantRatePadding,
    FlowMerging,
    FlowShaper,
    HeartbeatJitter,
    IdentityShaper,
    ShapingReport,
    TrafficShaper,
    make_shaper,
)
from .threats import (
    Compromise,
    CompromiseKind,
    inject_compromise,
    occupancy_from_traffic,
)

__all__ = [
    "ADAPTIVE_FEATURE_NAMES",
    "AdaptiveOccupancyInferrer",
    "ArmsRaceOutcome",
    "AttackerReport",
    "evaluate_arms_race",
    "occupancy_window_features",
    "PROFILES",
    "Device",
    "DeviceType",
    "TrafficProfile",
    "FEATURE_NAMES",
    "DeviceFingerprinter",
    "FingerprintReport",
    "device_window_features",
    "Direction",
    "Flow",
    "FlowLog",
    "flow_log_digest",
    "DeviceBaseline",
    "GatewayReport",
    "SmartGateway",
    "LanConfig",
    "LanSimulation",
    "simulate_lan",
    "NETPRIV_KNOB_DOMAIN",
    "ConstantRatePadding",
    "FlowMerging",
    "FlowShaper",
    "HeartbeatJitter",
    "IdentityShaper",
    "ShapingReport",
    "TrafficShaper",
    "make_shaper",
    "Compromise",
    "CompromiseKind",
    "inject_compromise",
    "occupancy_from_traffic",
]
