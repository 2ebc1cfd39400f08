"""Smart-home energy simulation substrate.

Generates the ground-truth data the paper's homes provided: per-appliance
power, whole-home aggregates, occupancy, hot-water demand, and the metered
view an AMI adversary sees.
"""

from .appliances import (
    ANYTIME,
    EVENING,
    MEALS,
    MORNING,
    NIGHT_LEISURE,
    Appliance,
    CompoundCycleAppliance,
    ContinuousAppliance,
    CyclicAppliance,
    InductiveAppliance,
    LightingAppliance,
    NonLinearAppliance,
    ResistiveAppliance,
    TimeOfDayAffinity,
    UsagePattern,
)
from .fingerprint import config_fingerprint, fingerprint
from .household import (
    WATER_HEATER_NAME,
    HomeConfig,
    HomeSimulation,
    simulate_home,
)
from .meter import MeterConfig, NetMeter, SmartMeter
from .occupancy import OccupancyConfig, OccupantProfile, simulate_occupancy
from .presets import (
    FIG2_DEVICES,
    PRESETS,
    fig2_home,
    fig6_home,
    home_a,
    home_b,
    make_preset,
    preset_names,
    random_home,
)
from .waterheater import (
    DrawConfig,
    WaterHeaterConfig,
    WaterHeaterTank,
    generate_draws,
    heater_trace,
    thermostat_power,
)

__all__ = [
    "ANYTIME",
    "EVENING",
    "MEALS",
    "MORNING",
    "NIGHT_LEISURE",
    "Appliance",
    "CompoundCycleAppliance",
    "ContinuousAppliance",
    "CyclicAppliance",
    "InductiveAppliance",
    "LightingAppliance",
    "NonLinearAppliance",
    "ResistiveAppliance",
    "TimeOfDayAffinity",
    "UsagePattern",
    "WATER_HEATER_NAME",
    "HomeConfig",
    "HomeSimulation",
    "simulate_home",
    "MeterConfig",
    "NetMeter",
    "SmartMeter",
    "OccupancyConfig",
    "OccupantProfile",
    "simulate_occupancy",
    "FIG2_DEVICES",
    "PRESETS",
    "config_fingerprint",
    "fingerprint",
    "fig2_home",
    "fig6_home",
    "home_a",
    "home_b",
    "make_preset",
    "preset_names",
    "random_home",
    "DrawConfig",
    "WaterHeaterConfig",
    "WaterHeaterTank",
    "generate_draws",
    "heater_trace",
    "thermostat_power",
]
