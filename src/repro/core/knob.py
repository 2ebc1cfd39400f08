"""User-controllable privacy: the tunable knob of Sec. III-E.

The paper's closing proposal: "an abstract 'knob' that is controlled by
users and represents their privacy preferences: the knob can be adjusted to
tradeoff the loss of privacy ... with the value or utility offered by the
service".  The existing defenses sit at *discrete* points of that tradeoff;
the knob interpolates between them by scaling a defense's strength with a
single setting in [0, 1].

:class:`PrivacyKnob` maps a knob setting to a configured defense stack and
:func:`sweep_knob` traces the resulting privacy-utility frontier, which is
the ``sec3-frontier`` experiment of DESIGN.md.  :func:`dial_violations`
is the rule every frontier is held to: dialing up must not help the
attacker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..defenses.base import DefenseOutcome, IdentityDefense, TraceDefense
from ..defenses.battery import BatteryConfig, NILLDefense, SteppedDefense
from ..defenses.chpr import CHPrTraceDefense
from ..defenses.dp import DPConfig, LaplaceReleaseDefense
from ..defenses.smoothing import (
    CoarseningDefense,
    NoiseInjectionDefense,
    SmoothingDefense,
)
from ..timeseries import BinaryTrace, PowerTrace
from .evaluation import TradeoffPoint, evaluate_defense_outcome
from .registry import RegistryError


@dataclass(frozen=True)
class KnobStage:
    """One stage of the knob's defense stack with its activation range.

    The stage is active once the knob exceeds ``from_setting``; its own
    strength parameter ramps linearly from there to setting = 1.
    """

    name: str
    from_setting: float

    def local_strength(self, setting: float) -> float:
        if setting <= self.from_setting:
            return 0.0
        return (setting - self.from_setting) / (1.0 - self.from_setting)


#: The meter's own report period, which the knob's coarsening starts from.
KNOB_BASE_PERIOD_S = 60.0
#: Each stage's strength at full dial: the coarsest report period, the
#: noise std and the battery capacity (:class:`BatteryConfig`'s default).
KNOB_MAX_PERIOD_S = 3600.0
KNOB_MAX_NOISE_W = 400.0
KNOB_BATTERY_WH = 3000.0


class PrivacyKnob:
    """Maps a user's knob setting in [0, 1] to a defense pipeline.

    The staging mirrors how aggressively each mechanism degrades
    analytics: first *coarsen* the reporting interval (cheap, mild), then
    *noise* the readings, then *battery-level* the signal (strong).  At
    setting 0 the trace passes through untouched; at 1 everything runs at
    full strength.
    """

    stages = (
        KnobStage("coarsen", 0.0),
        KnobStage("noise", 0.35),
        KnobStage("battery", 0.65),
    )

    def defenses_for(self, setting: float) -> list[TraceDefense]:
        """The configured defense stack for a knob setting."""
        if not 0.0 <= setting <= 1.0:
            raise ValueError("knob setting must be in [0, 1]")
        stack: list[TraceDefense] = []
        coarsen, noise, battery = self.stages
        s = coarsen.local_strength(setting)
        if s > 0:
            # the report period grows geometrically from the meter's to an
            # hour, snapped to divisors of an hour so downstream hourly
            # analytics and further resampling always line up
            period = _hour_divisor_period(KNOB_BASE_PERIOD_S, KNOB_MAX_PERIOD_S, s)
            if period > KNOB_BASE_PERIOD_S:
                stack.append(CoarseningDefense(report_period_s=period))
        s = noise.local_strength(setting)
        if s > 0:
            stack.append(NoiseInjectionDefense(std_w=KNOB_MAX_NOISE_W * s))
        s = battery.local_strength(setting)
        if s > 0:
            battery_config = BatteryConfig(capacity_wh=KNOB_BATTERY_WH * s)
            stack.append(NILLDefense(battery=battery_config))
        return stack

    def apply(
        self,
        true_load: PowerTrace,
        setting: float,
        rng: np.random.Generator | int | None = None,
    ) -> DefenseOutcome:
        """Run the stack; later stages see earlier stages' output."""
        rng = np.random.default_rng(rng)
        visible = true_load
        extra_kwh = 0.0
        comfort = 0.0
        for defense in self.defenses_for(setting):
            outcome = defense.apply(visible, rng)
            visible = outcome.visible
            extra_kwh += outcome.extra_energy_kwh
            comfort = max(comfort, outcome.comfort_violation_fraction)
        reference = (
            true_load
            if abs(visible.period_s - true_load.period_s) < 1e-9
            else true_load.resample(visible.period_s)
        )
        distortion = TraceDefense._distortion(visible, reference)
        return DefenseOutcome(
            visible=visible,
            extra_energy_kwh=extra_kwh,
            comfort_violation_fraction=comfort,
            utility_distortion=distortion,
        )


def dial_violations(
    values: Sequence[float], tolerance: float
) -> list[tuple[int, float]]:
    """Positions where a dial series rises above its running minimum.

    ``values`` is one series in increasing-setting order, e.g. attack
    MCC at each dial position.  Turning the dial up must not make the
    attack better, but the estimates are noisy, so a value violates only
    when it exceeds the running minimum of the values before it plus
    ``tolerance``.  Returns ``(position, running_min)`` per violation.
    Both sweep frontiers' ``monotone_violations`` and ``monotone``
    claims apply this rule.
    """
    if not tolerance >= 0:  # NaN too: it would pass every value
        raise ValueError("tolerance must be >= 0")
    violations = []
    running_min = float("inf")
    for position, value in enumerate(values):
        if value > running_min + tolerance:
            violations.append((position, running_min))
        running_min = min(running_min, value)
    return violations


def sweep_knob(
    knob: PrivacyKnob,
    true_load: PowerTrace,
    occupancy: BinaryTrace,
    settings: np.ndarray | list[float] | None = None,
    rng: np.random.Generator | int | None = None,
) -> list[TradeoffPoint]:
    """Trace the privacy-utility frontier across knob settings."""
    rng = np.random.default_rng(rng)
    if settings is None:
        settings = np.linspace(0.0, 1.0, 6)
    points = []
    for setting in settings:
        outcome = knob.apply(true_load, float(setting), rng)
        points.append(
            evaluate_defense_outcome(
                f"knob={setting:.2f}", outcome, true_load, occupancy
            )
        )
    return points


# ---------------------------------------------------------------------------
# Knob mappings: one dial, every registered defense
# ---------------------------------------------------------------------------
#
# :class:`PrivacyKnob` interpolates through a *fixed* stack; the fleet sweep
# engine instead needs to dial each registered :class:`TraceDefense`
# individually, so a frontier can compare mechanisms at matched settings.
# A knob mapping is a callable ``setting in (0, 1] -> TraceDefense`` that
# scales the mechanism's natural strength parameter.  Setting 0 always means
# :class:`IdentityDefense` (the knob fully open — no protection, no cost),
# which anchors every mechanism's frontier at the same point.
#
# The parametrized defense round-trips through a plain string,
# ``name@setting`` (see :func:`knob_defense_name` / :func:`parse_knob_name`),
# which is what lets sweep cells ride the existing fleet cache and pickled
# job plumbing with no schema changes.
#
# Mappings are namespaced by *domain*: ``"energy"`` dials
# :class:`TraceDefense` instances over metered power (the historical,
# default namespace), while other subsystems — ``"netpriv"`` dials
# :class:`~repro.netpriv.shaping.FlowShaper` instances over flow logs —
# register their own dialable mechanisms without colliding with energy
# names or leaking non-``TraceDefense`` objects into energy sweeps.

_KNOB_MAPPINGS: dict[str, dict[str, Callable[[float], object]]] = {
    "energy": {},
}


def register_knob_mapping(
    name: str,
    mapping: Callable[[float], object],
    domain: str = "energy",
) -> None:
    """Register a ``setting -> mechanism`` mapping under ``domain``.

    The default domain is ``"energy"`` (mappings produce
    :class:`TraceDefense`); other domains may produce whatever their
    sweep engine dials (netpriv registers flow shapers).
    """
    table = _KNOB_MAPPINGS.setdefault(domain, {})
    if name in table:
        raise RegistryError(
            f"knob mapping {name!r} already registered in domain {domain!r}"
        )
    table[name] = mapping


def knob_mapping_names(domain: str = "energy") -> list[str]:
    return sorted(_KNOB_MAPPINGS.get(domain, ()))


def knob_domains() -> list[str]:
    """Every domain with at least one registered mapping."""
    return sorted(d for d, table in _KNOB_MAPPINGS.items() if table)


def knob_mapping(
    name: str, domain: str = "energy"
) -> Callable[[float], object]:
    """Look up one registered mapping (the raw ``setting ->`` callable)."""
    table = _KNOB_MAPPINGS.get(domain, {})
    if name not in table:
        raise RegistryError(
            f"no knob mapping for {name!r} in domain {domain!r}; "
            f"available: {sorted(table)}"
        )
    return table[name]


def knob_defense(name: str, setting: float) -> TraceDefense:
    """Build the named energy defense dialed to a knob setting in [0, 1]."""
    setting = float(setting)
    if not 0.0 <= setting <= 1.0:
        raise ValueError(f"knob setting must be in [0, 1], got {setting!r}")
    if setting == 0.0:
        return IdentityDefense()
    return knob_mapping(name, "energy")(setting)


def knob_defense_name(name: str, setting: float) -> str:
    """Canonical ``name@setting`` string for a dialed defense.

    ``.6g`` keeps the string short and stable, so equal settings always
    produce equal cache keys.
    """
    setting = float(setting)
    if not 0.0 <= setting <= 1.0:
        raise ValueError(f"knob setting must be in [0, 1], got {setting!r}")
    return f"{name}@{format(setting, '.6g')}"


def parse_knob_name(name: str) -> tuple[str, float]:
    """Split ``name@setting`` into its parts, validating both."""
    base, _, raw = name.rpartition("@")
    if not base or not raw:
        raise RegistryError(f"malformed knob defense name {name!r}")
    try:
        setting = float(raw)
    except ValueError:
        raise RegistryError(
            f"malformed knob setting in {name!r}: {raw!r} is not a number"
        ) from None
    if not 0.0 <= setting <= 1.0:
        raise RegistryError(
            f"knob setting in {name!r} must be in [0, 1], got {setting}"
        )
    return base, setting


def _hour_divisor_period(lo_s: float, hi_s: float, s: float) -> float:
    """Geometric interpolation between periods, snapped to hour divisors."""
    period = lo_s * (hi_s / lo_s) ** s
    candidates = [
        p
        for p in (60.0, 120.0, 180.0, 300.0, 600.0, 900.0, 1800.0, 3600.0)
        if lo_s <= p <= hi_s
    ]
    return min(candidates, key=lambda p: abs(p - period))


# Built-in mappings.  Each dials the mechanism's natural strength axis so
# larger settings plausibly buy more privacy; the sweep's monotone check
# (tests/test_sweep.py) is what holds them to that reading.
register_knob_mapping("identity", lambda s: IdentityDefense())
register_knob_mapping(
    # battery capacity is NILL's budget for holding the meter flat; the
    # default BatteryConfig (3 kWh) sits at setting 0.5
    "nill",
    lambda s: NILLDefense(battery=BatteryConfig(capacity_wh=6000.0 * s)),
)
register_knob_mapping(
    "stepped",
    lambda s: SteppedDefense(battery=BatteryConfig(capacity_wh=6000.0 * s)),
)
register_knob_mapping("chpr", lambda s: CHPrTraceDefense(strength=s))
register_knob_mapping(
    # epsilon falls geometrically from 10 (almost no noise) to 0.1 (scale
    # = 20 kW per 15-min release): smaller epsilon = stronger privacy
    "dp-laplace",
    lambda s: LaplaceReleaseDefense(DPConfig(epsilon=10.0 * 0.01**s)),
)
register_knob_mapping(
    "smoothing",
    lambda s: SmoothingDefense(window_s=300.0 * 24.0**s),
)
register_knob_mapping(
    "coarsening",
    lambda s: CoarseningDefense(
        report_period_s=_hour_divisor_period(60.0, 3600.0, s)
    ),
)
register_knob_mapping(
    "noise",
    lambda s: NoiseInjectionDefense(std_w=800.0 * s),
)
