"""Name-based registries for attacks and defenses.

Benchmarks, the knob, and downstream users refer to attacks/defenses by
name.  Register your own defense, then sweep it alongside the built-ins;
a NIOM detector's name is its name in ``DEFAULT_DETECTORS``.
"""

from __future__ import annotations

from typing import Callable

from ..defenses.base import IdentityDefense, TraceDefense
from ..defenses.battery import NILLDefense, SteppedDefense
from ..defenses.chpr import CHPrTraceDefense
from ..defenses.dp import LaplaceReleaseDefense
from ..defenses.smoothing import (
    CoarseningDefense,
    NoiseInjectionDefense,
    SmoothingDefense,
)
from .evaluation import DEFAULT_DETECTORS

_DEFENSES: dict[str, Callable[[], TraceDefense]] = {}


class RegistryError(KeyError):
    """Unknown or duplicate registry name."""


def register_defense(name: str, factory: Callable[[], TraceDefense]) -> None:
    """Register a defense factory under a unique name."""
    if name in _DEFENSES:
        raise RegistryError(f"defense {name!r} already registered")
    _DEFENSES[name] = factory


def make_defense(name: str) -> TraceDefense:
    """Build a defense by registry name, or by knob form ``name@setting``.

    The ``@`` form routes through the knob-mapping registry
    (:func:`repro.core.knob.knob_defense`), so sweep cells can carry a
    fully parametrized defense as a plain string — through pickled fleet
    jobs and content-addressed cache keys — with no schema changes.
    """
    return defense_factory(name)()


def defense_factory(name: str) -> Callable[[], TraceDefense]:
    """The factory :func:`make_defense` calls, found without building;
    :class:`RegistryError` for a name neither registered nor a knob form
    with an energy mapping."""
    if "@" in name:
        # function-level import: knob.py imports this module for names
        from .knob import knob_defense, knob_mapping, parse_knob_name

        base, setting = parse_knob_name(name)
        knob_mapping(base)
        return lambda: knob_defense(base, setting)
    if name not in _DEFENSES:
        raise RegistryError(
            f"unknown defense {name!r}; available: {sorted(_DEFENSES)}"
        )
    return _DEFENSES[name]


def defense_names() -> list[str]:
    return sorted(_DEFENSES)


def niom_attack_names() -> list[str]:
    return sorted(name for name, _ in DEFAULT_DETECTORS)


# built-ins
register_defense("identity", lambda: IdentityDefense())
register_defense("chpr", lambda: CHPrTraceDefense())
register_defense("nill", lambda: NILLDefense())
register_defense("stepped", lambda: SteppedDefense())
register_defense("dp-laplace", lambda: LaplaceReleaseDefense())
register_defense("smoothing", lambda: SmoothingDefense())
register_defense("coarsening", lambda: CoarseningDefense())
register_defense("noise", lambda: NoiseInjectionDefense())
