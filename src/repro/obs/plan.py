"""Seeded fault plans armed through the environment.

:class:`SeededPlan` is the base of the fleet's worker-fault plan
(:class:`repro.fleet.faults.FaultPlan`) and the stream's feed-fault plan
(:class:`repro.stream.faults.StreamFaultPlan`).  It owns their one
``sha256("seed:key…")`` draw, so a plan fires at the same place in every
process, and their one JSON codec over the plan's own environment
variable ``ENV``, which workers inherit under fork and spawn.  The codec
is strict: an unknown key, a wrongly typed value or an invalid field
raises :class:`FaultPlanError` naming that variable, since a chaos run
whose misspelled plan never fires would pass vacuously.

A plan is a frozen dataclass with a ``seed`` and fields of JSON types
(``str``, ``int``, ``float``, ``int | None``, ``tuple[int, ...]``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import typing


class FaultPlanError(ValueError):
    """A fault-plan document that does not describe a valid plan."""


def _decode(where: str, key: str, value: object, hint: object) -> object:
    """``value`` as the field annotation ``hint`` declares it, or raise."""
    args = typing.get_args(hint)
    if type(None) in args:  # ``T | None``
        if value is None:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
    if typing.get_origin(hint) is tuple:
        if isinstance(value, list):
            item = typing.get_args(hint)[0]
            return tuple(_decode(where, key, v, item) for v in value)
    elif isinstance(value, bool):
        pass  # JSON true/false is never a number here
    elif hint is float and isinstance(value, (int, float)):
        return float(value)
    elif isinstance(value, hint):
        return value
    raise FaultPlanError(f"{where}: key {key!r} has the wrong type: {value!r}")


class SeededPlan:
    """Base of the env-armed fault plans: one draw, one codec, one reader."""

    #: the environment variable that carries this plan's JSON
    ENV: typing.ClassVar[str]

    def bits(self, *key: object) -> int:
        """The first 64 bits of ``sha256("seed:key…")``, as an integer."""
        text = ":".join(str(part) for part in (self.seed, *key))
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")

    def draw(self, *key: object) -> float:
        """A uniform draw in ``[0, 1)``, a pure function of seed and key."""
        return self.bits(*key) / float(1 << 64)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, doc: str):
        """Parse a plan; any malformed document raises :class:`FaultPlanError`."""
        try:
            raw = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"{cls.ENV}: not JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise FaultPlanError(f"{cls.ENV} must hold a JSON object: {doc!r}")
        hints = typing.get_type_hints(cls)
        known = [field.name for field in dataclasses.fields(cls)]
        unknown = set(raw) - set(known)
        if unknown:
            raise FaultPlanError(
                f"{cls.ENV}: unknown keys {sorted(unknown)}; known: {sorted(known)}"
            )
        kwargs = {
            key: _decode(cls.ENV, key, value, hints[key])
            for key, value in raw.items()
        }
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:  # a missing or invalid field
            raise FaultPlanError(f"{cls.ENV}: {exc}") from None

    @classmethod
    def active(cls):
        """The plan exported through ``ENV``; ``None`` when it is unset."""
        doc = os.environ.get(cls.ENV)
        return cls.from_json(doc) if doc else None
