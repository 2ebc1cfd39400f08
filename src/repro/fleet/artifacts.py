"""Uniform claim-facing view over sweep, netpriv, and stream artifacts.

The claims engine (:mod:`repro.claims`) should not care whether a
number came from a ``repro sweep`` frontier, a ``repro netpriv``
arms-race frontier, or a ``repro stream`` session report.  This module
flattens all three into one shape: an :class:`Artifact` holding
:class:`ArtifactRow` cells, each with optional grid coordinates
(defense, setting, seed) and a flat ``metrics`` mapping of dotted names
to floats (``"mcc.mean"``, ``"adaptive_mcc.p90"``,
``"throughput.niom.samples_per_sec"``).

:func:`load_artifact` sniffs the JSON shape and refuses loudly — a
foreign or truncated file raises :class:`ArtifactError` instead of
evaluating to an empty artifact that would let every claim silently
pass.  In-memory reports (either frontier, or a stream report) take
:func:`artifact_from_report`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.knob import knob_defense_name

from .frontier import Frontier, FrontierReport
from .netpriv import NetprivFrontierReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stream.session import StreamReport


class ArtifactError(ValueError):
    """An artifact file that cannot be trusted as claim evidence."""


#: Recognised artifact kinds, in sniffing order.
ARTIFACT_KINDS = ("sweep-frontier", "netpriv-frontier", "stream")

_SWEEP_AXES = tuple(FrontierReport.AXES)
_NETPRIV_AXES = tuple(NetprivFrontierReport.AXES)


@dataclass(frozen=True)
class ArtifactRow:
    """One evaluated cell: coordinates plus flattened numeric metrics.

    Coordinates are ``None`` when the artifact has no such axis — a
    stream report is one session, not a grid cell, so all three are
    ``None`` and only unconstrained selectors match it.
    """

    label: str
    defense: str | None
    setting: float | None
    seed: int | None
    metrics: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Artifact:
    """A claim-evaluable artifact: its kind, provenance, and rows."""

    kind: str
    source: str
    rows: tuple[ArtifactRow, ...]

    def __post_init__(self) -> None:
        if self.kind not in ARTIFACT_KINDS:
            raise ArtifactError(
                f"{self.source}: unknown artifact kind {self.kind!r}"
            )
        if not self.rows:
            raise ArtifactError(
                f"{self.source}: artifact holds no evaluated cells — "
                "refusing to certify against empty evidence"
            )


def _as_float(value: object, where: str) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        v = float(value)
        if math.isnan(v):
            raise ArtifactError(f"{where}: NaN metric value")
        return v
    raise ArtifactError(f"{where}: non-numeric metric value {value!r}")


def _flatten(doc: object, prefix: str, out: dict[str, float], where: str) -> None:
    """Recursively flatten numeric/bool leaves into dotted names.

    Strings and ``None`` leaves are skipped (labels, policies); lists
    are reduced to their length, which turns e.g. a stream report's
    ``failures`` list into a countable ``failures`` metric.
    """
    if isinstance(doc, dict):
        for key, value in doc.items():
            _flatten(value, f"{prefix}{key}.", out, where)
    elif isinstance(doc, (list, tuple)):
        out[prefix.rstrip(".")] = float(len(doc))
    elif isinstance(doc, bool) or isinstance(doc, (int, float)):
        out[prefix.rstrip(".")] = _as_float(doc, where)
    # str / None leaves carry no claimable number


def _cell_label(defense: str, setting: float, seed: int) -> str:
    return f"{knob_defense_name(defense, setting)} seed={seed}"


def _stats_metrics(
    row: dict, axes: tuple[str, ...], where: str
) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for axis in axes:
        stats = row.get(axis)
        if not isinstance(stats, dict) or not stats:
            raise ArtifactError(f"{where}: missing population stats {axis!r}")
        for stat, value in stats.items():
            metrics[f"{axis}.{stat}"] = _as_float(value, f"{where}.{axis}")
    for extra in ("n_homes", "n_lans", "n_failed"):
        if extra in row:
            metrics[extra] = _as_float(value=row[extra], where=where)
    return metrics


def _frontier_rows(
    doc: dict, axes: tuple[str, ...], source: str
) -> tuple[ArtifactRow, ...]:
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        raise ArtifactError(f"{source}: frontier holds no points")
    rows = []
    for i, row in enumerate(points):
        if not isinstance(row, dict):
            raise ArtifactError(f"{source}: point {i} is not an object")
        try:
            defense = str(row["defense"])
            setting = float(row["setting"])
            seed = int(row["seed"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(
                f"{source}: point {i} lacks defense/setting/seed ({exc})"
            ) from exc
        where = f"{source}: point {i}"
        metrics = _stats_metrics(row, axes, where)
        if axes is _NETPRIV_AXES:
            metrics["adaptive_advantage"] = (
                metrics["adaptive_mcc.mean"] - metrics["naive_mcc.mean"]
            )
        rows.append(
            ArtifactRow(
                label=_cell_label(defense, setting, seed),
                defense=defense,
                setting=setting,
                seed=seed,
                metrics=metrics,
            )
        )
    return tuple(rows)


def _stream_rows(doc: dict, source: str) -> tuple[ArtifactRow, ...]:
    metrics: dict[str, float] = {}
    _flatten(doc, "", metrics, source)
    if not metrics:
        raise ArtifactError(f"{source}: stream report carries no numbers")
    return (
        ArtifactRow(
            label=f"stream session ({doc.get('total_samples', '?')} samples)",
            defense=None,
            setting=None,
            seed=None,
            metrics=metrics,
        ),
    )


def artifact_from_dict(doc: object, source: str = "<memory>") -> Artifact:
    """Sniff a decoded JSON document into an :class:`Artifact`.

    Sweep and netpriv frontiers share the ``{"points": [...]}`` shell
    and are told apart by their population-stat axes; a stream report
    is recognised by its ``results`` + ``throughput`` + ``total_samples``
    trio.  Anything else is foreign evidence and raises
    :class:`ArtifactError`.
    """
    if not isinstance(doc, dict):
        raise ArtifactError(f"{source}: artifact must be a JSON object")
    points = doc.get("points")
    if isinstance(points, list):
        if not points or not isinstance(points[0], dict):
            raise ArtifactError(f"{source}: frontier holds no points")
        head = points[0]
        if all(axis in head for axis in _NETPRIV_AXES):
            return Artifact(
                kind="netpriv-frontier",
                source=source,
                rows=_frontier_rows(doc, _NETPRIV_AXES, source),
            )
        if all(axis in head for axis in _SWEEP_AXES):
            return Artifact(
                kind="sweep-frontier",
                source=source,
                rows=_frontier_rows(doc, _SWEEP_AXES, source),
            )
        raise ArtifactError(
            f"{source}: points carry neither the sweep axes "
            f"{_SWEEP_AXES} nor the netpriv axes — foreign frontier?"
        )
    if all(key in doc for key in ("results", "throughput", "total_samples")):
        return Artifact(kind="stream", source=source, rows=_stream_rows(doc, source))
    raise ArtifactError(
        f"{source}: unrecognised artifact shape (want a repro sweep/netpriv "
        "frontier JSON or a repro stream report JSON); top-level keys: "
        f"{sorted(doc)[:8]}"
    )


def load_artifact(path: str | Path) -> Artifact:
    """Read one artifact JSON from disk, sniffing its kind.

    Every failure mode — unreadable file, invalid JSON, foreign shape,
    empty frontier, non-numeric metric — raises :class:`ArtifactError`
    naming the path, so a certification run can never silently treat
    bad evidence as "no violations".
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"bad JSON in artifact {path}: {exc}") from exc
    return artifact_from_dict(doc, source=str(path))


def artifact_from_report(report: "Frontier | StreamReport") -> Artifact:
    """Wrap an in-memory report: either frontier, or a stream report.

    The artifact's source is the report's type name in angle brackets.
    """
    return artifact_from_dict(
        report.as_dict(), source=f"<{type(report).__name__}>"
    )


__all__ = [
    "ARTIFACT_KINDS",
    "Artifact",
    "ArtifactError",
    "ArtifactRow",
    "artifact_from_dict",
    "artifact_from_report",
    "load_artifact",
]
