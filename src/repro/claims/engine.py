"""Evaluate a claim set against artifacts into a certification report.

The engine is pure bookkeeping over the flattened shapes the rest of
the stack produces: :class:`~repro.core.claims.Claim` objects from
:mod:`repro.core.claims` on one side,
:class:`~repro.fleet.artifacts.Artifact` rows on the other.  For each
claim it resolves the selector to a set of rows, the metric patterns to
concrete metric names per row, and then applies the claim's semantics:

* **threshold** — every resolved (row, metric) value must satisfy
  ``op bound``; one failing check fails the claim and is recorded as a
  violation line naming the cell, metric, value, and bound.
* **monotone** — resolved rows are grouped into dial series per
  (artifact, defense, seed, metric) and each series must be
  non-increasing within ``tolerance`` under the running-minimum rule
  both frontiers gate on, :func:`repro.core.knob.dial_violations`.

A claim that resolves to nothing is **inconclusive**, never a silent
pass: "selector matched no cells" when no row has the right
coordinates, "no matched cell carries metric ..." when rows matched but
none exposes the metric, and "no dial series with >= 2 settings" when a
monotone claim cannot see the dial move.  Inconclusive claims surface
in coverage as untested — the report's exit code distinguishes them
from both success and failure.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.claims import CLAIM_OPS, Claim, ClaimSet, resolve_metrics
from repro.core.knob import dial_violations
from repro.fleet.artifacts import Artifact, ArtifactRow

from repro.claims.report import CellCoverage, ClaimVerdict, ClaimsReport

_EXACT_TOL = 1e-9


def _cell_id(artifact: Artifact, row: ArtifactRow) -> str:
    return f"{artifact.source} :: {row.label}"


def _match_rows(
    claim: Claim, artifacts: Sequence[Artifact]
) -> list[tuple[Artifact, ArtifactRow]]:
    return [
        (artifact, row)
        for artifact in artifacts
        for row in artifact.rows
        if claim.where.matches(row.defense, row.setting, row.seed)
    ]


def _eval_threshold(
    claim: Claim, matched: list[tuple[Artifact, ArtifactRow]]
) -> ClaimVerdict:
    compare = CLAIM_OPS[claim.op]
    covered: list[str] = []
    violations: list[str] = []
    checks = 0
    for artifact, row in matched:
        names = resolve_metrics(claim, sorted(row.metrics))
        if not names:
            continue
        covered.append(_cell_id(artifact, row))
        for name in names:
            checks += 1
            value = row.metrics[name]
            if not compare(value, claim.bound):
                violations.append(
                    f"{_cell_id(artifact, row)}: {name} = {value:.6g} "
                    f"violates {claim.op} {claim.bound:g}"
                )
    if not covered:
        reason = (
            "selector matched no cells"
            if not matched
            else "no matched cell carries metric "
            + ", ".join(claim.metrics)
        )
        return ClaimVerdict(claim=claim, verdict="inconclusive", reason=reason)
    return ClaimVerdict(
        claim=claim,
        verdict="fail" if violations else "pass",
        covered=tuple(covered),
        violations=tuple(violations),
        checks=checks,
    )


def _eval_monotone(
    claim: Claim, matched: list[tuple[Artifact, ArtifactRow]]
) -> ClaimVerdict:
    # Series key: (artifact, defense, seed, metric) -> [(setting, value, cell)]
    series: dict[tuple[str, str, int, str], list[tuple[float, float, str]]] = {}
    covered: list[str] = []
    for artifact, row in matched:
        if row.defense is None or row.setting is None or row.seed is None:
            continue  # a coordinate-free cell cannot sit on a dial series
        names = resolve_metrics(claim, sorted(row.metrics))
        if not names:
            continue
        cell = _cell_id(artifact, row)
        covered.append(cell)
        for name in names:
            key = (artifact.source, row.defense, row.seed, name)
            series.setdefault(key, []).append(
                (row.setting, row.metrics[name], cell)
            )
    if not covered:
        reason = (
            "selector matched no cells"
            if not matched
            else "no matched cell carries metric "
            + ", ".join(claim.metrics)
        )
        return ClaimVerdict(claim=claim, verdict="inconclusive", reason=reason)
    violations: list[str] = []
    checks = 0
    seen_series = False
    for (source, defense, seed, metric), pts in sorted(series.items()):
        settings = {s for s, _, _ in pts}
        if len(settings) < 2:
            continue
        seen_series = True
        pts.sort()
        checks += len(pts)
        values = [value for _, value, _ in pts]
        tolerance = claim.tolerance + _EXACT_TOL
        for i, running_min in dial_violations(values, tolerance):
            _, value, cell = pts[i]
            violations.append(
                f"{cell}: {metric} = {value:.6g} exceeds running min "
                f"{running_min:.6g} + tolerance {claim.tolerance:g} "
                f"(defense {defense}, seed {seed})"
            )
    if not seen_series:
        return ClaimVerdict(
            claim=claim,
            verdict="inconclusive",
            reason="no dial series with >= 2 settings",
            covered=tuple(covered),
        )
    return ClaimVerdict(
        claim=claim,
        verdict="fail" if violations else "pass",
        covered=tuple(covered),
        violations=tuple(violations),
        checks=checks,
    )


def evaluate_claim(
    claim: Claim, artifacts: Sequence[Artifact]
) -> ClaimVerdict:
    """Evaluate one claim against the supplied artifacts."""
    matched = _match_rows(claim, artifacts)
    if claim.kind == "threshold":
        return _eval_threshold(claim, matched)
    return _eval_monotone(claim, matched)


def evaluate_claims(
    claim_set: ClaimSet, artifacts: Sequence[Artifact]
) -> ClaimsReport:
    """Evaluate every claim and assemble the certification report.

    Coverage is recorded both ways: each verdict carries the cells that
    tested it, and the report lists every artifact cell with the claim
    ids that constrained it — so "which claims does nothing exercise"
    and "which measurements does nothing certify" are both one lookup.
    """
    artifacts = list(artifacts)
    verdicts = tuple(evaluate_claim(c, artifacts) for c in claim_set.claims)
    by_cell: dict[str, list[str]] = {
        _cell_id(a, row): [] for a in artifacts for row in a.rows
    }
    for verdict in verdicts:
        for cell in verdict.covered:
            by_cell[cell].append(verdict.claim.id)
    coverage = tuple(
        CellCoverage(cell=cell, claim_ids=tuple(ids))
        for cell, ids in by_cell.items()
    )
    summaries = tuple(
        {"source": a.source, "kind": a.kind, "cells": len(a.rows)}
        for a in artifacts
    )
    return ClaimsReport(
        title=claim_set.title,
        verdicts=verdicts,
        coverage=coverage,
        artifacts=summaries,
    )


__all__ = ["evaluate_claim", "evaluate_claims"]
