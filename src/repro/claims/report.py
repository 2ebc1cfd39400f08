"""Verdicts, coverage accounting, and the certification report.

The deliverable of a claims run is a :class:`ClaimsReport`: one
:class:`ClaimVerdict` per claim (pass / fail / inconclusive-with-reason),
plus two-way coverage — which artifact cells each claim actually
exercised, and which cells no claim constrains at all.  The report
renders as a terminal table (:meth:`ClaimsReport.format_table`), a JSON
document (:meth:`ClaimsReport.to_json`), and a certification-style
Markdown document (:meth:`ClaimsReport.to_markdown`), and carries the
process exit code the ``repro claims`` CLI returns.

Exit-code contract (mirrors fleet health, with inconclusive split out):

* ``0`` — every claim passed;
* ``1`` — at least one claim failed;
* ``3`` — no failures, but at least one claim was inconclusive
  (untested claims are not certified claims);
* ``2`` is reserved for usage / malformed-input errors and is raised
  by the CLI, never by this report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.claims import Claim
from repro.datasets.io import dump_json, write_atomic

#: Verdict values, in display-severity order.
VERDICTS = ("fail", "inconclusive", "pass")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


@dataclass(frozen=True)
class ClaimVerdict:
    """One claim's outcome against the supplied evidence.

    ``covered`` lists the cells (``"<source> :: <label>"``) whose
    metrics the claim actually constrained; ``violations`` holds one
    human-readable line per failed check; ``checks`` counts individual
    metric comparisons performed.
    """

    claim: Claim
    verdict: str
    reason: str = ""
    covered: tuple[str, ...] = ()
    violations: tuple[str, ...] = ()
    checks: int = 0

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")

    def as_dict(self) -> dict:
        return {
            "id": self.claim.id,
            "title": self.claim.title,
            "statement": self.claim.statement(),
            "verdict": self.verdict,
            "reason": self.reason,
            "checks": self.checks,
            "covered_cells": list(self.covered),
            "violations": list(self.violations),
        }


@dataclass(frozen=True)
class CellCoverage:
    """One artifact cell and the claims that constrained it."""

    cell: str
    claim_ids: tuple[str, ...]

    def as_dict(self) -> dict:
        return {"cell": self.cell, "claims": list(self.claim_ids)}


@dataclass(frozen=True)
class ClaimsReport:
    """Everything a certification run produced, ready to render."""

    title: str
    verdicts: tuple[ClaimVerdict, ...]
    coverage: tuple[CellCoverage, ...]
    artifacts: tuple[dict, ...] = field(default_factory=tuple)

    @property
    def n_pass(self) -> int:
        return sum(1 for v in self.verdicts if v.verdict == "pass")

    @property
    def n_fail(self) -> int:
        return sum(1 for v in self.verdicts if v.verdict == "fail")

    @property
    def n_inconclusive(self) -> int:
        return sum(1 for v in self.verdicts if v.verdict == "inconclusive")

    @property
    def uncovered_claims(self) -> tuple[str, ...]:
        """Claims no artifact cell exercised — gaps in the evidence."""
        return tuple(v.claim.id for v in self.verdicts if not v.covered)

    @property
    def uncovered_cells(self) -> tuple[str, ...]:
        """Cells no claim constrains — gaps in the claim set."""
        return tuple(c.cell for c in self.coverage if not c.claim_ids)

    @property
    def certified(self) -> bool:
        """True only when every claim passed on real coverage."""
        return self.n_fail == 0 and self.n_inconclusive == 0

    @property
    def exit_code(self) -> int:
        if self.n_fail:
            return EXIT_FAIL
        if self.n_inconclusive:
            return EXIT_INCONCLUSIVE
        return EXIT_OK

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "summary": {
                "claims": len(self.verdicts),
                "pass": self.n_pass,
                "fail": self.n_fail,
                "inconclusive": self.n_inconclusive,
                "certified": self.certified,
                "exit_code": self.exit_code,
                "uncovered_claims": list(self.uncovered_claims),
                "uncovered_cells": list(self.uncovered_cells),
            },
            "artifacts": list(self.artifacts),
            "claims": [v.as_dict() for v in self.verdicts],
            "coverage": [c.as_dict() for c in self.coverage],
        }

    def to_json(self, path: str | Path | None = None) -> str:
        return dump_json(self.as_dict(), path)

    def format_table(self) -> str:
        """Compact fixed-width verdict table for the terminal."""
        header = f"{'verdict':<13} {'id':<28} statement"
        lines = [header, "-" * len(header)]
        order = {name: i for i, name in enumerate(VERDICTS)}
        for v in sorted(self.verdicts, key=lambda v: order[v.verdict]):
            mark = {"pass": "PASS", "fail": "FAIL", "inconclusive": "INCONCL"}[
                v.verdict
            ]
            tail = v.claim.statement()
            if v.verdict == "inconclusive" and v.reason:
                tail += f"  [{v.reason}]"
            lines.append(f"{mark:<13} {v.claim.id:<28} {tail}")
        lines.append(
            f"{len(self.verdicts)} claims: {self.n_pass} pass, "
            f"{self.n_fail} fail, {self.n_inconclusive} inconclusive; "
            f"{len(self.uncovered_cells)} uncovered cells"
        )
        return "\n".join(lines)

    def to_markdown(self, path: str | Path | None = None) -> str:
        """Render the certification report as a Markdown document."""
        badge = "CERTIFIED" if self.certified else (
            "NOT CERTIFIED" if self.n_fail else "INCOMPLETE"
        )
        out = [
            f"# Certification report — {self.title}",
            "",
            f"**Status: {badge}** — {self.n_pass} pass, {self.n_fail} fail, "
            f"{self.n_inconclusive} inconclusive "
            f"(exit code {self.exit_code}).",
            "",
            "## Evidence",
            "",
        ]
        if self.artifacts:
            out.append("| artifact | kind | cells |")
            out.append("| --- | --- | ---: |")
            for art in self.artifacts:
                out.append(
                    f"| `{art.get('source', '?')}` | {art.get('kind', '?')} "
                    f"| {art.get('cells', '?')} |"
                )
        else:
            out.append("_No artifacts supplied._")
        out += ["", "## Verdicts", ""]
        out.append("| verdict | claim | statement | cells | detail |")
        out.append("| --- | --- | --- | ---: | --- |")
        order = {name: i for i, name in enumerate(VERDICTS)}
        for v in sorted(self.verdicts, key=lambda v: order[v.verdict]):
            detail = v.reason if v.verdict == "inconclusive" else (
                f"{len(v.violations)} violation(s)" if v.violations
                else f"{v.checks} checks ok"
            )
            out.append(
                f"| **{v.verdict.upper()}** | `{v.claim.id}` "
                f"| `{v.claim.statement()}` | {len(v.covered)} | {detail} |"
            )
        failing = [v for v in self.verdicts if v.violations]
        if failing:
            out += ["", "## Violations", ""]
            for v in failing:
                out.append(f"- `{v.claim.id}` — {v.claim.title}")
                for line in v.violations:
                    out.append(f"  - {line}")
        out += ["", "## Coverage", ""]
        if self.uncovered_claims:
            out.append(
                "Claims with **no covering cell** (the grid never "
                "exercised them): "
                + ", ".join(f"`{c}`" for c in self.uncovered_claims)
            )
        else:
            out.append("Every claim was exercised by at least one cell.")
        out.append("")
        if self.uncovered_cells:
            out.append(
                "Cells **no claim constrains** (measured but uncertified): "
                + ", ".join(f"`{c}`" for c in self.uncovered_cells)
            )
        else:
            out.append("Every artifact cell is constrained by some claim.")
        out.append("")
        doc = "\n".join(out)
        if path is not None:
            write_atomic(path, doc.encode())
        return doc


__all__ = [
    "EXIT_FAIL",
    "EXIT_INCONCLUSIVE",
    "EXIT_OK",
    "EXIT_USAGE",
    "CellCoverage",
    "ClaimVerdict",
    "ClaimsReport",
    "VERDICTS",
]
