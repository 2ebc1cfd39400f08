"""Privacy-claims model: declarative statements about sweep artifacts.

A frontier CSV answers "what did we measure"; an operator needs "is this
configuration *acceptable*".  This module gives the second question a
first-class object: a :class:`Claim` is a declarative statement — "the
worst-case MCC across all registered attackers stays below 0.3 once the
dial passes 0.5", "population p90 billing error is under 1%", "the dial
is monotone within tolerance 0.05" — with a :class:`Selector` naming the
grid cells it quantifies over and a metric pattern naming the numbers it
constrains.  Claims load from small TOML/JSON files
(:func:`load_claims`), evaluate against sweep / netpriv / stream
artifacts (:mod:`repro.claims`), and produce verdicts a CI gate or a
certification report can act on.

The design follows the toolsaf/tcsfw requirement framework (declarative
claims + selectors + verdicts + coverage) transplanted onto this
repository's artifact shapes.  The model here is deliberately inert: it
knows how to parse, validate, and match, but never reads an artifact —
evaluation lives in :mod:`repro.claims` and artifact I/O in
:mod:`repro.fleet.artifacts`, so the model stays importable everywhere.

Selector grammar (the ``where`` table of a claim):

* ``defenses`` — ``"*"`` (any), one name, or a list of names; names are
  :mod:`fnmatch` patterns, so ``"constant-*"`` works;
* ``settings`` / ``seeds`` — ``"*"`` (any), a single number, a list of
  numbers (membership), or a string expression: ``">=0.5"``, ``">0.5"``,
  ``"<=0.5"``, ``"<0.5"``, or an inclusive range ``"0.25..0.75"``.

Metric names are dotted paths into an artifact row's flattened numbers
(``"mcc.mean"``, ``"adaptive_mcc.p90"``, ``"throughput.niom.samples_per_sec"``)
and are also :mod:`fnmatch` patterns — ``"*mcc.max"`` quantifies over
*every* attacker generation an artifact reports, which is how a single
claim covers both the naive and the adaptive attacker.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Iterable, Sequence


class ClaimsError(ValueError):
    """A malformed claim file, claim, or selector."""


#: Comparison operators a threshold claim may use, with their semantics.
CLAIM_OPS = {
    "<=": lambda v, b: v <= b,
    "<": lambda v, b: v < b,
    ">=": lambda v, b: v >= b,
    ">": lambda v, b: v > b,
}

#: Claim kinds understood by the evaluation engine.
CLAIM_KINDS = ("threshold", "monotone")

_EXACT_TOL = 1e-9


@dataclass(frozen=True)
class Span:
    """One numeric selector axis: an interval and/or an explicit value set.

    ``lo``/``hi`` are inclusive bounds (``-inf``/``inf`` = unbounded);
    ``values`` is an optional explicit membership set (tolerance 1e-9).
    The default instance matches everything.
    """

    lo: float = -math.inf
    hi: float = math.inf
    values: tuple[float, ...] | None = None

    def contains(self, value: float | None) -> bool:
        """Whether a cell coordinate satisfies this axis.

        ``None`` coordinates (artifacts without the axis, e.g. a stream
        report has no knob setting) only match the unconstrained span —
        a claim that names a dial range cannot match a cell that has no
        dial.
        """
        if value is None:
            return self.is_any
        if self.values is not None:
            return any(abs(value - v) <= _EXACT_TOL for v in self.values)
        return self.lo - _EXACT_TOL <= value <= self.hi + _EXACT_TOL

    @property
    def is_any(self) -> bool:
        return self.values is None and math.isinf(self.lo) and math.isinf(self.hi)

    def describe(self) -> str:
        if self.is_any:
            return "*"
        if self.values is not None:
            return "{" + ", ".join(format(v, "g") for v in self.values) + "}"
        if math.isinf(self.lo):
            return f"<= {self.hi:g}"
        if math.isinf(self.hi):
            return f">= {self.lo:g}"
        return f"{self.lo:g}..{self.hi:g}"


ANY_SPAN = Span()


def parse_span(raw: object, axis: str) -> Span:
    """Parse one ``where`` axis value into a :class:`Span`.

    Accepts ``"*"``, a number, a list of numbers, or the comparison /
    range expressions documented in the module docstring.
    """
    if raw is None or raw == "*":
        return ANY_SPAN
    if isinstance(raw, bool):
        raise ClaimsError(f"selector {axis}: booleans are not valid bounds")
    if isinstance(raw, (int, float)):
        return Span(values=(float(raw),))
    if isinstance(raw, (list, tuple)):
        if not raw:
            raise ClaimsError(f"selector {axis}: empty list matches nothing")
        try:
            return Span(values=tuple(sorted(float(v) for v in raw)))
        except (TypeError, ValueError):
            raise ClaimsError(
                f"selector {axis}: list entries must be numbers, got {raw!r}"
            ) from None
    if not isinstance(raw, str):
        raise ClaimsError(f"selector {axis}: cannot parse {raw!r}")
    text = raw.strip()
    for prefix, make in (
        (">=", lambda v: Span(lo=v)),
        ("<=", lambda v: Span(hi=v)),
        (">", lambda v: Span(lo=v + _EXACT_TOL * 2)),
        ("<", lambda v: Span(hi=v - _EXACT_TOL * 2)),
    ):
        if text.startswith(prefix):
            try:
                return make(float(text[len(prefix):]))
            except ValueError:
                raise ClaimsError(
                    f"selector {axis}: bad bound in {raw!r}"
                ) from None
    if ".." in text:
        head, _, tail = text.partition("..")
        try:
            lo, hi = float(head), float(tail)
        except ValueError:
            raise ClaimsError(f"selector {axis}: bad range {raw!r}") from None
        if hi < lo:
            raise ClaimsError(f"selector {axis}: empty range {raw!r}")
        return Span(lo=lo, hi=hi)
    try:
        return Span(values=(float(text),))
    except ValueError:
        raise ClaimsError(
            f"selector {axis}: cannot parse {raw!r} (want '*', a number, "
            "a list, '>=x', '<=x', '>x', '<x', or 'a..b')"
        ) from None


@dataclass(frozen=True)
class Selector:
    """Which grid cells a claim quantifies over.

    ``defenses`` is ``None`` for "any defense", otherwise a tuple of
    :mod:`fnmatch` patterns; ``settings`` and ``seeds`` are
    :class:`Span` axes.  A selector with every axis unconstrained
    matches every cell of every artifact, including cells that carry no
    coordinates at all (stream reports).
    """

    defenses: tuple[str, ...] | None = None
    settings: Span = field(default_factory=Span)
    seeds: Span = field(default_factory=Span)

    def matches(
        self,
        defense: str | None,
        setting: float | None,
        seed: int | None,
    ) -> bool:
        if self.defenses is not None:
            if defense is None:
                return False
            if not any(fnmatchcase(defense, pat) for pat in self.defenses):
                return False
        return self.settings.contains(setting) and self.seeds.contains(
            None if seed is None else float(seed)
        )

    def describe(self) -> str:
        parts = []
        if self.defenses is not None:
            parts.append("defense in {" + ", ".join(self.defenses) + "}")
        if not self.settings.is_any:
            parts.append(f"setting {self.settings.describe()}")
        if not self.seeds.is_any:
            parts.append(f"seed {self.seeds.describe()}")
        return " and ".join(parts) if parts else "all cells"

    @classmethod
    def from_dict(cls, doc: dict) -> "Selector":
        unknown = set(doc) - {"defenses", "settings", "seeds"}
        if unknown:
            raise ClaimsError(
                f"unknown selector keys: {sorted(unknown)}; "
                "known: defenses, settings, seeds"
            )
        defenses_raw = doc.get("defenses")
        if defenses_raw is None or defenses_raw == "*":
            defenses = None
        elif isinstance(defenses_raw, str):
            defenses = (defenses_raw,)
        elif isinstance(defenses_raw, (list, tuple)) and defenses_raw and all(
            isinstance(d, str) for d in defenses_raw
        ):
            defenses = tuple(defenses_raw)
        else:
            raise ClaimsError(
                f"selector defenses: want '*', a name, or a non-empty "
                f"list of names, got {defenses_raw!r}"
            )
        return cls(
            defenses=defenses,
            settings=parse_span(doc.get("settings"), "settings"),
            seeds=parse_span(doc.get("seeds"), "seeds"),
        )

    def as_dict(self) -> dict:
        doc: dict = {}
        if self.defenses is not None:
            doc["defenses"] = list(self.defenses)
        if not self.settings.is_any:
            doc["settings"] = self.settings.describe()
        if not self.seeds.is_any:
            doc["seeds"] = self.seeds.describe()
        return doc


@dataclass(frozen=True)
class Claim:
    """One declarative, checkable statement about artifact cells.

    ``kind`` is ``"threshold"`` (every selected cell's every matching
    metric satisfies ``op bound``) or ``"monotone"`` (per (defense,
    seed) series, turning the dial up never raises the metric beyond
    its running minimum plus ``tolerance``).  ``metrics`` are fnmatch
    patterns over flattened metric names.
    """

    id: str
    title: str
    kind: str
    metrics: tuple[str, ...]
    where: Selector = field(default_factory=Selector)
    op: str | None = None
    bound: float | None = None
    tolerance: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ClaimsError("claim needs a non-empty id")
        if self.kind not in CLAIM_KINDS:
            raise ClaimsError(
                f"claim {self.id!r}: unknown kind {self.kind!r}; "
                f"known: {CLAIM_KINDS}"
            )
        if not self.metrics:
            raise ClaimsError(f"claim {self.id!r}: needs at least one metric")
        if self.kind == "threshold":
            if self.op not in CLAIM_OPS:
                raise ClaimsError(
                    f"claim {self.id!r}: threshold op must be one of "
                    f"{sorted(CLAIM_OPS)}, got {self.op!r}"
                )
            if self.bound is None:
                raise ClaimsError(f"claim {self.id!r}: threshold needs a bound")
        # written so that NaN fails too: a NaN tolerance passes every gate
        if self.kind == "monotone" and not self.tolerance >= 0:
            raise ClaimsError(f"claim {self.id!r}: tolerance must be >= 0")

    def matches_metric(self, name: str) -> bool:
        return any(fnmatchcase(name, pat) for pat in self.metrics)

    def statement(self) -> str:
        """The claim rendered back as one human-readable sentence."""
        metrics = ", ".join(self.metrics)
        where = self.where.describe()
        scope = "every cell" if where == "all cells" else f"every cell where {where}"
        if self.kind == "threshold":
            return f"{metrics} {self.op} {self.bound:g} for {scope}"
        return (
            f"{metrics} is non-increasing in the dial "
            f"(tolerance {self.tolerance:g}) for {scope}"
        )

    @classmethod
    def from_dict(cls, doc: dict) -> "Claim":
        if not isinstance(doc, dict):
            raise ClaimsError(f"claim entries must be tables, got {doc!r}")
        known = {
            "id", "title", "kind", "metric", "metrics", "where",
            "op", "bound", "tolerance", "description",
        }
        unknown = set(doc) - known
        if unknown:
            raise ClaimsError(
                f"claim {doc.get('id', '?')!r}: unknown keys "
                f"{sorted(unknown)}; known: {sorted(known)}"
            )
        if "metric" in doc and "metrics" in doc:
            raise ClaimsError(
                f"claim {doc.get('id', '?')!r}: give metric or metrics, not both"
            )
        raw_metrics = doc.get("metrics", doc.get("metric"))
        if isinstance(raw_metrics, str):
            metrics: tuple[str, ...] = (raw_metrics,)
        elif isinstance(raw_metrics, (list, tuple)) and raw_metrics and all(
            isinstance(m, str) for m in raw_metrics
        ):
            metrics = tuple(raw_metrics)
        else:
            raise ClaimsError(
                f"claim {doc.get('id', '?')!r}: metric must be a pattern "
                f"or a non-empty list of patterns, got {raw_metrics!r}"
            )
        bound = doc.get("bound")
        if bound is not None:
            if isinstance(bound, bool) or not isinstance(bound, (int, float)):
                raise ClaimsError(
                    f"claim {doc.get('id', '?')!r}: bound must be a number"
                )
            bound = float(bound)
        tolerance = doc.get("tolerance", 0.0)
        if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)):
            raise ClaimsError(
                f"claim {doc.get('id', '?')!r}: tolerance must be a number"
            )
        where_raw = doc.get("where", {})
        if not isinstance(where_raw, dict):
            raise ClaimsError(
                f"claim {doc.get('id', '?')!r}: where must be a table"
            )
        return cls(
            id=str(doc.get("id", "")),
            title=str(doc.get("title", doc.get("id", ""))),
            kind=str(doc.get("kind", "threshold")),
            metrics=metrics,
            where=Selector.from_dict(where_raw),
            op=doc.get("op"),
            bound=bound,
            tolerance=float(tolerance),
            description=str(doc.get("description", "")),
        )

    def as_dict(self) -> dict:
        doc: dict = {
            "id": self.id,
            "title": self.title,
            "kind": self.kind,
            "metrics": list(self.metrics),
            "where": self.where.as_dict(),
        }
        if self.kind == "threshold":
            doc["op"] = self.op
            doc["bound"] = self.bound
        else:
            doc["tolerance"] = self.tolerance
        if self.description:
            doc["description"] = self.description
        return doc


@dataclass(frozen=True)
class ClaimSet:
    """An ordered collection of claims sharing one certification title."""

    title: str
    claims: tuple[Claim, ...]
    source: str = "<memory>"

    def __post_init__(self) -> None:
        if not self.claims:
            raise ClaimsError(f"{self.source}: claim set holds no claims")
        seen: set[str] = set()
        for claim in self.claims:
            if claim.id in seen:
                raise ClaimsError(
                    f"{self.source}: duplicate claim id {claim.id!r}"
                )
            seen.add(claim.id)

    def __iter__(self) -> Iterable[Claim]:
        return iter(self.claims)

    def __len__(self) -> int:
        return len(self.claims)

    @classmethod
    def from_dict(cls, doc: dict, source: str = "<memory>") -> "ClaimSet":
        if not isinstance(doc, dict):
            raise ClaimsError(f"{source}: claim file must hold a table/object")
        unknown = set(doc) - {"title", "claim", "claims"}
        if unknown:
            raise ClaimsError(
                f"{source}: unknown top-level keys {sorted(unknown)}; "
                "known: title, claim/claims"
            )
        if "claim" in doc and "claims" in doc:
            raise ClaimsError(f"{source}: give claim or claims, not both")
        raw = doc.get("claims", doc.get("claim"))
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ClaimsError(
                f"{source}: needs a non-empty [[claim]] array "
                "(or a 'claims' list in JSON)"
            )
        return cls(
            title=str(doc.get("title", "privacy claims")),
            claims=tuple(Claim.from_dict(entry) for entry in raw),
            source=source,
        )

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "claims": [c.as_dict() for c in self.claims],
        }


def load_document(path: Path, noun: str, error: type[Exception]):
    """The TOML or JSON document in ``path``, parsed by its extension.

    The one reader behind :func:`load_claims` and
    :func:`repro.fleet.sweep.load_grid`.  An unreadable file, bad TOML
    or JSON, and any other extension each raise ``error`` naming the
    file; ``noun`` ("claim file") names its kind in the messages.  TOML
    needs no dependency: :mod:`tomllib` ships with the interpreter.
    """
    try:
        text = path.read_text()
    except OSError as exc:
        raise error(f"cannot read {noun} {path}: {exc}") from exc
    if path.suffix == ".toml":
        import tomllib

        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise error(f"bad TOML in {path}: {exc}") from exc
    if path.suffix == ".json":
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise error(f"bad JSON in {path}: {exc}") from exc
    raise error(f"{noun} {path} must end in .toml or .json")


def load_claims(path: str | Path) -> ClaimSet:
    """Read a claim file (TOML or JSON, picked by extension).

    Every parse or validation problem raises :class:`ClaimsError` with
    the offending path in the message.
    """
    path = Path(path)
    doc = load_document(path, "claim file", ClaimsError)
    return ClaimSet.from_dict(doc, source=str(path))


def resolve_metrics(
    claim: Claim, available: Sequence[str]
) -> tuple[str, ...]:
    """The metric names of one cell that a claim's patterns select."""
    return tuple(name for name in available if claim.matches_metric(name))


__all__ = [
    "ANY_SPAN",
    "CLAIM_KINDS",
    "CLAIM_OPS",
    "Claim",
    "ClaimSet",
    "ClaimsError",
    "Selector",
    "Span",
    "load_claims",
    "load_document",
    "parse_span",
    "resolve_metrics",
]
