"""Adaptive attackers: retrained on shaped traffic, closing the arms race.

The PR 5 frontier machinery scores each defense against a *naive* attacker
— one whose models were built on unshaped traffic (the fingerprinting lab
profiles of :mod:`repro.netpriv.fingerprint`) or on pre-shaping device
physics (the profile-derived empty-home baseline of
:func:`repro.netpriv.threats.occupancy_from_traffic`).  Sec. IV's threat
model does not grant that courtesy: an adversary who knows a gateway ships
a shaping defense can buy the same gateway, run it over a lab LAN with
*known* occupancy, and retrain on what comes out the other side.  This
module implements that attacker:

* :class:`AdaptiveOccupancyInferrer` — a logistic model over shaped
  per-window traffic features, fitted on a shaped lab trace with known
  occupancy labels.  Its empty-home baseline is thereby *re-estimated from
  the shaped log itself* (the empty-labelled lab windows now include the
  defense's cover traffic), instead of assumed from device physics.  Its
  features include the residuals shaping leaves behind — e.g. cover flows
  from :class:`~repro.netpriv.shaping.TrafficShaper` only ever visit a
  device's primary endpoint, while real events spread over the full
  endpoint set, so the *secondary-endpoint* event count survives shaping
  untouched.
* adaptive fingerprinting — simply the existing
  :class:`~repro.netpriv.fingerprint.DeviceFingerprinter` trained on
  shaped (rather than raw) lab windows, so the classifier learns the
  jittered/padded signatures directly.

:func:`evaluate_arms_race` pits both attacker generations against
``defense@setting`` dials on independently simulated lab and victim LANs —
the experiment that :mod:`repro.fleet.netpriv` fans across the sweep
grid, one job per LAN and the dials it owes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..attacks.niom import score_occupancy_attack
from ..ml import LogisticRegression, StandardScaler
from ..obs import TELEMETRY, TelemetrySnapshot, captured
from ..timeseries import BinaryTrace
from .devices import Device, is_event
from .fingerprint import DeviceFingerprinter, device_window_features
from .flows import FlowLog, flow_log_digest
from .lan import LanConfig, LanSimulation, simulate_lan
from .shaping import FlowShaper, make_shaper

#: Per-window features the adaptive occupancy inferrer learns over.
ADAPTIVE_FEATURE_NAMES = (
    "event_count",
    "log_event_bytes_up",
    "active_event_devices",
    "max_subbin_count",
    "subbin_count_std",
    "secondary_endpoint_events",
)

#: Occupancy window of both attackers in the arms race.
_WINDOW_S = 1800.0
#: Sub-bins per occupancy window, for the burstiness features.
_N_SUBBINS = 6
#: Window of the device-fingerprinting features.
_FINGERPRINT_WINDOW_S = 3600.0


def occupancy_window_features(
    log: FlowLog, devices: list[Device], duration_s: float
) -> np.ndarray:
    """Per-window traffic features for occupancy inference, (n_windows, 6).

    Windows are 30 minutes, each split into six sub-bins for the
    burstiness features.  Event-sized flows
    (:func:`~repro.netpriv.devices.is_event`) are counted regardless of
    which device emitted them, so flows re-attributed to a gateway tunnel
    by :class:`~repro.netpriv.shaping.FlowMerging` still contribute volume
    and burstiness.  The last feature counts events on *non-primary*
    endpoints: cover traffic from the adaptive shaper only uses
    ``profile.endpoints[0]``, real events sample the whole endpoint set —
    a residual that survives cover-traffic shaping intact.

    Every window is counted at once from the log's columns;
    ``repro.netpriv._reference`` keeps the per-flow loop this matches bit
    for bit.
    """
    if duration_s < _WINDOW_S:
        raise ValueError("need at least one whole window")
    n_windows = int(duration_s // _WINDOW_S)
    subbin_s = _WINDOW_S / _N_SUBBINS
    primary = {d.device_id: d.profile.endpoints[0] for d in devices}

    window = log.time_s // _WINDOW_S
    kept = np.flatnonzero(is_event(log) & (window >= 0) & (window < n_windows))
    times, window = log.time_s[kept], window[kept]
    device, endpoint = log.device[kept], log.endpoint[kept]
    w = window.astype(np.intp)
    counts = np.bincount(w, minlength=n_windows).astype(float)
    bytes_up = np.bincount(w, weights=log.bytes_up[kept], minlength=n_windows)
    n_devices = max(len(log.device_ids), 1)
    active = np.bincount(
        np.unique(w * n_devices + device) // n_devices, minlength=n_windows
    ).astype(float)
    subbin = np.minimum((times - window * _WINDOW_S) // subbin_s, _N_SUBBINS - 1)
    subbins = np.bincount(
        w * _N_SUBBINS + subbin.astype(np.intp), minlength=n_windows * _N_SUBBINS
    ).astype(float).reshape(n_windows, _N_SUBBINS)
    # per device code: its primary endpoint's code (-1 when the log never
    # names it, so every one of its events is on another endpoint)
    has_primary = np.array([d in primary for d in log.device_ids], dtype=bool)
    primary_code = np.array(
        [
            log.endpoints.index(primary[d]) if primary.get(d) in log.endpoints else -1
            for d in log.device_ids
        ],
        dtype=np.intp,
    )
    on_secondary = has_primary[device] & (endpoint != primary_code[device])
    secondary = np.bincount(w[on_secondary], minlength=n_windows).astype(float)
    return np.column_stack(
        [
            counts,
            np.log1p(bytes_up),
            active,
            subbins.max(axis=1),
            subbins.std(axis=1),
            secondary,
        ]
    )


def occupancy_window_labels(occupancy: BinaryTrace, n_windows: int, window_s: float) -> np.ndarray:
    """Ground-truth 0/1 label per feature window (block-majority resample)."""
    labels = occupancy.resample(window_s).values
    if len(labels) < n_windows:
        raise ValueError(
            f"occupancy trace covers {len(labels)} windows, need {n_windows}"
        )
    return labels[:n_windows]


class AdaptiveOccupancyInferrer:
    """Occupancy attacker trained on *shaped* lab traffic with known truth.

    ``fit`` re-estimates what an empty home looks like under the deployed
    defense — the empty-labelled lab windows carry the defense's cover
    flows, delays and merges, so the learned decision boundary prices the
    shaping in, where the naive attacker's profile-derived baseline
    assumes raw device physics.  The re-estimated shaped empty-home event
    level is exposed as ``empty_event_baseline_`` and doubles as the
    fallback threshold when the lab labels degenerate to a single class.
    """

    def __init__(self) -> None:
        self._scaler: StandardScaler | None = None
        self._model: LogisticRegression | None = None
        self._constant: int | None = None
        #: mean event count over empty-labelled *shaped* lab windows
        self.empty_event_baseline_: float | None = None

    def fit(
        self,
        log: FlowLog,
        devices: list[Device],
        occupancy: BinaryTrace,
        duration_s: float,
    ) -> "AdaptiveOccupancyInferrer":
        """Train on a shaped lab log whose true occupancy is known."""
        X = occupancy_window_features(log, devices, duration_s)
        y = occupancy_window_labels(occupancy, len(X), _WINDOW_S)
        empty = X[y == 0, 0]
        self.empty_event_baseline_ = float(empty.mean()) if len(empty) else 0.0
        if len(np.unique(y)) < 2:
            # a lab trace that is always (or never) occupied cannot anchor
            # a discriminative model; fall back to the shaped baseline
            self._constant = int(y[0])
            self._scaler = None
            self._model = None
            return self
        self._constant = None
        self._scaler = StandardScaler()
        self._model = LogisticRegression()
        self._model.fit(self._scaler.fit_transform(X), y)
        return self

    def infer(
        self, log: FlowLog, devices: list[Device], duration_s: float
    ) -> BinaryTrace:
        """Predicted occupancy over a shaped victim log."""
        X = occupancy_window_features(log, devices, duration_s)
        if self._model is None or self._scaler is None:
            if self._constant is None:
                raise RuntimeError("inferrer is not fitted")
            baseline = self.empty_event_baseline_ or 0.0
            occupied = (X[:, 0] > max(1.0, 2.0 * baseline)).astype(int)
            if self._constant == 1:
                occupied = np.maximum(
                    occupied, (X[:, 0] >= max(1.0, baseline)).astype(int)
                )
            return BinaryTrace(occupied, _WINDOW_S, 0.0)
        pred = self._model.predict(self._scaler.transform(X)).astype(int)
        return BinaryTrace(pred, _WINDOW_S, 0.0)


@dataclass(frozen=True)
class AttackerReport:
    """One attacker generation's scores against a shaped victim LAN."""

    occupancy_mcc: float
    occupancy_accuracy: float
    fingerprint_accuracy: float
    fingerprint_macro_f1: float

    def as_dict(self) -> dict:
        return {
            "occupancy_mcc": self.occupancy_mcc,
            "occupancy_accuracy": self.occupancy_accuracy,
            "fingerprint_accuracy": self.fingerprint_accuracy,
            "fingerprint_macro_f1": self.fingerprint_macro_f1,
        }


@dataclass(frozen=True)
class ArmsRaceOutcome:
    """Both attacker generations vs. one defense dial on one victim LAN."""

    defense: str
    setting: float
    days: int
    n_devices: int
    n_flows: int  # raw victim flows, pre-shaping
    n_shaped_flows: int
    naive: AttackerReport
    adaptive: AttackerReport
    cover_flows: int
    cover_bytes: int
    delayed_flows: int
    mean_added_delay_s: float
    merged_flows: int
    shaped_digest: str  # flow_log_digest of the shaped victim log
    #: this dial's share of the run's telemetry (``None`` while telemetry
    #: is off); an observation of the run, not part of the outcome
    telemetry: TelemetrySnapshot | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def cover_mb_per_day(self) -> float:
        """Bandwidth cost of the defense in MB/day of cover traffic."""
        return self.cover_bytes / 1e6 / max(self.days, 1)

    @property
    def adaptive_advantage(self) -> float:
        """Occupancy-MCC gap the retrained attacker recovers."""
        return self.adaptive.occupancy_mcc - self.naive.occupancy_mcc

    def as_dict(self) -> dict:
        return {
            "defense": self.defense,
            "setting": self.setting,
            "days": self.days,
            "n_devices": self.n_devices,
            "n_flows": self.n_flows,
            "n_shaped_flows": self.n_shaped_flows,
            "naive": self.naive.as_dict(),
            "adaptive": self.adaptive.as_dict(),
            "cover_flows": self.cover_flows,
            "cover_bytes": self.cover_bytes,
            "cover_mb_per_day": self.cover_mb_per_day,
            "delayed_flows": self.delayed_flows,
            "mean_added_delay_s": self.mean_added_delay_s,
            "merged_flows": self.merged_flows,
            "adaptive_advantage": self.adaptive_advantage,
            "shaped_digest": self.shaped_digest,
        }


def evaluate_arms_race(
    dials: Sequence[tuple[str, float]],
    *,
    days: int = 3,
    seed: "int | np.random.SeedSequence" = 0,
    lan_config: LanConfig | None = None,
) -> list[ArmsRaceOutcome]:
    """Run the full arms-race experiment: one outcome per ``(defense, setting)``.

    Two independent LANs are simulated from spawned seed streams: a *lab*
    LAN the attacker owns (occupancy known, used for training) and a
    *victim* LAN (occupancy is the secret being attacked).  Both are run
    through each dialed shaper.  The naive attacker trains its
    fingerprinter on the **raw** lab log and infers occupancy with the
    profile-derived baseline; the adaptive attacker trains both models on
    the **shaped** lab log.  Both are scored on the same shaped victim
    log, so any gap is attributable to retraining alone.

    Nothing but the shaping depends on the dial, so the LANs are
    simulated, the raw lab log featurized and the naive fingerprinter
    fitted once for every dial.  Each dial is then shaped and scored
    with fresh generators from the same spawned streams, so its outcome
    equals that of a call owing that dial alone.  Every setting-0 dial is
    the identity shaper, so the first one owed is scored and each later
    one copies its outcome under its own defense name.  Every dial's
    shaper is built before any LAN is simulated, so a defense name with no
    netpriv knob mapping or a setting outside [0, 1] raises first, on a
    setting-0 dial too.  Fully deterministic
    given ``seed`` (every stochastic stage gets its own spawned stream),
    which is what the sweep's digests pin.  With telemetry on, each
    outcome's ``telemetry`` is its own dial's share, taken out of the
    registry as :func:`~repro.obs.captured` takes a job's: a caller that
    totals the run merges the shares back, as the netpriv job does.
    """
    shapers = [make_shaper(defense, setting) for defense, setting in dials]
    ss = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    (lab_seed, victim_seed, lab_shape_seed, victim_shape_seed, naive_fp_seed, adaptive_fp_seed) = ss.spawn(6)
    config = lan_config if lan_config is not None else LanConfig()

    lab = simulate_lan(config, days, np.random.default_rng(lab_seed))
    victim = simulate_lan(config, days, np.random.default_rng(victim_seed))
    TELEMETRY.count("netpriv.flows", float(len(lab.log) + len(victim.log)))

    with TELEMETRY.timer("stage.fingerprint"):
        # lab and victim share the same config, hence the same device-id ->
        # type map; lab.devices labels every feature set
        train_naive = device_window_features(
            lab.log, lab.duration_s, _FINGERPRINT_WINDOW_S, devices=lab.devices
        )
        naive_fp = DeviceFingerprinter(
            rng=np.random.default_rng(naive_fp_seed)
        ).fit(train_naive, lab.devices)

    outcomes = []
    unshaped = None  # the first setting-0 dial's outcome
    for (defense, setting), shaper in zip(dials, shapers):
        identity = float(setting) == 0.0
        # one call per dial, so a dial's shaped logs are freed before the
        # next dial is shaped
        with captured() as own:
            if identity and unshaped is not None:
                outcome = replace(unshaped, defense=defense, setting=float(setting))
            else:
                outcome = _dial_outcome(
                    defense,
                    setting,
                    shaper,
                    lab,
                    victim,
                    train_naive,
                    naive_fp,
                    (lab_shape_seed, victim_shape_seed, adaptive_fp_seed),
                    days=days,
                )
                if identity:
                    unshaped = outcome
        outcomes.append(replace(outcome, telemetry=own.snapshot))
    return outcomes


def _dial_outcome(
    defense: str,
    setting: float,
    shaper: FlowShaper,
    lab: LanSimulation,
    victim: LanSimulation,
    train_naive: dict[str, np.ndarray],
    naive_fp: DeviceFingerprinter,
    seeds: tuple[np.random.SeedSequence, ...],
    *,
    days: int,
) -> ArmsRaceOutcome:
    """Shape both LANs with ``shaper`` (the ``defense@setting`` dial) and
    score both attacker generations.

    ``train_naive`` is the raw lab log's window features, which
    ``naive_fp`` was fitted on.
    """
    lab_shape_seed, victim_shape_seed, adaptive_fp_seed = seeds
    with TELEMETRY.timer("stage.shape"):
        shaped_lab, _ = shaper.shape(
            lab.log, lab.devices, lab.duration_s, np.random.default_rng(lab_shape_seed)
        )
        shaped_victim, cost = shaper.shape(
            victim.log,
            victim.devices,
            victim.duration_s,
            np.random.default_rng(victim_shape_seed),
        )

    with TELEMETRY.timer("stage.fingerprint"):
        # the identity shaper hands back the raw lab log, already featurized
        train_adaptive = (
            train_naive
            if shaped_lab is lab.log
            else device_window_features(
                shaped_lab, lab.duration_s, _FINGERPRINT_WINDOW_S, devices=lab.devices
            )
        )
        test = device_window_features(
            shaped_victim,
            victim.duration_s,
            _FINGERPRINT_WINDOW_S,
            devices=victim.devices,
        )
        naive_fp_report = naive_fp.score(test, lab.devices)
        adaptive_fp = DeviceFingerprinter(
            rng=np.random.default_rng(adaptive_fp_seed)
        ).evaluate(train_adaptive, test, lab.devices)

    naive_trace = occupancy_from_traffic_naive(
        shaped_victim, victim.devices, victim.duration_s
    )
    naive_occ = score_occupancy_attack(naive_trace, victim.occupancy)

    inferrer = AdaptiveOccupancyInferrer().fit(
        shaped_lab, lab.devices, lab.occupancy, lab.duration_s
    )
    adaptive_trace = inferrer.infer(shaped_victim, victim.devices, victim.duration_s)
    adaptive_occ = score_occupancy_attack(adaptive_trace, victim.occupancy)

    return ArmsRaceOutcome(
        defense=defense,
        setting=float(setting),
        days=days,
        n_devices=len(victim.devices),
        n_flows=len(victim.log),
        n_shaped_flows=len(shaped_victim),
        naive=AttackerReport(
            occupancy_mcc=naive_occ["mcc"],
            occupancy_accuracy=naive_occ["accuracy"],
            fingerprint_accuracy=naive_fp_report.accuracy,
            fingerprint_macro_f1=naive_fp_report.macro_f1,
        ),
        adaptive=AttackerReport(
            occupancy_mcc=adaptive_occ["mcc"],
            occupancy_accuracy=adaptive_occ["accuracy"],
            fingerprint_accuracy=adaptive_fp.accuracy,
            fingerprint_macro_f1=adaptive_fp.macro_f1,
        ),
        cover_flows=cost.cover_flows,
        cover_bytes=cost.cover_bytes,
        delayed_flows=cost.delayed_flows,
        mean_added_delay_s=cost.mean_added_delay_s,
        merged_flows=cost.merged_flows,
        shaped_digest=flow_log_digest(shaped_victim),
    )


def occupancy_from_traffic_naive(
    log: FlowLog, devices: list[Device], duration_s: float
) -> BinaryTrace:
    """The naive occupancy attack as the arms race scores it.

    Thin wrapper over :func:`repro.netpriv.threats.occupancy_from_traffic`
    on the arms-race window — named so the arms-race code reads as
    naive-vs-adaptive.
    """
    from .threats import occupancy_from_traffic

    return occupancy_from_traffic(log, devices, duration_s, _WINDOW_S)
