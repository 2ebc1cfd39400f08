"""Equivalence and performance pins for the vectorized hot-path kernels.

Every vectorized kernel in the repo ships next to its pre-vectorization
loop implementation (``repro.ml.kernels``'s ``*_loop`` functions and the
``_reference`` modules under ``repro.ml``, ``repro.home``,
``repro.timeseries``, ``repro.attacks.nilm``, ``repro.defenses`` and
``repro.netpriv``), and so does every sequential loop moved from numpy
scalars to plain floats (the water-heater tank and thermostat, the CHPr
controller, and the NILL and stepped battery loops).  These tests pin
each production kernel to its reference:

* bitwise-identical where the arithmetic permits (Viterbi paths,
  joint-chain parameters, Gaussian log-densities, simulated appliance
  traces, window features, detected edges, PowerPlay candidate lists,
  CART split triples, tree node arrays and forest probabilities; heater
  power, tank temperatures and comfort counts; each defense's visible
  trace, distortion and extra energy, whose scalar *type* every fleet
  result digest hashes through its ``repr``; netpriv simulated, shaped
  and digested flow logs, their shaping reports, and the device and
  occupancy window features);
* documented-tolerance-identical for the scan-based E-step (posteriors to
  1e-10, EM-fitted parameters to 1e-9), whose matrix-product prefix scan
  necessarily reassociates float additions;
* RNG-stream-identical for the appliance simulators, the forest's
  bootstrap and feature sampling, the CHPr controller's bursts, the
  columnar LAN simulator and the four netpriv shapers: the kernels must
  consume the seeded generator exactly as the loops did, or every seeded
  trace digest and cached fleet result would silently change.

The netpriv pins cover the columnar ``FlowLog`` paths: simulated LANs,
the four shapers, the device and occupancy window features, the naive
occupancy attack, the log digest and the smart gateway's two passes,
each against its per-record loop in ``repro.netpriv._reference``.

The perf tests at the bottom hold the six speedup floors with best-of-N
timing: vectorized HMM fit+decode, bound-pruned FHMM joint-space decode
and the forest fit with the CART split kernel, each at least 3x its loop
baseline, the whole-log netpriv window features and CHPr's float
controller and thermostat, each at least 2.5x, and the columnar heartbeat
jitter and flow merging, each at least 10x.
End-to-end speed is perfbench's to measure (``perfbench/README.md``).
"""

from __future__ import annotations

import copy
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.attacks.nilm._reference import pair_candidates_loop
from repro.attacks.nilm.powerplay import LoadKind, _pair_candidates, fig2_signatures
from repro.core.registry import make_defense
from repro.defenses import chpr as chpr_module
from repro.defenses import (
    Battery,
    BatteryConfig,
    CHPrConfig,
    CHPrController,
    CHPrTraceDefense,
    NILLDefense,
    SteppedDefense,
    apply_chpr,
)
from repro.defenses._reference import (
    BatteryLoop,
    chpr_apply_loop,
    chpr_control_loop,
    nill_apply_loop,
    stepped_apply_loop,
)
from repro.home import fig6_home, simulate_home
from repro.home._reference import (
    simulate_continuous_loop,
    simulate_cyclic_loop,
    simulate_lighting_loop,
    tank_step_loop,
    thermostat_power_loop,
)
from repro.home.appliances import (
    ContinuousAppliance,
    CyclicAppliance,
    LightingAppliance,
)
from repro.home.waterheater import (
    WaterHeaterConfig,
    WaterHeaterTank,
    thermostat_power,
)
from repro.fleet import FleetSpec
from repro.fleet.netpriv import netpriv_lan_config
from repro.ml import kernels
from repro.ml._reference import (
    best_split_loop,
    decode_loop,
    fit_loop,
    forest_fit_loop,
    posterior_loop,
    tree_proba_loop,
)
from repro.ml.fhmm import FactorialHMM, fit_appliance_chain
from repro.ml.forest import RandomForestClassifier
from repro.ml.hmm import GaussianHMM
from repro.ml.preprocessing import StandardScaler
from repro.ml.tree import DecisionTreeClassifier
from repro.netpriv._reference import (
    constant_rate_shape_loop,
    cover_shape_loop,
    device_window_features_loop,
    enforce_loop,
    flow_log_digest_loop,
    jitter_shape_loop,
    learn_baselines_loop,
    merge_shape_loop,
    occupancy_from_traffic_loop,
    occupancy_window_features_loop,
    simulate_flows_loop,
    simulate_lan_loop,
)
from repro.netpriv.adaptive import occupancy_window_features
from repro.netpriv.devices import Device as NetDevice
from repro.netpriv.devices import DeviceType
from repro.netpriv.fingerprint import DeviceFingerprinter, device_window_features
from repro.netpriv.flows import Direction, Flow, FlowLog, flow_log_digest
from repro.netpriv.gateway import SmartGateway
from repro.netpriv.lan import simulate_lan
from repro.netpriv.shaping import (
    ConstantRatePadding,
    FlowMerging,
    HeartbeatJitter,
    ShapingReport,
    TrafficShaper,
    make_shaper,
)
from repro.netpriv.threats import (
    Compromise,
    CompromiseKind,
    inject_compromise,
    occupancy_from_traffic,
)
from repro.timeseries import BinaryTrace, Edge, PowerTrace
from repro.timeseries._reference import detect_edges_loop, window_features_loop
from repro.timeseries.events import detect_edges
from repro.timeseries.stats import window_features


def _random_hmm_inputs(seed: int, n_max: int = 800):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, n_max))
    k = int(rng.choice([1, 2, 3, 5]))
    transmat = rng.dirichlet(np.ones(k) * 2.0, size=k)
    startprob = rng.dirichlet(np.ones(k))
    log_b = rng.normal(-10.0, 8.0, (n, k))
    b = np.exp(log_b - log_b.max(axis=1, keepdims=True))
    return startprob, transmat, b


class TestHMMKernels:
    def test_log_gaussian_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(1, 500))
            k = int(rng.integers(1, 6))
            d = int(rng.integers(1, 4))
            X = rng.normal(100.0, 50.0, (n, d))
            means = rng.normal(100.0, 80.0, (k, d))
            variances = rng.uniform(1.0, 500.0, (k, d))
            a = kernels.log_gaussian(X, means, variances)
            b = kernels.log_gaussian_loop(X, means, variances)
            assert np.array_equal(a, b)

    def test_estep_scan_matches_loop(self):
        for seed in range(25):
            startprob, transmat, b = _random_hmm_inputs(seed)
            g1, x1, l1 = kernels.estep_loop(startprob, transmat, b)
            g2, x2, l2 = kernels._estep_scan(startprob, transmat, b, want_xi=True)
            assert np.all(np.isfinite(g2))
            assert np.max(np.abs(g1 - g2)) < 1e-10
            assert abs(l1 - l2) <= 1e-9 * max(1.0, abs(l1))
            if x1 is None:
                assert x2 is None or not np.any(x2)
            else:
                scale = max(1.0, float(np.abs(x1).max()))
                assert np.max(np.abs(x1 - x2)) / scale < 1e-9

    def test_estep_scan_survives_extreme_dynamic_range(self):
        # Regression for the lazy-renormalization overflow: matrices whose
        # maxima straddle many hundreds of orders of magnitude used to
        # overflow the doubling passes before the upper rescale trigger
        # was added.
        rng = np.random.default_rng(3)
        n, k = 2554, 4
        transmat = rng.dirichlet(np.ones(k) * 5.0, size=k)
        startprob = rng.dirichlet(np.ones(k))
        b = rng.uniform(1e-280, 1.0, (n, k))
        b[rng.uniform(size=n) < 0.3] *= 1e-200
        g1, x1, l1 = kernels.estep_loop(startprob, transmat, b)
        g2, x2, l2 = kernels._estep_scan(startprob, transmat, b, want_xi=True)
        assert np.all(np.isfinite(g2)) and np.all(np.isfinite(x2))
        assert np.max(np.abs(g1 - g2)) < 1e-10
        assert abs(l1 - l2) <= 1e-9 * abs(l1)

    def test_estep_dispatch_is_shape_based(self):
        startprob, transmat, b = _random_hmm_inputs(11)
        short = b[: kernels.SCAN_MIN_SAMPLES - 1]
        g1, x1, l1 = kernels.estep(startprob, transmat, short)
        g2, x2, l2 = kernels.estep_loop(startprob, transmat, short)
        assert np.array_equal(g1, g2) and l1 == l2

    def test_viterbi_bitwise_small_and_large_k(self):
        rng = np.random.default_rng(1)
        for k in (1, 2, 3, kernels.VITERBI_PRUNE_MIN_STATES, 40):
            for n in (1, 2, 50, 400):
                log_pi = np.log(rng.dirichlet(np.ones(k)) + 1e-300)
                transmat = np.full((k, k), 0.05 / max(k - 1, 1))
                np.fill_diagonal(transmat, 0.95 if k > 1 else 1.0)
                transmat /= transmat.sum(axis=1, keepdims=True)
                log_a = np.log(transmat + 1e-300)
                log_b = rng.normal(-5.0, 4.0, (n, k))
                p1 = kernels.viterbi(log_pi, log_a, log_b)
                p2 = kernels.viterbi_loop(log_pi, log_a, log_b)
                assert np.array_equal(p1, p2), (k, n)

    def test_viterbi_bitwise_on_ties(self):
        # Degenerate emissions (a NILL-defended constant trace) produce
        # exact score ties; tie-breaking must match the reference argmax.
        k, n = 20, 120
        log_pi = np.zeros(k)
        log_a = np.zeros((k, k))
        log_b = np.zeros((n, k))
        assert np.array_equal(
            kernels.viterbi(log_pi, log_a, log_b),
            kernels.viterbi_loop(log_pi, log_a, log_b),
        )

    def test_joint_chain_params_bitwise(self):
        rng = np.random.default_rng(5)
        for n_chains in (1, 2, 3, 5):
            startprobs, transmats, means, variances = [], [], [], []
            for _ in range(n_chains):
                k = int(rng.integers(2, 4))
                startprobs.append(rng.dirichlet(np.ones(k)))
                transmats.append(rng.dirichlet(np.ones(k), size=k))
                means.append(rng.uniform(0.0, 500.0, k))
                variances.append(rng.uniform(1.0, 100.0, k))
            fast = kernels.joint_chain_params(
                startprobs, transmats, means, variances, 100.0
            )
            slow = kernels.joint_chain_params_loop(
                startprobs, transmats, means, variances, 100.0
            )
            for a, b in zip(fast, slow):
                assert np.array_equal(a, b)


class TestModelEquivalence:
    """Whole-model pins: production GaussianHMM/FactorialHMM vs loop baseline."""

    @staticmethod
    def _training_signal(seed: int, n: int = 600, k: int = 2):
        rng = np.random.default_rng(seed)
        means = np.linspace(0.0, 400.0, k)
        states = np.zeros(n, dtype=int)
        for i in range(1, n):
            states[i] = states[i - 1] if rng.uniform() < 0.9 else rng.integers(k)
        return (means[states] + rng.normal(0.0, 30.0, n)).reshape(-1, 1)

    def test_fit_params_within_1e9_of_loop_baseline(self):
        for seed in range(3):
            X = self._training_signal(seed)
            vec = GaussianHMM(2, n_iter=15, rng=seed).fit(X)
            ref = fit_loop(GaussianHMM(2, n_iter=15, rng=seed), X)
            for a, b in (
                (vec.startprob_, ref.startprob_),
                (vec.transmat_, ref.transmat_),
                (vec.means_, ref.means_),
                (vec.variances_, ref.variances_),
            ):
                assert np.max(np.abs(a - b)) < 1e-9

    def test_decode_paths_identical(self):
        X = self._training_signal(7)
        model = GaussianHMM(2, n_iter=15, rng=7).fit(X)
        assert np.array_equal(model.decode(X), decode_loop(model, X))

    def test_posterior_matches_loop(self):
        X = self._training_signal(9)
        model = GaussianHMM(2, n_iter=15, rng=9).fit(X)
        assert np.max(np.abs(model.posterior(X) - posterior_loop(model, X))) < 1e-10

    def test_fhmm_decode_matches_loop_viterbi(self):
        rng = np.random.default_rng(2)
        chains = []
        for power in (150.0, 400.0, 1000.0):
            on = (rng.uniform(size=500) < 0.4).astype(float) * power
            signal = on + rng.normal(0.0, 15.0, 500)
            chains.append(fit_appliance_chain(signal, n_states=2, rng=1))
        fhmm = FactorialHMM(chains, noise_var=200.0)
        aggregate = np.abs(rng.normal(600.0, 300.0, 300))
        log_b = fhmm._emission_logprob(aggregate)
        log_pi = np.log(fhmm._startprob + 1e-300)
        log_a = np.log(fhmm._transmat + 1e-300)
        joint_ref = kernels.viterbi_loop(log_pi, log_a, log_b)
        assert np.array_equal(fhmm.decode(aggregate), fhmm._joint_states[joint_ref])


class TestApplianceStreamEquivalence:
    """Vectorized simulators: bitwise traces AND identical RNG consumption."""

    CASES = [
        (
            CyclicAppliance("fridge", on_power_w=150.0, on_minutes=15.0,
                            off_minutes=30.0, spike_power_w=600.0),
            simulate_cyclic_loop,
        ),
        (
            CyclicAppliance("freezer", on_power_w=120.0, on_minutes=12.0,
                            off_minutes=40.0, jitter=0.4),
            simulate_cyclic_loop,
        ),
        (
            ContinuousAppliance("hrv", base_power_w=80.0, boost_power_w=160.0,
                                boosts_per_day=3.0),
            simulate_continuous_loop,
        ),
        (
            LightingAppliance("lights", max_power_w=300.0),
            simulate_lighting_loop,
        ),
    ]

    @pytest.mark.parametrize("period_s", [30.0, 60.0, 300.0, 1800.0])
    def test_bitwise_and_stream_identical(self, period_s):
        n = int(2 * 86400 / period_s)
        for app, reference in self.CASES:
            for seed in range(4):
                rng = np.random.default_rng(seed)
                occ_vals = (np.random.default_rng(seed + 1).uniform(size=n) < 0.6)
                occupancy = BinaryTrace(occ_vals.astype(int), period_s)
                rng_ref = np.random.default_rng(seed)
                got = app.simulate(occupancy, rng)
                want = reference(app, occupancy, rng_ref)
                assert np.array_equal(got.values, want.values), (app.name, seed)
                # stream position must match exactly: draw once from both
                assert rng.uniform() == rng_ref.uniform(), (app.name, seed)


class TestTimeseriesEquivalence:
    @staticmethod
    def _trace(seed: int, n: int = 4000, period_s: float = 60.0) -> PowerTrace:
        rng = np.random.default_rng(seed)
        vals = np.abs(rng.normal(200.0, 150.0, n))
        vals += rng.choice([0.0, 400.0], n, p=[0.85, 0.15])
        return PowerTrace(vals, period_s, start_s=float(rng.integers(0, 3600)))

    def test_window_features_bitwise(self):
        for seed in range(5):
            trace = self._trace(seed)
            for window_s in (60.0, 300.0, 900.0, 3600.0):
                assert np.array_equal(
                    window_features(trace, window_s),
                    window_features_loop(trace, window_s),
                )

    def test_detect_edges_bitwise(self):
        for seed in range(5):
            trace = self._trace(seed, n=2000)
            for settle in (1, 2, 3, 7, 5000):
                assert detect_edges(trace, 30.0, settle) == detect_edges_loop(
                    trace, 30.0, settle
                )

    def test_powerplay_candidates_identical(self):
        rng = np.random.default_rng(4)
        period = 30.0
        idxs = np.sort(rng.choice(np.arange(1, 8000), size=300, replace=False))
        edges = []
        for idx in idxs:
            mag = float(rng.choice([120.0, 150.0, 1050.0]) * rng.uniform(0.8, 1.2))
            delta = mag if rng.uniform() < 0.5 else -mag
            edges.append(
                Edge(index=int(idx), time_s=idx * period, delta_w=delta,
                     pre_w=200.0, post_w=200.0 + delta)
            )
        used = rng.uniform(size=len(edges)) < 0.15
        for signature in fig2_signatures():
            target = signature.on_power_w + (
                signature.motor_power_w
                if signature.kind is LoadKind.COMPOUND
                else 0.0
            )
            assert _pair_candidates(edges, used.copy(), signature, target) == (
                pair_candidates_loop(edges, used.copy(), signature, target)
            )


@pytest.fixture(scope="module")
def lan_logs():
    """``lan_logs(lan, seed, shaper=None)``: one simulated one-day LAN and
    its flow log, raw or shaped by ``"name@dial"`` with a generator seeded
    ``seed``, each built once per module."""
    sims, logs = {}, {}

    def build(lan: str, seed: int, shaper: str | None = None):
        if (lan, seed) not in sims:
            sims[lan, seed] = simulate_lan(
                netpriv_lan_config(lan), 1, np.random.default_rng(seed)
            )
        sim = sims[lan, seed]
        if (lan, seed, shaper) not in logs:
            log = sim.log
            if shaper is not None:
                name, dial = shaper.split("@")
                log, _ = make_shaper(name, float(dial)).shape(
                    log, sim.devices, sim.duration_s, np.random.default_rng(seed)
                )
            logs[lan, seed, shaper] = log
        return sim, logs[lan, seed, shaper]

    return build


@pytest.fixture(scope="module")
def lan_features(lan_logs):
    """``lan_features(lan, seed, shaper=None)``: the fingerprinter's scaled
    training matrix for one of ``lan_logs``' logs, built once per module."""
    cache = {}

    def features(lan: str, seed: int, shaper: str | None = None):
        if (lan, seed, shaper) not in cache:
            sim, log = lan_logs(lan, seed, shaper)
            windows = device_window_features(
                log, sim.duration_s, 3600.0, devices=sim.devices
            )
            X, y = DeviceFingerprinter._stack(windows, sim.devices)
            cache[lan, seed, shaper] = (StandardScaler().fit_transform(X), y)
        return cache[lan, seed, shaper]

    return features


class TestForestEquivalence:
    """CART split kernel and level-wise tree walk vs the loops they replaced:
    the same split triples, node arrays, probabilities and generator state."""

    @staticmethod
    def _node(seed: int):
        """Bootstrap rows of a random node: tied values, a constant feature
        (no cut on it) and 2 to 12 classes, some of them absent."""
        rng = np.random.default_rng(seed)
        n_classes = (2, 6, 8, 12)[seed % 4]
        n, d = int(rng.integers(1, 240)), int(rng.integers(1, 13))
        X = rng.normal(size=(n, d))
        X[:, ::2] = np.round(X[:, ::2] * 2.0)
        X[:, rng.integers(d)] = 0.5
        if seed % 10 == 9:
            X[:] = 0.5
        y_idx = rng.integers(n_classes, size=n)
        boot = rng.integers(n, size=n)
        return X[boot], y_idx[boot], n_classes

    def test_best_split_matches_loop(self):
        found = set()
        for seed in range(80):
            X, y_idx, n_classes = self._node(seed)
            d = X.shape[1]
            for max_features in (None, max(1, d // 3)):
                kernel = DecisionTreeClassifier(max_features=max_features, rng=seed)
                loop = DecisionTreeClassifier(max_features=max_features, rng=seed)
                got = kernel._best_split(X, y_idx, n_classes)
                assert got == best_split_loop(loop, X, y_idx, n_classes), seed
                state = kernel._rng.bit_generator.state
                assert state == loop._rng.bit_generator.state, seed
                found.add(got is None)
        assert found == {False, True}

    def test_tree_walk_matches_loop(self):
        for seed in range(8):
            X, y_idx, _ = self._node(4 * seed + 3)
            tree = DecisionTreeClassifier(max_features=2, rng=seed).fit(X, y_idx)
            # rows that sit exactly on a split threshold go left
            probe = X[::-1].copy()
            inner = np.flatnonzero(tree._left >= 0)
            probe[inner % len(probe), tree._feature[inner]] = tree._threshold[inner]
            want = tree_proba_loop(tree, probe)
            assert np.array_equal(tree.predict_proba(probe), want)

    @pytest.mark.parametrize(
        "lan,seed,shaper",
        [
            ("small", 0, None),
            ("small", 0, "cover@1"),
            ("small", 1, None),
            ("small", 1, "jitter@0.5"),
            ("small", 2, None),
            ("small", 2, "merge@1"),
            # 8 device types: the class count at which a column-folded
            # Gini sum stops matching numpy's sum
            ("default", 0, None),
            ("default", 1, "cover@1"),
            ("default", 2, "merge@1"),
        ],
    )
    def test_forest_matches_loop_on_lan_features(self, lan_features, lan, seed, shaper):
        X, y = lan_features(lan, seed, shaper)
        held_out, _ = lan_features(lan, (seed + 1) % 3)
        # the fingerprinter's forest; fewer trees on the larger LAN keep
        # the loop side short
        n_trees = 20 if lan == "small" else 5
        kernel = RandomForestClassifier(n_trees=n_trees, max_depth=10, rng=seed)
        loop = RandomForestClassifier(n_trees=n_trees, max_depth=10, rng=seed)
        kernel.fit(X, y)
        forest_fit_loop(loop, X, y)
        assert kernel._rng.bit_generator.state == loop._rng.bit_generator.state
        for a, b in zip(kernel.trees_, loop.trees_, strict=True):
            for name in ("_feature", "_threshold", "_left", "_right", "_counts"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert a._rng.bit_generator.state == b._rng.bit_generator.state
            want = tree_proba_loop(b, held_out)
            assert np.array_equal(a.predict_proba(held_out), want)
        want = loop.predict_proba(held_out)
        assert np.array_equal(kernel.predict_proba(held_out), want)


def _same_features(got: dict, want: dict) -> bool:
    """The same device keys in the same order, and bit-equal matrices."""
    return list(got) == list(want) and all(
        got[k].shape == want[k].shape
        and got[k].dtype == want[k].dtype
        and got[k].tobytes() == want[k].tobytes()
        for k in want
    )


def _crafted_log(seed: int, window_s: float, n_windows: int) -> FlowLog:
    """Flows of four devices, out of time order: times on window edges and
    just below them, tied, and outside ``[0, duration)``; zero packets, zero
    and large byte counts, every direction."""
    rng = np.random.default_rng(seed)
    edges = np.arange(-1, n_windows + 2) * window_s
    times = np.concatenate(
        [
            edges,
            np.nextafter(edges, -np.inf),
            rng.uniform(-window_s, (n_windows + 1) * window_s, size=40),
            np.full(5, 0.5 * window_s),  # tied
        ]
    )
    directions = list(Direction)
    return FlowLog(
        [
            Flow(
                time_s=float(t),
                device_id=f"dev-{int(rng.integers(4))}",
                endpoint=f"host-{int(rng.integers(3))}.example",
                port=443,
                direction=directions[int(rng.integers(3))],
                bytes_up=int(rng.choice([0, 1, 300, 150_000])),
                bytes_down=int(rng.integers(0, 120_000)),
                packets=int(rng.integers(0, 4)),
                duration_s=float(rng.choice([0.0, 0.25, 30.0, 400.0])),
            )
            for t in rng.permutation(times)
        ]
    )


class TestNetprivEquivalence:
    """Whole-log window features and batched jitter draws vs the per-flow
    loops they replaced: bit-equal matrices under the same keys in the same
    order, the same shaped-log digests, report fields and generator state."""

    @pytest.mark.parametrize(
        "shaper",
        [None]
        + [f"{name}@{dial}" for name in ("cover", "constant-rate", "merge", "jitter")
           for dial in ("0.5", "1")],
    )
    def test_features_match_loop_on_shaped_logs(self, lan_logs, shaper):
        sim, log = lan_logs("small", 0, shaper)
        got = device_window_features(log, sim.duration_s, 3600.0, sim.devices)
        want = device_window_features_loop(log, sim.duration_s, 3600.0, sim.devices)
        assert _same_features(got, want)

    @pytest.mark.parametrize("window_s", [900.0, 1800.0, 3600.0])
    @pytest.mark.parametrize("listed", ["none", "some"])
    def test_features_match_loop_across_windows(self, lan_logs, window_s, listed):
        # "some": every other device, reversed, plus one with no flows
        sim, log = lan_logs("small", 1, "jitter@0.5")
        devices = None
        if listed == "some":
            devices = [d.device_id for d in sim.devices[::-2]] + ["silent-1"]
        got = device_window_features(log, sim.duration_s, window_s, devices)
        want = device_window_features_loop(log, sim.duration_s, window_s, devices)
        assert _same_features(got, want)
        assert (devices is None) or list(got)[: len(devices)] == devices

    @pytest.mark.parametrize("shaper", [None, "cover@1"])
    def test_features_match_loop_on_default_lan(self, lan_logs, shaper):
        sim, log = lan_logs("default", 1, shaper)
        got = device_window_features(log, sim.duration_s, 3600.0, sim.devices)
        want = device_window_features_loop(log, sim.duration_s, 3600.0, sim.devices)
        assert _same_features(got, want)

    def test_features_match_loop_on_crafted_logs(self):
        window_s, n_windows = 600.0, 3
        duration_s = n_windows * window_s + 0.5 * window_s
        one = Flow(10.0, "dev-9", "x", 443, Direction.INBOUND, 5, 6, 1, 0.1)
        two = Flow(20.0, "dev-9", "y", 443, Direction.OUTBOUND, 7, 0, 0, 0.2)
        logs = [
            FlowLog([]),
            FlowLog([one]),
            FlowLog([two, one]),
            FlowLog([one, one, one]),
        ] + [_crafted_log(seed, window_s, n_windows) for seed in range(12)]
        for log in logs:
            # the listed devices miss dev-0 and dev-9 and add one with no flows
            for devices in (None, ["dev-3", "dev-1", "silent", "dev-2"]):
                got = device_window_features(log, duration_s, window_s, devices)
                want = device_window_features_loop(log, duration_s, window_s, devices)
                assert _same_features(got, want)
        assert device_window_features(FlowLog([]), duration_s, window_s) == {}
        # a flow with a NaN time cannot be built; the features still refuse
        # one that bypassed that check
        with pytest.raises(ValueError):
            replace(one, time_s=float("nan"))
        nan_time = copy.copy(one)
        object.__setattr__(nan_time, "time_s", float("nan"))
        bad = FlowLog([nan_time])
        for features in (device_window_features, device_window_features_loop):
            with pytest.raises(ValueError):
                features(bad, duration_s, window_s)

    @staticmethod
    def _same_shaping(shaper, twin, log, devices, duration_s, seed):
        rng, twin_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, report = shaper.shape(log, devices, duration_s, rng)
        want, twin_report = twin(shaper, log, devices, duration_s, twin_rng)
        assert flow_log_digest(got) == flow_log_digest(want)
        for field in fields(ShapingReport):
            a, b = getattr(report, field.name), getattr(twin_report, field.name)
            assert repr(a) == repr(b), field.name
        assert rng.bit_generator.state == twin_rng.bit_generator.state
        return report

    @pytest.mark.parametrize("scale", [0.4, 0.8])
    def test_jitter_and_merge_match_loops_on_lan(self, lan_logs, scale):
        sim, log = lan_logs("small", 0)
        report = self._same_shaping(
            HeartbeatJitter(scale), jitter_shape_loop, log, sim.devices,
            sim.duration_s, 3,
        )
        assert report.delayed_flows > 0
        report = self._same_shaping(
            FlowMerging(scale / 0.8), merge_shape_loop, log, sim.devices,
            sim.duration_s, 3,
        )
        assert report.merged_flows > 0

    def test_jitter_and_merge_match_loops_on_crafted_logs(self):
        devices = _crafted_devices()
        window_s, n_windows = 600.0, 3
        duration_s = n_windows * window_s
        beat = devices[0].profile.heartbeat_bytes_up
        logs = [FlowLog([])]
        for seed in range(6):
            log = _crafted_log(seed, window_s, n_windows)
            # heartbeat-sized flows, some near both ends of the log, so the
            # jitter clips them; dev-3 has no profile and passes through
            logs.append(FlowLog([replace(f, bytes_up=beat) for f in log]))
            logs.append(log)
        for log in logs:
            for scale in (0.3, 1.0):
                self._same_shaping(
                    HeartbeatJitter(scale), jitter_shape_loop, log, devices,
                    duration_s, 7,
                )
                self._same_shaping(
                    FlowMerging(scale, quantum_s=250.0), merge_shape_loop, log,
                    devices, duration_s, 7,
                )

    @pytest.mark.parametrize("lan", ["small", "default"])
    @pytest.mark.parametrize("days", [1, 2])
    def test_simulated_lan_matches_loop(self, lan, days):
        for seed in (0, 7):
            rng, twin_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = simulate_lan(netpriv_lan_config(lan), days, rng)
            want = simulate_lan_loop(netpriv_lan_config(lan), days, twin_rng)
            assert flow_log_digest(got.log) == flow_log_digest_loop(want.log)
            assert got.devices == want.devices
            assert got.occupancy.values.tobytes() == want.occupancy.values.tobytes()
            assert repr(got.duration_s) == repr(want.duration_s)
            assert rng.bit_generator.state == twin_rng.bit_generator.state

    @pytest.mark.parametrize("kind", list(DeviceType))
    def test_device_flows_match_loop(self, kind):
        # horizons shorter than one heartbeat, not a whole number of
        # stream chunks or days, and with no occupancy trace
        device = NetDevice.make("dev", kind, np.random.default_rng(4))
        for duration_s in (7.0, 1_000.5, 50_000.0, 200_000.0):
            rng, twin_rng = np.random.default_rng(9), np.random.default_rng(9)
            got = device.simulate_flows(duration_s, None, rng).sorted()
            want = FlowLog(simulate_flows_loop(device, duration_s, None, twin_rng))
            assert flow_log_digest(got) == flow_log_digest_loop(want)
            assert rng.bit_generator.state == twin_rng.bit_generator.state

    @pytest.mark.parametrize("lan", ["small", "default"])
    @pytest.mark.parametrize(
        "shaper",
        [TrafficShaper(1.4, 240.0), TrafficShaper(1.2, 0.0),
         ConstantRatePadding(1.5), ConstantRatePadding(0.5),
         FlowMerging(0.5), HeartbeatJitter(0.8)],
        ids=["cover", "cover-no-delay", "constant-rate", "constant-rate-low",
             "merge", "jitter"],
    )
    def test_shapers_match_loops_on_lan(self, lan_logs, lan, shaper):
        sim, log = lan_logs(lan, 1)
        self._same_shaping(
            shaper, _SHAPE_LOOPS[type(shaper)], log, sim.devices, sim.duration_s, 5
        )

    @pytest.mark.parametrize("window_s,n_windows", [(600.0, 3), (3600.0, 9)])
    def test_cover_and_padding_match_loops_on_crafted_logs(self, window_s, n_windows):
        # times below 0 and at or past the last hour: the loops skip them
        # in the real-event tally; nine hours reach the cover shaper's
        # daytime pad
        devices = _crafted_devices()
        duration_s = n_windows * window_s
        for seed in range(6):
            log = _crafted_log(seed, window_s, n_windows)
            for shaper in (
                TrafficShaper(1.2, 0.0), TrafficShaper(1.3, 90.0),
                ConstantRatePadding(1.0), ConstantRatePadding(0.4),
            ):
                self._same_shaping(
                    shaper, _SHAPE_LOOPS[type(shaper)], log, devices, duration_s, seed
                )

    def test_out_of_range_events_are_not_tallied(self):
        # a 2-hour log with an event at 7,300 s and one at -5 s: neither
        # lands in an hour of the log, so neither lowers a cover deficit
        cam = _crafted_devices()[1]
        duration_s = 7200.0
        events = [
            Flow(t, cam.device_id, cam.profile.endpoints[0], 443,
                 Direction.OUTBOUND, 900_000, 4_000, 50, 10.0)
            for t in (-5.0, 100.0, 7300.0)
        ]
        for shaper in (ConstantRatePadding(1.0), TrafficShaper(1.2, 0.0)):
            got, report = shaper.shape(FlowLog(events), [cam], duration_s, 3)
            want, _ = _SHAPE_LOOPS[type(shaper)](
                shaper, FlowLog(events), [cam], duration_s, 3
            )
            assert flow_log_digest(got) == flow_log_digest_loop(want)
            # the same cover as for the in-range event alone
            _, alone = shaper.shape(FlowLog(events[1:2]), [cam], duration_s, 3)
            assert repr(report) == repr(alone)

    @pytest.mark.parametrize(
        "shaper", [None, "cover@1", "constant-rate@0.5", "merge@1", "jitter@1"]
    )
    @pytest.mark.parametrize("lan", ["small", "default"])
    def test_occupancy_and_digest_match_loops_on_lan(self, lan_logs, lan, shaper):
        sim, log = lan_logs(lan, 2, shaper)
        got = occupancy_window_features(log, sim.devices, sim.duration_s)
        want = occupancy_window_features_loop(log, sim.devices, sim.duration_s)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        got = occupancy_from_traffic(log, sim.devices, sim.duration_s)
        want = occupancy_from_traffic_loop(log, sim.devices, sim.duration_s)
        assert got.values.dtype == want.values.dtype
        assert got.values.tobytes() == want.values.tobytes()
        assert flow_log_digest(log) == flow_log_digest_loop(log)

    def test_occupancy_and_digest_match_loops_on_crafted_logs(self):
        devices = _crafted_devices()
        for window_s, n_windows in ((600.0, 3), (1800.0, 5)):
            duration_s = n_windows * window_s + 0.5 * window_s
            logs = [FlowLog([])] + [
                _crafted_log(seed, window_s, n_windows) for seed in range(12)
            ]
            for log in logs:
                assert flow_log_digest(log) == flow_log_digest_loop(log)
                for listed in (devices, devices[1:], []):
                    got = occupancy_window_features(log, listed, duration_s)
                    want = occupancy_window_features_loop(log, listed, duration_s)
                    assert got.tobytes() == want.tobytes()
                    for w in (window_s, 900.0):
                        got = occupancy_from_traffic(log, listed, duration_s, w)
                        want = occupancy_from_traffic_loop(log, listed, duration_s, w)
                        assert got.values.tobytes() == want.values.tobytes()
        # names whose repr needs other quotes or escapes
        odd = FlowLog(
            [
                Flow(1.5, "it's", 'say "hi"', 80, Direction.LATERAL, 1, 2, 3, 0.0),
                Flow(-0.0, "caf\u00e9\n", "\\x", 8080, Direction.INBOUND, 0, 0, 0, 1e-300),
            ]
        )
        assert flow_log_digest(odd) == flow_log_digest_loop(odd)


    @staticmethod
    def _same_gateway(train, live, duration_s, train_s, device_types):
        gateway, twin = SmartGateway(), SmartGateway()
        gateway.learn_baselines(train, train_s, device_types)
        learn_baselines_loop(twin, train, train_s, device_types)
        assert list(gateway.baselines) == list(twin.baselines)
        for device_id, want in twin.baselines.items():
            got = gateway.baselines[device_id]
            assert got.endpoints == want.endpoints
            assert got.mean.tobytes() == want.mean.tobytes()
            assert got.std.tobytes() == want.std.tobytes()
        for log in live:
            got, report = gateway.enforce(log, duration_s)
            want, twin_report = enforce_loop(twin, log, duration_s)
            assert flow_log_digest(got) == flow_log_digest_loop(want)
            assert repr(report) == repr(twin_report)

    @pytest.mark.parametrize("pooled", [False, True])
    def test_gateway_matches_loops_on_lan(self, lan_logs, pooled):
        sim, log = lan_logs("default", 1)
        half = sim.duration_s / 2
        ids = [d.device_id for d in sim.devices]
        live = [log] + [
            inject_compromise(
                log, Compromise(device, kind, half + 3600.0), sim.duration_s, ids, 5
            )
            for kind, device in (
                (CompromiseKind.DDOS, "camera-1"),
                (CompromiseKind.EXFILTRATION, "thermostat-1"),
                (CompromiseKind.LATERAL_SCAN, "smart_plug-1"),
            )
        ]
        # an unknown device and a known one reaching a new endpoint
        rogue = Flow(half + 10.0, "rogue", "evil.example", 443,
                     Direction.OUTBOUND, 1000, 1000, 10, 1.0)
        odd = replace(rogue, device_id="camera-1", endpoint="never-seen.example")
        live += [FlowLog.concat([log, FlowLog([f])]).sorted() for f in (rogue, odd)]
        types = {d.device_id: d.device_type.value for d in sim.devices}
        self._same_gateway(
            log.in_window(0.0, half), live, sim.duration_s, half,
            types if pooled else None,
        )

    def test_gateway_matches_loops_on_crafted_logs(self):
        # out-of-order times outside the horizon, lateral flows, and a
        # device (dev-3 in some logs) the training log may not have seen
        window_s, n_windows = 1800.0, 5
        for seed in range(4):
            train = _crafted_log(seed, window_s, n_windows)
            live = [_crafted_log(seed + 10, window_s, n_windows), train]
            types = {"dev-0": "a", "dev-1": "a", "dev-2": "b"}
            for device_types in (None, types):
                self._same_gateway(
                    train, live, n_windows * window_s + 900.0,
                    (n_windows - 1) * window_s, device_types,
                )


#: each shaper class's per-flow loop in ``repro.netpriv._reference``
_SHAPE_LOOPS = {
    TrafficShaper: cover_shape_loop,
    ConstantRatePadding: constant_rate_shape_loop,
    FlowMerging: merge_shape_loop,
    HeartbeatJitter: jitter_shape_loop,
}


def _crafted_devices() -> list[NetDevice]:
    """Profiles for ``_crafted_log``'s dev-0 to dev-2 (dev-3 has none): a
    plug, a camera and a thermostat, all event devices."""
    rng = np.random.default_rng(5)
    return [
        NetDevice.make(f"dev-{i}", kind, rng)
        for i, kind in enumerate(
            (DeviceType.SMART_PLUG, DeviceType.CAMERA, DeviceType.THERMOSTAT)
        )
    ]


def _sweep_homes(n_homes: int, days: int) -> list[PowerTrace]:
    """Metered traces of the ``sweep`` benchmark's kind of home: ``random``
    presets, simulated as a fleet job simulates them."""
    spec = FleetSpec(n_homes=n_homes, days=days, seed=0, mix=("random",))
    return [
        simulate_home(job.config, job.days, np.random.default_rng(job.sim_seed)).metered
        for job in spec.jobs()
    ]


@pytest.fixture(scope="module")
def defense_homes():
    return _sweep_homes(2, 2)


def _same_tank(a: WaterHeaterTank, b: WaterHeaterTank) -> bool:
    return (repr(a.temp_c), a.comfort_violations, a.samples) == (
        repr(b.temp_c), b.comfort_violations, b.samples
    )


def _same_outcome(a, b) -> bool:
    """Bitwise-equal outcomes, down to each scalar's type (``repr``)."""
    return a.visible.values.tobytes() == b.visible.values.tobytes() and all(
        repr(getattr(a, name)) == repr(getattr(b, name))
        for name in (
            "extra_energy_kwh",
            "comfort_violation_fraction",
            "utility_distortion",
        )
    )


class TestDefenseLoopEquivalence:
    """The float tank, thermostat, CHPr controller and battery loops vs the
    numpy-scalar loops they replaced: the same power, temperatures, comfort
    counts, outcomes (scalar types included) and generator state."""

    def test_tank_step_matches_loop_on_edge_inputs(self):
        """``min``/``max`` clip the element power as ``np.clip`` did,
        signed zeros, infinities and NaN included."""
        requests = [0.0, -0.0, -5.0, 900.0, 4500.0, 9e9, np.inf, -np.inf, np.nan]
        for modulating in (False, True):
            config = WaterHeaterConfig(modulating=modulating)
            for request in requests:
                for draw in (0.0, 3.0, 500.0):
                    tank = WaterHeaterTank(config, initial_temp_c=45.0)
                    twin = WaterHeaterTank(config, initial_temp_c=45.0)
                    got = tank.step(60.0, draw, request)
                    want = tank_step_loop(twin, 60.0, draw, request)
                    case = (modulating, request, draw)
                    assert type(got) is type(want), case
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), case
                    temps = np.float64([tank.temp_c, twin.temp_c])
                    assert temps[:1].tobytes() == temps[1:].tobytes(), case
                    assert _same_tank(tank, twin), case
        tank = WaterHeaterTank(WaterHeaterConfig())
        with pytest.raises(ValueError, match="negative"):
            tank.step(60.0, -0.5, 0.0)
        with pytest.raises(ValueError, match="dt_s"):
            tank.step(0.0, 1.0, 0.0)

    @pytest.mark.parametrize("period_s", [60.0, 300.0])
    def test_thermostat_matches_loop(self, period_s):
        n = int(2 * 86400 / period_s)
        configs = [
            WaterHeaterConfig(),
            WaterHeaterConfig(modulating=True, deadband_c=1.0),
            WaterHeaterConfig(tank_liters=80.0, element_power_w=3000.0),
        ]
        for seed in range(3):
            rng = np.random.default_rng(seed)
            draws = np.where(rng.uniform(size=n) < 0.05, rng.uniform(0.0, 30.0, n), 0.0)
            for config in configs:
                # 57.0 sits exactly on the default tank's switch-on threshold
                for initial in (None, 38.0, 57.0):
                    power, tank = thermostat_power(draws, period_s, config, initial)
                    want, twin = thermostat_power_loop(draws, period_s, config, initial)
                    assert power.tobytes() == want.tobytes(), (seed, config)
                    assert _same_tank(tank, twin), (seed, config)
        draws[n // 2] = -1.0
        with pytest.raises(ValueError, match="negative"):
            thermostat_power(draws, period_s)

    @pytest.mark.parametrize("strength", [0.5, 1.0])
    def test_chpr_apply_matches_loop(self, defense_homes, strength):
        for seed, load in enumerate(defense_homes):
            defense = CHPrTraceDefense(strength=strength)
            twin = CHPrTraceDefense(strength=strength)
            rng, rng_twin = np.random.default_rng(seed), np.random.default_rng(seed)
            got = defense.apply(load, rng)
            want = chpr_apply_loop(twin, load, rng_twin)
            assert _same_outcome(got, want), seed
            assert type(got.extra_energy_kwh) is float
            temps = defense.last_controller.last_temps_c
            assert temps.tobytes() == twin.last_controller.last_temps_c.tobytes()
            assert _same_tank(defense.last_tank, twin.last_tank)
            assert rng.bit_generator.state == rng_twin.bit_generator.state

    def test_apply_chpr_matches_loop_on_fig6_home(self, monkeypatch):
        sim = simulate_home(fig6_home(), 2, rng=5)
        got = apply_chpr(sim, rng=105)
        monkeypatch.setattr(chpr_module, "thermostat_power", thermostat_power_loop)
        monkeypatch.setattr(CHPrController, "control", chpr_control_loop)
        want = apply_chpr(sim, rng=105)
        assert _same_outcome(got, want)
        assert got.comfort_violation_fraction == want.comfort_violation_fraction

    def test_preheating_controller_matches_loop(self, defense_homes):
        load = defense_homes[0]
        draws = CHPrTraceDefense()._draws(load)
        # short windows just after the retrofit schedule's draws end while
        # the tank is still below the preheat target, so both edges count
        config = CHPrConfig(
            preheat_hours=((7.25, 7.5), (12.0, 12.5), (21.1, 21.25)),
            preheat_buffer_c=18.0,
        )
        heater = WaterHeaterConfig()
        controller = CHPrController(heater, config, rng=3)
        twin = CHPrController(heater, config, rng=3)
        power, tank = controller.control(load, draws)
        want, twin_tank = chpr_control_loop(twin, load, draws)
        assert power.tobytes() == want.tobytes()
        assert controller.last_temps_c.tobytes() == twin.last_temps_c.tobytes()
        assert _same_tank(tank, twin_tank)
        assert controller._rng.bit_generator.state == twin._rng.bit_generator.state
        # the preheat windows changed the schedule: the preheat path ran
        plain, _ = CHPrController(heater, CHPrConfig(), rng=3).control(load, draws)
        assert not np.array_equal(power, plain)

    def test_battery_step_matches_loop(self):
        """Step by step: the same power and energy, and ``losses_wh`` in
        the type the numpy-scalar battery gave it, whichever of request,
        power limit and stored energy or room bounds each step."""
        rng = np.random.default_rng(0)
        configs = [
            BatteryConfig(),
            BatteryConfig(capacity_wh=20.0, max_charge_w=800.0),
            BatteryConfig(capacity_wh=20.0, initial_soc=1.0),
            BatteryConfig(capacity_wh=20.0, initial_soc=0.0, max_discharge_w=300.0),
            BatteryConfig(max_charge_w=50.0, max_discharge_w=50.0, efficiency=0.8),
        ]
        cases = [
            (configs[seed % len(configs)],
             (rng.normal(0.0, 600.0, 120) * (rng.uniform(size=120) < 0.9)).tolist())
            for seed in range(30)
        ]
        cases += [
            # discharges only: the losses stay a plain 0.0
            (BatteryConfig(), [0.0, 250.0, 40.0]),
            # every charge at the charge limit: a plain float
            (BatteryConfig(max_charge_w=50.0), [100.0, -400.0, 30.0, -90.0]),
            # a discharge, then a charge bounded by the room left
            (BatteryConfig(capacity_wh=20.0, initial_soc=1.0), [100.0, -5000.0]),
            # room-bounded charging while the energy is still a plain float:
            # from the start, after an empty battery bounded a discharge,
            # and after the discharge limit did
            (BatteryConfig(capacity_wh=20.0, initial_soc=1.0), [-5000.0, -10.0]),
            (BatteryConfig(capacity_wh=20.0, initial_soc=0.0, max_charge_w=600.0),
             [100.0, -5000.0, -5000.0, -5000.0]),
            (BatteryConfig(capacity_wh=20.0, initial_soc=1.0, max_discharge_w=50.0),
             [400.0, -5000.0]),
        ]
        typed = []
        for case, (config, requests) in enumerate(cases):
            battery, twin = Battery(config), BatteryLoop(config)
            for request in requests:
                got = battery.step(request, 60.0)
                want = twin.step(np.float64(request), 60.0)
                assert got == want, case
                assert battery.energy_wh == twin.energy_wh, case
                assert repr(battery.losses_wh) == repr(twin.losses_wh), case
            typed.append(type(battery.losses_wh))
        assert typed[-6:] == [float, float, np.float64, float, float, float]

    BATTERIES = [
        BatteryConfig(),
        # fills up: charge steps bounded by the room left
        BatteryConfig(capacity_wh=50.0),
        # every charge step bounded by the charge limit
        BatteryConfig(max_charge_w=5.0),
        # starts full: room-bounded charging before any sample bounds a step
        BatteryConfig(capacity_wh=200.0, initial_soc=1.0, max_charge_w=100.0),
    ]

    def test_battery_defenses_match_loop(self, defense_homes):
        flat = PowerTrace(np.full(1440, 1000.0), 60.0)
        on_grid = PowerTrace(np.tile([500.0, 1000.0, 1500.0, 500.0], 360), 60.0)
        losses = set()
        for load in [*defense_homes, flat, on_grid]:
            for config in self.BATTERIES:
                for defense, twin in (
                    (NILLDefense(config), nill_apply_loop),
                    (SteppedDefense(config), stepped_apply_loop),
                ):
                    got = defense.apply(load)
                    want = twin(defense, load)
                    assert _same_outcome(got, want), (defense.name, config)
                    extra = got.extra_energy_kwh
                    losses.add((type(extra), extra > 0.0))
        # both scalar types, and a Python float for a battery that charged
        # (only at its limit) as well as for one that never charged
        assert losses == {(np.float64, True), (float, True), (float, False)}

    @pytest.mark.parametrize("name", ["nill", "stepped"])
    @pytest.mark.parametrize("dial", [0.5, 1.0])
    def test_dialed_battery_defenses_match_loop(self, defense_homes, name, dial):
        twin = {"nill": nill_apply_loop, "stepped": stepped_apply_loop}[name]
        for load in defense_homes:
            defense = make_defense(f"{name}@{dial:g}")
            assert _same_outcome(defense.apply(load), twin(defense, load))


def _best_of_alternating(f, g, reps: int = 5) -> tuple[float, float]:
    """Best-of-``reps`` wall times of ``f`` and ``g``, timed rep by rep in
    turn, so a slow phase of a shared machine hits both sides alike
    instead of one whole block of reps."""
    best = [np.inf, np.inf]
    for _ in range(reps):
        for side, fn in enumerate((f, g)):
            t0 = time.perf_counter()
            fn()
            best[side] = min(best[side], time.perf_counter() - t0)
    return best[0], best[1]


def test_hmm_fit_decode_speedup_at_least_3x():
    """The headline perf pin: vectorized fit+decode >= 3x the loop baseline.

    Uses best-of-N wall times (machine noise between runs is real) on the
    NIOM-detector shape (2 states, ~1.4 days of minutes); the measured
    factor is ~4.5-5x, so 3x leaves headroom for a loaded CI box.
    """
    rng = np.random.default_rng(7)
    n, k = 2000, 2
    means = np.array([0.0, 500.0])
    states = np.zeros(n, dtype=int)
    for i in range(1, n):
        states[i] = states[i - 1] if rng.uniform() < 0.9 else rng.integers(k)
    X = (means[states] + rng.normal(0.0, 40.0, n)).reshape(-1, 1)

    def vectorized():
        model = GaussianHMM(k, n_iter=20, tol=0.0, rng=3)
        model.fit(X)
        return model.decode(X)

    def baseline():
        model = GaussianHMM(k, n_iter=20, tol=0.0, rng=3)
        fit_loop(model, X)
        return decode_loop(model, X)

    assert np.array_equal(vectorized(), baseline())
    t_vec, t_loop = _best_of_alternating(vectorized, baseline)
    speedup = t_loop / t_vec
    print(f"hmm fit+decode: loop {t_loop*1e3:.1f} ms, vec {t_vec*1e3:.1f} ms, "
          f"{speedup:.2f}x")
    assert speedup >= 3.0, f"fit+decode speedup {speedup:.2f}x < 3x"


def test_fhmm_decode_speedup_at_least_3x():
    """The FHMM perf pin: joint-space Viterbi >= 3x the loop baseline.

    5 chains x 3 states = 243 joint states over one day of minutes, so
    ``kernels.viterbi`` takes its bound-pruned path (a model under
    ``VITERBI_PRUNE_MIN_STATES`` joint states dispatches to the loop and
    would read 1x).  Best of 3; the measured factor is ~5-6x.
    """
    rng = np.random.default_rng(2)
    chains = []
    for power in (80.0, 150.0, 400.0, 1000.0, 4800.0):
        on = (rng.uniform(size=600) < 0.4).astype(float) * power
        signal = on + rng.normal(0.0, 15.0, 600)
        chains.append(fit_appliance_chain(signal, n_states=3, rng=1))
    fhmm = FactorialHMM(chains, noise_var=200.0)
    log_b = fhmm._emission_logprob(np.abs(rng.normal(900.0, 500.0, 1440)))
    log_pi = np.log(fhmm._startprob + 1e-300)
    log_a = np.log(fhmm._transmat + 1e-300)
    assert log_b.shape == (1440, 243)

    def vectorized():
        return kernels.viterbi(log_pi, log_a, log_b)

    def baseline():
        return kernels.viterbi_loop(log_pi, log_a, log_b)

    assert np.array_equal(vectorized(), baseline())
    t_vec, t_loop = _best_of_alternating(vectorized, baseline, reps=3)
    speedup = t_loop / t_vec
    print(f"fhmm decode: loop {t_loop*1e3:.1f} ms, vec {t_vec*1e3:.1f} ms, "
          f"{speedup:.2f}x")
    assert speedup >= 3.0, f"fhmm decode speedup {speedup:.2f}x < 3x"


def test_forest_fit_speedup_at_least_3x(lan_features):
    """The forest perf pin: split kernel fit >= 3x the loop-split fit.

    The fingerprinter's forest (20 trees, depth 10) on perfbench's small
    LAN: 216 windows x 12 features, 6 device types.  Best of 3; the
    measured factor is ~4-7x here and ~7-10x on the default LAN.
    """
    X, y = lan_features("small", 0)
    assert X.shape == (216, 12)

    def kernel():
        return RandomForestClassifier(n_trees=20, max_depth=10, rng=0).fit(X, y)

    def baseline():
        forest = RandomForestClassifier(n_trees=20, max_depth=10, rng=0)
        return forest_fit_loop(forest, X, y)

    t_kernel, t_loop = _best_of_alternating(kernel, baseline, reps=3)
    speedup = t_loop / t_kernel
    print(f"forest fit: loop {t_loop*1e3:.1f} ms, kernel {t_kernel*1e3:.1f} ms, "
          f"{speedup:.2f}x")
    assert speedup >= 3.0, f"forest fit speedup {speedup:.2f}x < 3x"


def test_device_window_features_speedup_at_least_2_5x(lan_logs):
    """The window-feature perf pin: the whole-log features >= 2.5x the
    per-window loop.

    perfbench's small one-day LAN, raw: 9 devices x 24 one-hour windows.
    Best of 3; the measured factor is ~3-3.5x.
    """
    sim, log = lan_logs("small", 0)

    def kernel():
        return device_window_features(log, sim.duration_s, 3600.0, sim.devices)

    def baseline():
        return device_window_features_loop(log, sim.duration_s, 3600.0, sim.devices)

    assert _same_features(kernel(), baseline())
    t_kernel, t_loop = _best_of_alternating(kernel, baseline, reps=3)
    speedup = t_loop / t_kernel
    print(f"window features: loop {t_loop*1e3:.1f} ms, kernel {t_kernel*1e3:.1f} ms, "
          f"{speedup:.2f}x")
    assert speedup >= 2.5, f"window features speedup {speedup:.2f}x < 2.5x"


@pytest.mark.parametrize("shaper", [HeartbeatJitter(0.8), FlowMerging(1.0)])
def test_jitter_and_merge_speedup_at_least_10x(lan_logs, shaper):
    """The shaper perf pin: columnar heartbeat jitter and flow merging each
    >= 10x their per-flow loops.

    perfbench's small one-day LAN, raw, at the dial-1 strengths.  Best of
    3; the measured factor is over 50x for both.
    """
    sim, log = lan_logs("small", 0)
    loop = {HeartbeatJitter: jitter_shape_loop, FlowMerging: merge_shape_loop}

    def columnar():
        return shaper.shape(log, sim.devices, sim.duration_s, 0)

    def baseline():
        return loop[type(shaper)](shaper, log, sim.devices, sim.duration_s, 0)

    assert flow_log_digest(columnar()[0]) == flow_log_digest_loop(baseline()[0])
    t_columnar, t_loop = _best_of_alternating(columnar, baseline, reps=3)
    speedup = t_loop / t_columnar
    name = type(shaper).__name__
    print(f"{name}: loop {t_loop*1e3:.1f} ms, columnar {t_columnar*1e3:.1f} ms, "
          f"{speedup:.2f}x")
    assert speedup >= 10.0, f"{name} speedup {speedup:.2f}x < 10x"


def test_chpr_apply_speedup_at_least_2_5x():
    """The CHPr perf pin: the float controller and thermostat >= 2.5x the
    numpy-scalar loops, through ``CHPrTraceDefense.apply``.

    One 3-day ``random`` home, the ``sweep`` benchmark's shape.  Best of 3;
    the measured factor is ~3.3-4.3x, so 2.5x leaves room for a loaded box.
    """
    (load,) = _sweep_homes(1, 3)

    def kernel():
        return CHPrTraceDefense().apply(load, 0)

    def baseline():
        return chpr_apply_loop(CHPrTraceDefense(), load, 0)

    assert _same_outcome(kernel(), baseline())
    t_kernel, t_loop = _best_of_alternating(kernel, baseline, reps=3)
    speedup = t_loop / t_kernel
    print(f"chpr apply: loop {t_loop*1e3:.1f} ms, kernel {t_kernel*1e3:.1f} ms, "
          f"{speedup:.2f}x")
    assert speedup >= 2.5, f"chpr apply speedup {speedup:.2f}x < 2.5x"
