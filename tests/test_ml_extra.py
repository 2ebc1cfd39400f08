"""Additional ML substrate tests: boundaries, determinism, and robustness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    DecisionTreeClassifier,
    FactorialHMM,
    GaussianHMM,
    LogisticRegression,
    RandomForestClassifier,
    StandardScaler,
    accuracy,
)
from repro.ml.preprocessing import check_features, check_xy


class TestInputValidation:
    def test_check_features_rejects_nan(self):
        with pytest.raises(ValueError):
            check_features([[1.0, float("nan")]])

    def test_check_features_rejects_empty(self):
        with pytest.raises(ValueError):
            check_features(np.zeros((0, 3)))

    def test_check_features_promotes_1d(self):
        assert check_features([1.0, 2.0]).shape == (2, 1)

    def test_check_xy_length_mismatch(self):
        with pytest.raises(ValueError):
            check_xy(np.zeros((3, 2)), [0, 1])

    def test_logistic_single_class_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((5, 1)), [1, 1, 1, 1, 1])

    def test_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ValueError):
            RandomForestClassifier(n_trees=0)
        with pytest.raises(ValueError):
            GaussianHMM(0)
        # refused when built: max_features=0 would sample no feature (a
        # one-leaf tree) and a forest used to read it as sqrt(d)
        for model in (DecisionTreeClassifier, RandomForestClassifier):
            for bad in (0, -2):
                with pytest.raises(ValueError, match="max_features"):
                    model(max_features=bad)
        with pytest.raises(ValueError, match="max_depth must be >= 1"):
            RandomForestClassifier(max_depth=0)
        with pytest.raises(ValueError, match="min_samples_split must be >= 2"):
            RandomForestClassifier(min_samples_split=1)


class TestDeterminism:
    def test_forest_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(int)
        a = RandomForestClassifier(n_trees=5, rng=11).fit(X, y).predict(X)
        b = RandomForestClassifier(n_trees=5, rng=11).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_hmm_fit_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        obs = np.concatenate([rng.normal(0, 1, 200), rng.normal(8, 1, 200)]).reshape(-1, 1)
        a = GaussianHMM(2, rng=3).fit(obs).means_
        b = GaussianHMM(2, rng=3).fit(obs).means_
        assert np.allclose(a, b)


class TestRobustness:
    def test_tree_handles_constant_features(self):
        X = np.ones((50, 3))
        X[:, 0] = np.arange(50)
        y = (X[:, 0] > 25).astype(int)
        tree = DecisionTreeClassifier().fit(X, y)
        assert accuracy(y, tree.predict(X)) == 1.0

    def test_scaler_then_logistic_on_shifted_data(self):
        rng = np.random.default_rng(4)
        X = rng.normal(1e6, 10.0, size=(200, 2))
        y = (X[:, 0] > 1e6).astype(int)
        scaler = StandardScaler()
        model = LogisticRegression().fit(scaler.fit_transform(X), y)
        assert accuracy(y, model.predict(scaler.transform(X))) > 0.9

    def test_fhmm_noise_var_validation(self):
        chain = GaussianHMM(2)
        chain.set_parameters(
            np.asarray([0.5, 0.5]),
            np.asarray([[0.9, 0.1], [0.1, 0.9]]),
            np.asarray([[0.0], [100.0]]),
            np.asarray([[1.0], [1.0]]),
        )
        with pytest.raises(ValueError):
            FactorialHMM([chain], noise_var=0.0)

    def test_hmm_sample_reproducible(self):
        chain = GaussianHMM(2)
        chain.set_parameters(
            np.asarray([0.5, 0.5]),
            np.asarray([[0.9, 0.1], [0.1, 0.9]]),
            np.asarray([[0.0], [10.0]]),
            np.asarray([[1.0], [1.0]]),
        )
        a, sa = chain.sample(50, rng=5)
        b, sb = chain.sample(50, rng=5)
        assert np.array_equal(sa, sb)
        assert np.allclose(a, b)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_tree_never_exceeds_max_depth_property(max_depth, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(80, 4))
    y = rng.integers(0, 3, 80)
    tree = DecisionTreeClassifier(max_depth=max_depth).fit(X, y)
    assert tree.depth() <= max_depth


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=25, deadline=None)
def test_scaler_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(rng.uniform(-100, 100), rng.uniform(0.5, 50), size=(60, 3))
    scaler = StandardScaler().fit(X)
    Z = scaler.transform(X)
    recovered = Z * scaler.scale_ + scaler.mean_
    assert np.allclose(recovered, X, atol=1e-8)
