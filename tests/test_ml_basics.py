"""Tests for the metrics, preprocessing, and tabular classifiers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    DecisionTreeClassifier,
    KMeans,
    LogisticRegression,
    RandomForestClassifier,
    StandardScaler,
    accuracy,
    binary_counts,
    f1_score,
    macro_f1,
    mcc,
    precision,
    recall,
)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_perfect_prediction(self):
        y = [0, 1, 0, 1, 1]
        assert accuracy(y, y) == 1.0
        assert mcc(y, y) == pytest.approx(1.0)
        assert f1_score(y, y) == 1.0

    def test_always_wrong_mcc(self):
        y = [0, 1, 0, 1]
        flipped = [1, 0, 1, 0]
        assert mcc(y, flipped) == pytest.approx(-1.0)

    def test_constant_prediction_mcc_zero(self):
        y = [0, 1, 0, 1]
        assert mcc(y, [1, 1, 1, 1]) == 0.0
        assert mcc(y, [0, 0, 0, 0]) == 0.0

    def test_mcc_known_value(self):
        # tp=4 fp=1 tn=3 fn=2 -> mcc = (12-2)/sqrt(5*6*4*5)
        y_true = [1, 1, 1, 1, 1, 1, 0, 0, 0, 0]
        y_pred = [1, 1, 1, 1, 0, 0, 0, 0, 0, 1]
        expected = (4 * 3 - 1 * 2) / np.sqrt(5 * 6 * 4 * 5)
        assert mcc(y_true, y_pred) == pytest.approx(expected)

    def test_binary_counts(self):
        c = binary_counts([1, 1, 0, 0], [1, 0, 1, 0])
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)

    def test_precision_recall(self):
        y_true = [1, 1, 0, 0]
        y_pred = [1, 1, 1, 0]
        assert precision(y_true, y_pred) == pytest.approx(2 / 3)
        assert recall(y_true, y_pred) == 1.0

    def test_zero_division_conventions(self):
        assert precision([0, 0], [0, 0]) == 0.0
        assert recall([0, 0], [0, 0]) == 0.0
        assert f1_score([0, 0], [0, 0]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 0])

    def test_macro_f1_multiclass(self):
        y = ["x", "y", "z", "x"]
        assert macro_f1(y, y) == 1.0


@given(st.lists(st.sampled_from([0, 1]), min_size=2, max_size=60))
@settings(max_examples=60, deadline=None)
def test_mcc_bounded_property(y_true):
    rng = np.random.default_rng(sum(y_true) + len(y_true))
    y_pred = rng.integers(0, 2, len(y_true))
    value = mcc(y_true, y_pred)
    assert -1.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------
class TestPreprocessing:
    def test_scaler_zero_mean_unit_var(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5.0, 3.0, size=(200, 3))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_scaler_constant_feature_safe(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        Z = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))

    def test_scaler_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform([[1.0]])

    def test_scaler_wrong_width_raises(self):
        scaler = StandardScaler().fit(np.zeros((5, 2)))
        with pytest.raises(ValueError):
            scaler.transform(np.zeros((5, 3)))


# ---------------------------------------------------------------------------
# Classifiers — all should nail a well-separated 3-class blob problem
# ---------------------------------------------------------------------------
def blob_data(rng_seed=0, n_per_class=60):
    rng = np.random.default_rng(rng_seed)
    centers = np.asarray([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    X = np.vstack([rng.normal(c, 1.0, size=(n_per_class, 2)) for c in centers])
    y = np.repeat([0, 1, 2], n_per_class)
    return X, y


CLASSIFIERS = [
    lambda: DecisionTreeClassifier(max_depth=8),
    lambda: RandomForestClassifier(n_trees=10, rng=0),
    lambda: LogisticRegression(),
]


@pytest.mark.parametrize("factory", CLASSIFIERS, ids=lambda f: type(f()).__name__)
def test_classifier_separable_blobs(factory):
    X, y = blob_data()
    order = np.random.default_rng(1).permutation(len(X))
    n_test = round(len(X) * 0.3)
    test, train = order[:n_test], order[n_test:]
    model = factory().fit(X[train], y[train])
    assert accuracy(y[test], model.predict(X[test])) >= 0.95


@pytest.mark.parametrize("factory", CLASSIFIERS, ids=lambda f: type(f()).__name__)
def test_classifier_proba_sums_to_one(factory):
    X, y = blob_data(1)
    model = factory().fit(X, y)
    proba = model.predict_proba(X[:10])
    assert proba.shape == (10, 3)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(proba >= 0.0)


@pytest.mark.parametrize("factory", CLASSIFIERS, ids=lambda f: type(f()).__name__)
def test_classifier_unfitted_raises(factory):
    with pytest.raises(RuntimeError):
        factory().predict([[0.0, 0.0]])


class TestTreeSpecifics:
    def test_pure_node_is_leaf(self):
        X = np.asarray([[0.0], [1.0], [2.0]])
        y = np.asarray([7, 7, 7])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.depth() == 0
        assert list(tree.predict([[5.0]])) == [7]

    def test_max_depth_respected(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(200, 3))
        y = (X[:, 0] + X[:, 1] + X[:, 2] > 1.5).astype(int)
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert tree.depth() <= 3

    def test_xor_needs_depth_two(self):
        X = np.asarray([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        X = np.repeat(X, 20, axis=0)
        y = (X[:, 0] != X[:, 1]).astype(int)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert accuracy(y, tree.predict(X)) == 1.0


class TestKMeans:
    def test_recovers_separated_clusters(self):
        X, y = blob_data(3)
        km = KMeans(3, rng=0).fit(X)
        labels = km.predict(X)
        # cluster labels are arbitrary; check purity instead
        purity = 0
        for k in range(3):
            members = y[labels == k]
            if len(members):
                purity += np.bincount(members).max()
        assert purity / len(y) >= 0.95

    def test_k_greater_than_n_raises(self):
        with pytest.raises(ValueError):
            KMeans(5).fit(np.zeros((3, 2)))

    def test_deterministic_given_seed(self):
        X, _ = blob_data(4)
        a = KMeans(3, rng=42).fit(X).centroids_
        b = KMeans(3, rng=42).fit(X).centroids_
        assert np.allclose(a, b)

    def test_single_cluster_centroid_is_mean(self):
        X = np.arange(10.0).reshape(-1, 1)
        km = KMeans(1, rng=0).fit(X)
        assert km.centroids_[0, 0] == pytest.approx(4.5)
