"""Loop baselines for the HMM and the CART tree and forest.

:mod:`repro.ml.kernels` keeps each vectorized kernel next to its original
loop implementation (``estep_loop``, ``viterbi_loop``, ``log_gaussian_loop``,
``joint_chain_params_loop``).  This module wires those loop kernels into
whole-model baselines — a Baum-Welch fit and a Viterbi decode that match
the pre-vectorization :class:`repro.ml.hmm.GaussianHMM` — so equivalence
tests and benchmarks can compare end-to-end model behaviour, not just
individual kernels (see ``docs/PERFORMANCE.md``).  It also keeps the
original CART split search (:func:`best_split_loop`, one Python step per
sorted position), the forest fit built on it (:func:`forest_fit_loop`), and
the per-row tree walk (:func:`tree_proba_loop`).

Contract: with the same seed and data, :func:`fit_loop` must reach
parameters within 1e-9 of the production :meth:`GaussianHMM.fit` (the
E-step scan reorders float additions; everything else is identical), and
:func:`decode_loop` must return a bitwise-identical state path.  The tree
baselines are bitwise: the same split triples, node arrays, probabilities
and generator state as :class:`DecisionTreeClassifier` and
:class:`RandomForestClassifier`.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .forest import RandomForestClassifier
from .hmm import _LOG_EPS, _MIN_VAR, GaussianHMM
from .preprocessing import check_features, check_xy
from .tree import DecisionTreeClassifier, _gini


def fit_loop(model: GaussianHMM, X) -> GaussianHMM:
    """Original (pre-vectorization) Baum-Welch fit of ``GaussianHMM``.

    Identical to :meth:`GaussianHMM.fit` except the E-step runs the
    per-sample forward/backward loop and the M-step accumulates variances
    with a per-state loop.  Consumes the model RNG exactly as ``fit`` does
    (k-means initialization only).
    """
    X = check_features(X)
    if len(X) < 2 * model.n_states:
        raise ValueError("sequence too short to fit HMM")
    if model.transmat_ is None:
        model._init_from_kmeans(X)
    prev_ll = -np.inf
    n = len(X)
    for _ in range(model.n_iter):
        log_b = kernels.log_gaussian_loop(X, model.means_, model.variances_)
        shift = log_b.max(axis=1)
        b = np.exp(log_b - shift[:, None])
        gamma, xi_sum, ll_base = kernels.estep_loop(
            model.startprob_, model.transmat_, b
        )
        ll = float(ll_base + shift.sum())

        model.startprob_ = gamma[0] / gamma[0].sum()
        transmat = xi_sum / np.maximum(xi_sum.sum(axis=1, keepdims=True), _LOG_EPS)
        transmat = np.maximum(transmat, 1e-8)
        model.transmat_ = transmat / transmat.sum(axis=1, keepdims=True)

        weights = gamma.sum(axis=0)
        means = (gamma.T @ X) / np.maximum(weights[:, None], _LOG_EPS)
        variances = np.empty_like(means)
        for k in range(model.n_states):
            diff = X - means[k]
            variances[k] = (gamma[:, k : k + 1] * diff * diff).sum(axis=0) / max(
                weights[k], _LOG_EPS
            )
        model.means_ = means
        model.variances_ = np.maximum(variances, _MIN_VAR)

        if ll - prev_ll < model.tol * n and np.isfinite(prev_ll):
            break
        prev_ll = ll
    return model


def decode_loop(model: GaussianHMM, X) -> np.ndarray:
    """Original Viterbi decode: loop emissions + loop trellis."""
    model._check_fitted()
    X = check_features(X)
    log_b = kernels.log_gaussian_loop(X, model.means_, model.variances_)
    log_pi = np.log(model.startprob_ + _LOG_EPS)
    log_a = np.log(model.transmat_ + _LOG_EPS)
    return kernels.viterbi_loop(log_pi, log_a, log_b)


def posterior_loop(model: GaussianHMM, X) -> np.ndarray:
    """Original forward/backward posterior via the loop E-step."""
    model._check_fitted()
    X = check_features(X)
    log_b = kernels.log_gaussian_loop(X, model.means_, model.variances_)
    shift = log_b.max(axis=1)
    b = np.exp(log_b - shift[:, None])
    gamma, _, _ = kernels.estep_loop(
        model.startprob_, model.transmat_, b, want_xi=False
    )
    return gamma


def best_split_loop(
    tree: DecisionTreeClassifier, X: np.ndarray, y_idx: np.ndarray, n_classes: int
) -> tuple[int, float, float] | None:
    """Original CART split search: two ``_gini`` calls per sorted position.

    Identical to :meth:`DecisionTreeClassifier._best_split`, and draws the
    sampled features from ``tree``'s generator exactly as it does.
    """
    n, d = X.shape
    parent_counts = np.bincount(y_idx, minlength=n_classes)
    parent_gini = _gini(parent_counts)
    if tree.max_features is not None and tree.max_features < d:
        features = tree._rng.choice(d, size=tree.max_features, replace=False)
    else:
        features = np.arange(d)
    best: tuple[int, float, float] | None = None
    for f in features:
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y_idx[order]
        left_counts = np.zeros(n_classes)
        right_counts = parent_counts.astype(float).copy()
        for i in range(n - 1):
            c = ys[i]
            left_counts[c] += 1
            right_counts[c] -= 1
            if xs[i] == xs[i + 1]:
                continue
            n_left = i + 1
            n_right = n - n_left
            gain = parent_gini - (
                n_left / n * _gini(left_counts) + n_right / n * _gini(right_counts)
            )
            # zero-gain splits are allowed (CART convention): XOR-style
            # interactions have zero marginal gain at the root yet separate
            # perfectly one level down
            if best is None or gain > best[2]:
                best = (int(f), float((xs[i] + xs[i + 1]) / 2.0), float(gain))
    return best


class LoopSplitTree(DecisionTreeClassifier):
    """A :class:`DecisionTreeClassifier` whose splits come from the loop."""

    def _best_split(self, X, y_idx, n_classes):
        return best_split_loop(self, X, y_idx, n_classes)


def forest_fit_loop(forest: RandomForestClassifier, X, y) -> RandomForestClassifier:
    """:meth:`RandomForestClassifier.fit` with every split found by the loop.

    Draws the bootstraps and tree seeds from the forest's generator exactly
    as ``fit`` does.
    """
    X, y = check_xy(X, y)
    forest.classes_ = np.unique(y)
    n, d = X.shape
    max_features = forest.max_features
    if max_features is None:
        max_features = max(1, int(math.sqrt(d)))
    forest.trees_ = []
    for _ in range(forest.n_trees):
        idx = forest._rng.integers(n, size=n)
        tree = LoopSplitTree(
            max_depth=forest.max_depth,
            min_samples_split=forest.min_samples_split,
            max_features=max_features,
            rng=forest._rng.integers(2**31),
        )
        tree.fit(X[idx], y[idx])
        forest.trees_.append(tree)
    return forest


def tree_proba_loop(tree: DecisionTreeClassifier, X) -> np.ndarray:
    """Original ``predict_proba``: each row walks down from the root alone."""
    tree._check_fitted()
    X = check_features(X)
    out = np.empty((len(X), len(tree.classes_)))
    for i, x in enumerate(X):
        node = 0
        while tree._left[node] >= 0:
            if x[tree._feature[node]] <= tree._threshold[node]:
                node = tree._left[node]
            else:
                node = tree._right[node]
        counts = tree._counts[node]
        out[i] = counts / counts.sum()
    return out

