"""CART-style decision tree classifier.

Used by the smart-gateway device fingerprinting attack/defense (Sec. IV):
flow-level features are tabular and heterogeneous, which trees handle well
without feature scaling.

A fitted tree is a set of flat node arrays in depth-first preorder (left
subtree first): ``_feature``/``_threshold`` route a row left when
``x[feature] <= threshold``, ``_left``/``_right`` hold child ids (-1 at a
leaf) and ``_counts`` the class counts of the training rows each node
received.  The split search scores every cut of every sampled feature with
array operations; ``repro.ml._reference`` keeps the original one-position-
at-a-time loop and per-row walk it must match bitwise.
"""

from __future__ import annotations

import numpy as np

from .preprocessing import check_features, check_xy


def _check_params(
    max_depth: int, min_samples_split: int, max_features: int | None
) -> None:
    """Refuse tree hyperparameters no fit could honour (the forest's too)."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if min_samples_split < 2:
        raise ValueError("min_samples_split must be >= 2")
    if max_features is not None and max_features < 1:
        raise ValueError("max_features must be None or >= 1")


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - (p * p).sum())


def _gini_rows(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """``_gini`` of every class-count row, with the same float operations.

    ``sum(axis=-1)`` runs numpy's 1-D summation on each row, so it matches
    ``_gini``'s ``sum()`` at any class count; folding the class columns one
    by one does not, from 8 classes on (``docs/PERFORMANCE.md`` §3).
    """
    p = counts / totals
    return 1.0 - (p * p).sum(axis=-1)


class DecisionTreeClassifier:
    """Binary CART tree with Gini impurity splits.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root is depth 0).
    min_samples_split:
        Do not split nodes smaller than this.
    max_features:
        If set, the number of features examined per split, sampled uniformly
        without replacement (used by the random forest).
    rng:
        Seed or Generator for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_split: int = 2,
        max_features: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        _check_params(max_depth, min_samples_split, max_features)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self._rng = np.random.default_rng(rng)
        self.classes_: np.ndarray | None = None
        self._feature: np.ndarray | None = None
        self._threshold: np.ndarray | None = None
        self._left: np.ndarray | None = None
        self._right: np.ndarray | None = None
        self._counts: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _best_split(
        self, X: np.ndarray, y_idx: np.ndarray, n_classes: int
    ) -> tuple[int, float, float] | None:
        """Best (feature, threshold, impurity_decrease) or None.

        Sorts each sampled feature once; a cumulative sum of one-hot class
        rows then gives the left class counts at every cut, and the parent
        counts minus those the right ones, so every cut is scored at once.
        Zero-gain splits are allowed (CART convention): XOR-style
        interactions have zero marginal gain at the root yet separate
        perfectly one level down.
        """
        n, d = X.shape
        parent_counts = np.bincount(y_idx, minlength=n_classes)
        parent_gini = _gini(parent_counts)
        if self.max_features is not None and self.max_features < d:
            features = self._rng.choice(d, size=self.max_features, replace=False)
        else:
            features = np.arange(d)
        if n < 2 or len(features) == 0:
            return None
        columns = X[:, features]
        order = np.argsort(columns, axis=0, kind="stable")
        sampled = np.arange(len(features))
        xs = columns[order, sampled]
        # cut i lies between sorted positions i and i + 1: (cuts, features, classes)
        left = np.cumsum(y_idx[order[:-1]][..., None] == np.arange(n_classes), axis=0)
        n_left = np.arange(1, n)[:, None]
        n_right = n - n_left
        gain = parent_gini - (
            n_left / n * _gini_rows(left, n_left[..., None])
            + n_right / n * _gini_rows(parent_counts - left, n_right[..., None])
        )
        gain[xs[:-1] == xs[1:]] = -np.inf  # no cut between equal values
        # argmax takes the first maximum: the first cut within a feature,
        # then the first feature in sampled order, as a strict `>` scan does
        cut = gain.argmax(axis=0)
        best = gain[cut, sampled]
        j = int(best.argmax())
        if best[j] == -np.inf:
            return None
        i = cut[j]
        return int(features[j]), float((xs[i, j] + xs[i + 1, j]) / 2.0), float(best[j])

    def _build(
        self, X: np.ndarray, y_idx: np.ndarray, depth: int, n_classes: int, nodes: list
    ) -> int:
        """Grow the subtree over these rows into ``nodes``; returns its id.

        Depth first, left subtree first: the order in which the splits
        draw their features from the generator.
        """
        counts = np.bincount(y_idx, minlength=n_classes)
        node = len(nodes)
        nodes.append([-1, 0.0, -1, -1, counts])
        if (
            depth >= self.max_depth
            or len(y_idx) < self.min_samples_split
            or counts.max() == len(y_idx)
        ):
            return node
        split = self._best_split(X, y_idx, n_classes)
        if split is None:
            return node
        feature, threshold, _ = split
        mask = X[:, feature] <= threshold
        if mask.all() or not mask.any():
            return node
        left = self._build(X[mask], y_idx[mask], depth + 1, n_classes, nodes)
        right = self._build(X[~mask], y_idx[~mask], depth + 1, n_classes, nodes)
        nodes[node][:4] = feature, threshold, left, right
        return node

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = check_xy(X, y)
        self.classes_, y_idx = np.unique(y, return_inverse=True)
        nodes: list = []
        self._build(X, y_idx, depth=0, n_classes=len(self.classes_), nodes=nodes)
        feature, threshold, left, right, counts = zip(*nodes)
        self._feature = np.array(feature, dtype=np.intp)
        self._threshold = np.array(threshold, dtype=float)
        self._left = np.array(left, dtype=np.intp)
        self._right = np.array(right, dtype=np.intp)
        self._counts = np.array(counts)
        return self

    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self._left is None:
            raise RuntimeError("tree is not fitted")

    def _leaves(self, X: np.ndarray) -> np.ndarray:
        """The leaf each row lands in: all rows step down a level at a time."""
        node = np.zeros(len(X), dtype=np.intp)
        rows = np.arange(len(X))
        while True:
            at = node[rows]
            inner = self._left[at] >= 0
            if not inner.any():
                return node
            rows, at = rows[inner], at[inner]
            go_left = X[rows, self._feature[at]] <= self._threshold[at]
            node[rows] = np.where(go_left, self._left[at], self._right[at])

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        X = check_features(X)
        counts = self._counts[self._leaves(X)]
        return counts / counts.sum(axis=1, keepdims=True)

    def predict(self, X):
        proba = self.predict_proba(X)
        return self.classes_[proba.argmax(axis=1)]

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        self._check_fitted()
        depth = np.zeros(len(self._left), dtype=int)
        # preorder ids: a parent's depth is set before its children read it
        for node in np.flatnonzero(self._left >= 0):
            depth[self._left[node]] = depth[self._right[node]] = depth[node] + 1
        return int(depth.max())
