"""Random forest classifier built from the CART trees in :mod:`.tree`."""

from __future__ import annotations

import math

import numpy as np

from .preprocessing import check_features, check_xy
from .tree import DecisionTreeClassifier, _check_params


class RandomForestClassifier:
    """Bagged ensemble of decision trees with per-split feature subsampling.

    Parameters
    ----------
    n_trees:
        Ensemble size.
    max_depth / min_samples_split:
        Passed to each tree.
    max_features:
        Features per split; default ``sqrt(n_features)``.
    rng:
        Seed or Generator; bootstrap and feature sampling both derive
        from it, so fits are reproducible.
    """

    def __init__(
        self,
        n_trees: int = 25,
        max_depth: int = 12,
        min_samples_split: int = 2,
        max_features: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        _check_params(max_depth, min_samples_split, max_features)
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self._rng = np.random.default_rng(rng)
        self.trees_: list[DecisionTreeClassifier] = []
        self.classes_: np.ndarray | None = None

    def fit(self, X, y) -> "RandomForestClassifier":
        X, y = check_xy(X, y)
        self.classes_ = np.unique(y)
        n, d = X.shape
        max_features = self.max_features
        if max_features is None:
            max_features = max(1, int(math.sqrt(d)))
        self.trees_ = []
        for _ in range(self.n_trees):
            idx = self._rng.integers(n, size=n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                max_features=max_features,
                rng=self._rng.integers(2**31),
            )
            tree.fit(X[idx], y[idx])
            self.trees_.append(tree)
        return self

    def predict_proba(self, X) -> np.ndarray:
        if not self.trees_:
            raise RuntimeError("forest is not fitted")
        X = check_features(X)
        total = np.zeros((len(X), len(self.classes_)))
        class_pos = {c: i for i, c in enumerate(self.classes_.tolist())}
        for tree in self.trees_:
            proba = tree.predict_proba(X)
            for j, c in enumerate(tree.classes_.tolist()):
                total[:, class_pos[c]] += proba[:, j]
        return total / len(self.trees_)

    def predict(self, X):
        proba = self.predict_proba(X)
        return self.classes_[proba.argmax(axis=1)]
