"""Logistic regression (binary and one-vs-rest multiclass)."""

from __future__ import annotations

import numpy as np

from .preprocessing import check_features, check_xy


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


#: Gradient-descent step size, iterations and L2 penalty.
_LR = 0.5
_N_ITER = 400
_L2 = 1e-3


class LogisticRegression:
    """L2-regularized logistic regression trained by full-batch gradient descent.

    Multiclass problems are handled one-vs-rest.  Inputs should be scaled
    (see :class:`repro.ml.preprocessing.StandardScaler`) for fast convergence.
    """

    def __init__(self) -> None:
        self.classes_: np.ndarray | None = None
        self.weights_: np.ndarray | None = None  # (n_classes_or_1, d + 1)

    def _fit_binary(self, X: np.ndarray, y01: np.ndarray) -> np.ndarray:
        n, d = X.shape
        Xb = np.hstack([X, np.ones((n, 1))])
        w = np.zeros(d + 1)
        for _ in range(_N_ITER):
            p = _sigmoid(Xb @ w)
            grad = Xb.T @ (p - y01) / n + _L2 * np.r_[w[:-1], 0.0]
            w -= _LR * grad
        return w

    def fit(self, X, y) -> "LogisticRegression":
        X, y = check_xy(X, y)
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise ValueError("need at least two classes")
        rows = []
        if len(self.classes_) == 2:
            rows.append(self._fit_binary(X, (y == self.classes_[1]).astype(float)))
        else:
            for c in self.classes_:
                rows.append(self._fit_binary(X, (y == c).astype(float)))
        self.weights_ = np.vstack(rows)
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self.weights_ is None:
            raise RuntimeError("model is not fitted")
        X = check_features(X)
        Xb = np.hstack([X, np.ones((len(X), 1))])
        scores = _sigmoid(Xb @ self.weights_.T)
        if len(self.classes_) == 2:
            p1 = scores[:, 0]
            return np.column_stack([1.0 - p1, p1])
        return scores / scores.sum(axis=1, keepdims=True)

    def predict(self, X):
        proba = self.predict_proba(X)
        return self.classes_[proba.argmax(axis=1)]
