"""Feature preprocessing utilities shared by the classifiers."""

from __future__ import annotations

import numpy as np


def check_features(X) -> np.ndarray:
    """Validate and convert a feature matrix to float64 ``(n, d)``."""
    array = np.asarray(X, dtype=float)
    if array.ndim == 1:
        array = array.reshape(-1, 1)
    if array.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {array.shape}")
    if array.shape[0] == 0:
        raise ValueError("feature matrix has zero rows")
    if not np.all(np.isfinite(array)):
        raise ValueError("feature matrix contains non-finite values")
    return array


def check_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate a (features, labels) pair."""
    X = check_features(X)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {y.shape}")
    if len(y) != len(X):
        raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
    return X, y


class StandardScaler:
    """Zero-mean, unit-variance feature scaling.

    Constant features are left centred but unscaled (divisor clamped to 1)
    so they do not blow up into NaNs.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X) -> "StandardScaler":
        X = check_features(X)
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale < 1e-12] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("scaler is not fitted")
        X = check_features(X)
        if X.shape[1] != len(self.mean_):
            raise ValueError(
                f"expected {len(self.mean_)} features, got {X.shape[1]}"
            )
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)

