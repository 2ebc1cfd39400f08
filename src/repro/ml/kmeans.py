"""Lloyd's k-means with k-means++ initialization.

Used by the clustering NIOM detector (two clusters: occupied features vs.
unoccupied features) and to initialise the Gaussian HMM's states.
"""

from __future__ import annotations

import numpy as np

from .preprocessing import check_features

#: Independent restarts; the run with the lowest inertia wins.
_N_INIT = 4
#: Lloyd iterations per restart.
_MAX_ITER = 100
#: Convergence threshold on total centroid movement.
_TOL = 1e-6


class KMeans:
    """k-means clustering.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    rng:
        Seed or numpy Generator; all randomness flows through it.
    """

    def __init__(
        self,
        n_clusters: int,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        self.n_clusters = n_clusters
        self._rng = np.random.default_rng(rng)
        self.centroids_: np.ndarray | None = None
        self.inertia_: float = float("inf")

    # ------------------------------------------------------------------
    def _init_centroids(self, X: np.ndarray) -> np.ndarray:
        """k-means++ seeding: spread initial centroids apart."""
        n = len(X)
        centroids = np.empty((self.n_clusters, X.shape[1]))
        centroids[0] = X[self._rng.integers(n)]
        closest_sq = np.full(n, np.inf)
        for k in range(1, self.n_clusters):
            dist_sq = ((X - centroids[k - 1]) ** 2).sum(axis=1)
            closest_sq = np.minimum(closest_sq, dist_sq)
            total = closest_sq.sum()
            if total <= 0:
                centroids[k:] = X[self._rng.integers(n, size=self.n_clusters - k)]
                break
            probs = closest_sq / total
            centroids[k] = X[self._rng.choice(n, p=probs)]
        return centroids

    @staticmethod
    def _assign(X: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, float]:
        dists = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = dists.argmin(axis=1)
        inertia = float(dists[np.arange(len(X)), labels].sum())
        return labels, inertia

    def fit(self, X) -> "KMeans":
        X = check_features(X)
        if len(X) < self.n_clusters:
            raise ValueError(
                f"need at least {self.n_clusters} samples, got {len(X)}"
            )
        best_inertia = float("inf")
        best_centroids: np.ndarray | None = None
        for _ in range(_N_INIT):
            centroids = self._init_centroids(X)
            for _ in range(_MAX_ITER):
                labels, _ = self._assign(X, centroids)
                new_centroids = centroids.copy()
                for k in range(self.n_clusters):
                    members = X[labels == k]
                    if len(members):
                        new_centroids[k] = members.mean(axis=0)
                movement = float(np.abs(new_centroids - centroids).sum())
                centroids = new_centroids
                if movement < _TOL:
                    break
            _, inertia = self._assign(X, centroids)
            if inertia < best_inertia:
                best_inertia = inertia
                best_centroids = centroids
        self.centroids_ = best_centroids
        self.inertia_ = best_inertia
        return self

    def predict(self, X) -> np.ndarray:
        if self.centroids_ is None:
            raise RuntimeError("KMeans is not fitted")
        X = check_features(X)
        labels, _ = self._assign(X, self.centroids_)
        return labels
