"""k-nearest-neighbor regression on standardized features."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, InvalidInputError
from .base import FAMILY_KNN, Model

# distances per brute-force chunk: 512 KB of float64, so the chunk and its
# temporaries stay small next to the training matrix
_CHUNK_DISTANCES = 65_536


class KnnState:
    def __init__(self, X, y, k):
        self.X = np.ascontiguousarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.k = k

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean target of the k nearest training rows, by brute-force distances."""
        out = np.empty(X.shape[0])
        train_sq = np.einsum("ij,ij->i", self.X, self.X)
        chunk = max(1, _CHUNK_DISTANCES // max(1, self.X.shape[0]))
        for lo in range(0, X.shape[0], chunk):
            Q = X[lo : lo + chunk]
            d2 = train_sq[None, :] - 2.0 * (Q @ self.X.T)  # + |q|^2, constant per row
            if self.k < self.X.shape[0]:
                idx = np.argpartition(d2, self.k - 1, axis=1)[:, : self.k]
            else:
                idx = np.broadcast_to(np.arange(self.X.shape[0]), (Q.shape[0], self.X.shape[0]))
            out[lo : lo + Q.shape[0]] = self.y[idx].mean(axis=1)
        return out


def fit_knn(X, y, k_neighbors: int) -> Model:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise InvalidInputError(f"bad design: X {X.shape}, y {y.shape}")
    if not 1 <= k_neighbors <= X.shape[0]:
        raise ConfigurationError(
            f"k_neighbors must lie in [1, n={X.shape[0]}], got {k_neighbors}"
        )
    state = KnnState(X, y, k_neighbors)
    return Model(FAMILY_KNN, {"k": k_neighbors}, state, X.shape[1])
