"""k-nearest-neighbor regression on standardized features.

kNN models fitted on the same training rows share one ``NeighborIndex``.
For a query the index makes one brute-force distance pass and ranks the
neighbours once, at the largest k it serves, ordering them by (distance,
training row); every k then reads its mean from running sums of the
ranked targets. ``build_library`` and ``load_library`` group their kNN
models with ``share_index``, which compares the stored training rows,
so a loaded library forms the groups its build formed and each loaded
model reproduces its stored forecasts bit for bit, even under ties.

The index keeps the per-k means of its latest query only, keyed on a
copy of the query's contents, not its identity: models of one library
scoring the same rows one after another share one ranking, and a query
changed in place is ranked again.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .base import FAMILY_KNN, Model, check_training_data

# distances per brute-force chunk: 512 KB of float64, so the chunk and its
# temporaries stay small next to the training matrix
_CHUNK_DISTANCES = 65_536


class NeighborIndex:
    """Training rows and targets, ranked once per query for every k in ``ks``."""

    def __init__(self, X, y, ks):
        # copies: a caller writing to its arrays after the fit must not
        # move the forecasts, nor leave the memo answering for old rows
        self.X = np.array(X, dtype=float, order="C")
        self.y = np.array(y, dtype=float)
        self.ks = tuple(sorted(set(ks)))
        n = self.X.shape[0]
        bad = [k for k in self.ks if not 1 <= k <= n]
        if bad:
            raise ConfigurationError(f"k_neighbors must lie in [1, n={n}], got {bad[0]}")
        self._sq = np.einsum("ij,ij->i", self.X, self.X)
        # (query copy, {k: means}); replaced whole, so concurrent readers
        # see one query's pair or another's, never a mix
        self._memo = None

    def means(self, Q) -> dict:
        """Mean target of the k nearest training rows of each query row, per k.

        The arrays are shared with the memo: callers must not write to them.
        """
        Q = np.asarray(Q, dtype=float)
        memo = self._memo
        if memo is not None and np.array_equal(memo[0], Q):
            return memo[1]
        means = self._rank(Q)
        self._memo = (Q.copy(), means)
        return means

    def _rank(self, Q) -> dict:
        n = self.X.shape[0]
        top = self.ks[-1]
        cols = np.array(self.ks) - 1
        divisors = np.array(self.ks, dtype=float)
        out = np.empty((len(self.ks), Q.shape[0]))
        chunk = max(1, _CHUNK_DISTANCES // n)
        for lo in range(0, Q.shape[0], chunk):
            q = Q[lo : lo + chunk]
            d2 = self._sq[None, :] - 2.0 * (q @ self.X.T)  # + |q|^2, constant per row
            if top < n:
                # the top candidates in row order, so the stable sort below
                # breaks distance ties by training row
                cand = np.argpartition(d2, top - 1, axis=1)[:, :top]
                cand.sort(axis=1)
                rows = np.arange(q.shape[0])[:, None]
                ranked = cand[rows, np.argsort(d2[rows, cand], axis=1, kind="stable")]
            else:
                ranked = np.argsort(d2, axis=1, kind="stable")
            csum = self.y[ranked].cumsum(axis=1)
            out[:, lo : lo + q.shape[0]] = csum[:, cols].T / divisors[:, None]
        return dict(zip(self.ks, out))


class KnnState:
    """One k over a ``NeighborIndex``, which other kNN states may share."""

    def __init__(self, index: NeighborIndex, k: int):
        self.index = index
        self.k = k

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean target of the k nearest training rows, by brute-force distances."""
        return self.index.means(X)[self.k].copy()


def share_index(states) -> None:
    """Point the kNN states among ``states`` that hold equal training rows at one index.

    Each group's index serves every k of the group; other states are left
    as they are.
    """
    groups = []
    for state in states:
        if not isinstance(state, KnnState):
            continue
        for group in groups:
            first = group[0].index
            if np.array_equal(first.X, state.index.X) and np.array_equal(first.y, state.index.y):
                group.append(state)
                break
        else:
            groups.append([state])
    for group in groups:
        first = group[0].index
        index = NeighborIndex(first.X, first.y, [state.k for state in group])
        for state in group:
            state.index = index


def fit_knn(X, y, k_neighbors: int) -> Model:
    X, y = check_training_data(X, y)
    state = KnnState(NeighborIndex(X, y, (k_neighbors,)), k_neighbors)
    return Model(FAMILY_KNN, {"k": k_neighbors}, state, X.shape[1])
