"""k-nearest-neighbor regression on standardized features.

Each ``KnnState`` is one k over a ``NeighborIndex``, which several
states may share. For a query the index makes one brute-force distance
pass and ranks the neighbours once, at the largest k it serves, ordering
them by (distance, training row); every k then reads its mean from
running sums of the ranked targets. That order is exact, ties included,
so a k forecasts the same bits alone as in any group. ``fit_knn`` gives
a model an index of its own; a library wires its kNN models to one index
per training set in one place (``library._share``): over the ATS rows and
the ks that fit at build, and over each stored training set at load.

The index keeps the per-k means of its latest query in the
``base.QueryMemo`` it is built with, keyed on the query's contents, not
its identity: models of one library scoring the same rows one after
another share one ranking, and a query changed in place is ranked
again. A library's index uses the library's memo, so it shares its
query copy with the library's tree groups.

Ranking. The index stores ``-2 X`` and the squared row norms, and a
chunk's distances are ``q @ (-2 X)ᵀ + |x|²`` (the |q|² term is constant
per row and left out). Scaling by -2 is exact, and BLAS sees the same
transposed layout as for ``q @ Xᵀ``, so these are the bits of
``|x|² - 2 (q @ Xᵀ)``. ``argpartition`` picks the nearest candidates,
one more than the largest k (every row when that k is n), and the
default ``argsort`` orders them.
That sort is not stable, and the partition may leave out any of the rows
tied with its last candidate, but both show as a sorted step that is not
strictly increasing (as does NaN from a non-finite query). Such a row is
ranked again by a stable sort of all its distances, which breaks ties by
training row.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError, require_integer
from .base import FAMILY_KNN, Model, QueryMemo, check_training_data

# distances per brute-force chunk: 512 KB of float64, so the chunk and its
# temporaries stay small next to the training matrix
_CHUNK_DISTANCES = 65_536


class NeighborIndex:
    """Training rows and targets, ranked once per query for every k in ``ks``.

    The per-k means of the latest query live in ``memo``, which other indexes
    and tree groups may share.
    """

    def __init__(self, X, y, ks, memo: QueryMemo):
        # copies: a caller writing to its arrays after the fit must not
        # move the forecasts, nor leave the memo answering for old rows
        self.X = np.array(X, dtype=float, order="C")
        self.y = np.array(y, dtype=float)
        ks = tuple(ks)
        for k in ks:
            require_integer("k_neighbors", k)
        self.ks = tuple(sorted(set(ks)))
        n = self.X.shape[0]
        bad = [k for k in self.ks if not 1 <= k <= n]
        if bad:
            raise ConfigurationError(f"k_neighbors must lie in [1, n={n}], got {bad[0]}")
        self._sq = np.einsum("ij,ij->i", self.X, self.X)
        self._m2 = -2.0 * self.X
        self.memo = memo
        self._key = object()

    def means(self, Q) -> dict:
        """Mean target of the k nearest training rows of each query row, per k.

        The arrays are shared with the memo: callers must not write to them.
        """
        return self.memo.get(self._key, np.asarray(Q, dtype=float), self._rank)

    def _rank(self, Q) -> dict:
        n = self.X.shape[0]
        top = self.ks[-1]
        cols = np.array(self.ks) - 1
        divisors = np.array(self.ks, dtype=float)
        out = np.empty((len(self.ks), Q.shape[0]))
        chunk = max(1, _CHUNK_DISTANCES // n)
        for lo in range(0, Q.shape[0], chunk):
            q = Q[lo : lo + chunk]
            d2 = q @ self._m2.T
            d2 += self._sq  # + |q|^2, constant per row
            rows = np.arange(q.shape[0])[:, None]
            # one candidate past the largest k, if there is one, so a tie at its boundary shows
            cand = np.argpartition(d2, min(top, n - 1), axis=1)[:, : top + 1]
            dist = d2[rows, cand]
            order = np.argsort(dist, axis=1)
            ranked = cand[rows, order[:, :top]]
            dist = dist[rows, order]
            tied = np.flatnonzero(~(dist[:, 1:] > dist[:, :-1]).all(axis=1))
            ranked[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :top]
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


def fit_knn(X, y, k_neighbors: int) -> Model:
    X, y = check_training_data(X, y)
    state = KnnState(NeighborIndex(X, y, (k_neighbors,), QueryMemo()), k_neighbors)
    return Model(FAMILY_KNN, {"k": k_neighbors}, state, X.shape[1])
