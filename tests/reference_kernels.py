"""Loop-based reference implementations the fast kernels are checked against,
and the checks the tests share that the package itself does not need.

``tree_build_loop`` scans the candidate features of a node one at a time,
``tree_depth`` finds a tree's depth by a walk over its levels,
``tree_predict_loop`` walks each row down the tree on its own,
``quantile_primal`` solves quantile regression as the n x (p + 2n)
primal LP, ``knn_rank_means`` ranks neighbours by one stable sort of
every query row's distances, and ``nn_forward_rows`` and
``nn_objective_and_grad_rows`` compose a network's forecast and training
objective rows x units from the public loss calls. They are deliberately
the plain formulations: the tests require the vectorized tree kernels,
the neighbour ranking and the network forecast to match them bit for
bit, the dual quantile LP to reach the same objective, and the
units x rows training objective to agree to rounding.

``eval_raw_where`` is the cost of each residual with the weight chosen
by ``np.where`` on its sign, the plain form of the branch-free llc and
qqc kernels of ``losses._eval_raw``, which must match it exactly.

``decode_categories`` reads a categorical column back from its dummies,
and ``validate_generalized_cost`` checks a cost function's shape on a
grid of residuals.
"""

import numpy as np
import scipy.optimize
import scipy.sparse

from asymcast.losses import _eval_raw, eval_loss, grad_loss
from asymcast.models import neural
from asymcast.models.neural import flatten_params, unflatten_params


def tree_build_loop(X, y, sample_idx, min_node, complexity, mtry, seed, max_depth):
    """Depth-first greedy regression tree, one candidate feature at a time.

    Returns the node arrays and the depth of the deepest node.

    With ``mtry`` below the feature count, each scanned node takes the
    first ``mtry`` entries of a permutation from ``default_rng(seed)``.
    """
    n = sample_idx.shape[0]
    m = X.shape[1]
    cap = 2 * n + 3
    node_feature = np.full(cap, -1, dtype=np.int64)
    node_threshold = np.zeros(cap, dtype=np.float64)
    node_left = np.full(cap, -1, dtype=np.int64)
    node_right = np.full(cap, -1, dtype=np.int64)
    node_value = np.zeros(cap, dtype=np.float64)

    idx = sample_idx.copy()
    rng = np.random.default_rng(seed)

    y_root = y[idx]
    root_sum = np.sum(y_root)
    root_sse = np.sum(y_root * y_root) - root_sum * root_sum / n

    stack = [(0, 0, n, 0)]
    n_nodes = 1
    deepest = 0
    while stack:
        node, lo, hi, depth = stack.pop()
        if depth > deepest:
            deepest = depth
        seg = idx[lo:hi]
        n_node = hi - lo
        ys = y[seg]
        total = np.sum(ys)
        node_value[node] = total / n_node

        if n_node < 2 * min_node or depth >= max_depth:
            continue

        candidates = rng.permutation(m)[:mtry] if mtry < m else range(m)

        base = total * total / n_node
        best_gain = 0.0
        best_feature = -1
        best_threshold = 0.0
        for f in candidates:
            xs = X[:, f][seg]
            order = np.argsort(xs, kind="mergesort")
            xs_s = xs[order]
            if xs_s[0] == xs_s[n_node - 1]:
                continue
            cum = np.cumsum(ys[order])
            n_left = np.arange(1, n_node).astype(np.float64)
            sum_left = cum[: n_node - 1]
            gains = (
                sum_left * sum_left / n_left
                + (total - sum_left) * (total - sum_left) / (n_node - n_left)
                - base
            )
            distinct = xs_s[1:] > xs_s[: n_node - 1]
            sized = (n_left >= min_node) & (n_left <= n_node - min_node)
            gains = np.where(distinct & sized, gains, -1.0)
            j = int(np.argmax(gains))
            if gains[j] > best_gain:
                best_gain = gains[j]
                best_feature = f
                best_threshold = 0.5 * (xs_s[j] + xs_s[j + 1])

        if best_feature < 0 or best_gain < complexity * root_sse:
            continue

        mask = X[:, best_feature][seg] <= best_threshold
        left_part = seg[mask]
        right_part = seg[~mask]
        n_left_rows = left_part.shape[0]
        idx[lo : lo + n_left_rows] = left_part
        idx[lo + n_left_rows : hi] = right_part

        left_id, right_id = n_nodes, n_nodes + 1
        n_nodes += 2
        node_feature[node] = best_feature
        node_threshold[node] = best_threshold
        node_left[node] = left_id
        node_right[node] = right_id
        stack.append((left_id, lo, lo + n_left_rows, depth + 1))
        stack.append((right_id, lo + n_left_rows, hi, depth + 1))

    return (
        node_feature[:n_nodes],
        node_threshold[:n_nodes],
        node_left[:n_nodes],
        node_right[:n_nodes],
        node_value[:n_nodes],
        deepest,
    )


def tree_depth(node_feature, node_left, node_right):
    """Number of splits on the longest root-to-leaf path, by a walk over the levels."""
    depth, level = 0, np.zeros(1, dtype=np.int64)
    while True:
        level = level[node_feature[level] >= 0]
        if not level.shape[0]:
            return depth
        level = np.concatenate([node_left[level], node_right[level]])
        depth += 1


def tree_predict_loop(node_feature, node_threshold, node_left, node_right, node_value, X):
    """Walk each row from the root to its leaf."""
    out = np.empty(X.shape[0], dtype=np.float64)
    for i in range(X.shape[0]):
        node = 0
        while node_feature[node] >= 0:
            if X[i, node_feature[node]] <= node_threshold[node]:
                node = node_left[node]
            else:
                node = node_right[node]
        out[i] = node_value[node]
    return out


def quantile_primal(X, y, tau):
    """Coefficients (intercept first) from the primal LP.

    Variables are (beta, u+, u-) with A beta + u+ - u- = y and objective
    tau*sum(u+) + (1-tau)*sum(u-).
    """
    A = np.column_stack([np.ones(X.shape[0]), X])
    n, p = A.shape
    eye = scipy.sparse.eye(n, format="csc")
    A_eq = scipy.sparse.hstack([scipy.sparse.csc_matrix(A), eye, -eye], format="csc")
    c = np.concatenate([np.zeros(p), np.full(n, tau), np.full(n, 1.0 - tau)])
    bounds = [(None, None)] * p + [(0.0, None)] * (2 * n)
    result = scipy.optimize.linprog(c, A_eq=A_eq, b_eq=y, bounds=bounds, method="highs")
    assert result.success, result.message
    return result.x[:p]


def knn_rank_means(X, y, ks, Q, chunk_distances):
    """Per-k neighbour means of the query rows, by a stable sort of every row.

    Distances are |x|^2 - 2 (q @ X^T) per chunk of ``chunk_distances //
    n`` query rows, the bits ``NeighborIndex`` computes; a stable sort of
    each row's distances breaks ties by training row.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    ks = sorted(set(ks))
    sq = np.einsum("ij,ij->i", X, X)
    cols = np.array(ks) - 1
    divisors = np.array(ks, dtype=float)
    out = np.empty((len(ks), Q.shape[0]))
    chunk = max(1, chunk_distances // n)
    for lo in range(0, Q.shape[0], chunk):
        q = Q[lo : lo + chunk]
        d2 = sq[None, :] - 2.0 * (q @ X.T)
        ranked = np.argsort(d2, axis=1, kind="stable")[:, : ks[-1]]
        csum = y[ranked].cumsum(axis=1)
        out[:, lo : lo + q.shape[0]] = csum[:, cols].T / divisors[:, None]
    return dict(zip(ks, out))


def eval_raw_where(spec, e):
    """llc and qqc costs of residuals ``e``: a for e > 0, else b, times |e| or e^2."""
    weight = np.where(e > 0, spec.a, spec.b)
    if spec.family == "llc":
        return weight * np.abs(e)
    if spec.family == "qqc":
        return weight * (e * e)
    raise ValueError(f"no np.where form of family {spec.family!r}")


def decode_categories(dataset, column: str) -> list:
    """Reconstruct original category labels of ``column`` from its dummies."""
    levels = dataset.categorical_map[column]
    n = dataset.n_rows
    labels = [levels[0]] * n
    for level in levels[1:]:
        dummy = f"{column}_{level}"
        j = dataset.feature_names.index(dummy)
        col = dataset.features[:, j]
        for i in range(n):
            if col[i] == 1.0:
                labels[i] = level
    return labels


def validate_generalized_cost(spec, grid) -> bool:
    """Check the generalized-cost-function requirements on a grid.

    True iff C(0) = 0, C(e) > 0 for every nonzero grid point, and C is
    monotone non-decreasing in |e| separately over the positive and the
    negative grid points. Diagnostic only: never raises on a bad spec.
    """
    pts = np.asarray(grid, dtype=float)
    values = _eval_raw(spec, pts)
    zero_mask = pts == 0.0
    if zero_mask.any() and np.any(values[zero_mask] != 0.0):
        return False
    nonzero = ~zero_mask
    if np.any(values[nonzero] <= 0.0):
        return False
    pos = np.sort(pts[pts > 0])
    neg = np.sort(np.abs(pts[pts < 0]))
    for side, magnitudes in (("pos", pos), ("neg", neg)):
        signed = magnitudes if side == "pos" else -magnitudes
        v = _eval_raw(spec, signed)
        if np.any(np.diff(v) < 0.0):
            return False
    return True


def nn_hidden_rows(X, W1, b1):
    """Logistic activations, one row per row of ``X``, exponent clipped to +-700."""
    return 1.0 / (1.0 + np.exp(np.minimum(np.maximum(-(np.dot(X, W1) + b1), -700.0), 700.0)))


def nn_forward_rows(X, W1, b1, v, v0):
    return np.dot(nn_hidden_rows(X, W1, b1), v) + v0[0]


def nn_objective_and_grad_rows(theta, X, y, hidden_nodes, loss_mode):
    """The network's training objective and gradient, rows x units.

    The mean of ``eval_loss`` plus the weight penalties at
    ``neural.WEIGHT_DECAY`` as it stands at the call, and the gradient by
    backpropagation through the n x k hidden layer with ``grad_loss``.
    """
    n, m = X.shape
    decay = neural.WEIGHT_DECAY
    W1, b1, v, v0 = unflatten_params(theta, m, hidden_nodes)
    H = nn_hidden_rows(X, W1, b1)
    e = y - (H @ v + v0[0])
    objective = float(np.mean(eval_loss(loss_mode, e))) + decay * float(
        np.sum(W1 * W1)
    ) + decay * float(np.sum(v * v))
    dyhat = -grad_loss(loss_mode, e) / n
    dv = H.T @ dyhat + 2.0 * decay * v
    dv0 = np.array([np.sum(dyhat)])
    dZ = (dyhat[:, None] * v[None, :]) * (H * (1.0 - H))
    dW1 = X.T @ dZ + 2.0 * decay * W1
    db1 = dZ.sum(axis=0)
    return objective, flatten_params(dW1, db1, dv, dv0)
