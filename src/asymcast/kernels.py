"""Hot numeric kernels: tree building and prediction, the network's hidden layer.

Each kernel has one path, written with whole-array numpy operations.
Tree building vectorizes the split search across a node's candidate
features and returns the depth of the tree's deepest node, which the
tree keeps, also in a saved bundle; tree prediction walks every row down
that many levels.
Networks are trained in ``models.neural`` by scipy's L-BFGS-B, so no
training loop lives here; the clipped logistic ``logistic_inplace`` is
shared by the forward pass and the training objective.

A random forest's ``mtry`` candidate features at each scanned node are
the first ``mtry`` entries of a permutation drawn from one numpy
Generator per tree, seeded by ``tree_build``'s ``seed``. The draws are a
function of that seed alone, so fitted forests are reproducible bit for
bit; a tree that scans every feature draws nothing.
"""

import numpy as np

# pipebench's environment report reads this; there is no compiled path
USE_NUMBA = False


# ----------------------------------------------------------------- trees

def tree_build(X, y, sample_idx, min_node, complexity, mtry, seed, max_depth):
    """Grow a regression tree on rows ``sample_idx`` (repeats allowed).

    Splits greedily maximize the sum-of-squares reduction; a split is
    kept only when it reduces the node sum of squares by at least
    ``complexity`` times the root sum of squares and leaves at least
    ``min_node >= 1`` rows on each side. ``mtry < n_features`` draws
    that many candidate features per split from ``default_rng(seed)``
    (random forests). Nodes are grown depth first, and among equal gains
    the first candidate feature and the lowest cut win.

    Returns (feature, threshold, left, right, value, depth): the node
    arrays, whose leaves carry feature -1, and the number of splits on
    the longest root-to-leaf path. Rows with value <= threshold go left.
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
    rng = np.random.default_rng(seed) if mtry < m else None
    columns = np.arange(min(mtry, m))
    counts = np.arange(n + 1, dtype=np.float64)

    # root sum of squares, the reference scale for the complexity gate
    y_root = y[idx]
    root_sum = np.sum(y_root)
    root_sse = np.sum(y_root * y_root) - root_sum * root_sum / n
    min_gain = complexity * root_sse

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
        total = ys.sum()
        node_value[node] = total / n_node

        if n_node < 2 * min_node or depth >= max_depth:
            continue

        if rng is not None:
            # a uniform mtry-subset in random order; rng.choice(m, mtry,
            # replace=False) costs about four times as much per call
            feats = rng.permutation(m)[:mtry]
            block = X[seg[:, None], feats]
        else:
            feats = columns
            block = X[seg]

        # Candidate scan over all features at once: maximize
        # sum_L^2/n_L + sum_R^2/n_R (equivalent to the variance-reduction
        # objective since the sum of y^2 is constant). Row j of the
        # sorted block is the cut after j + 1 rows; only the rows that
        # leave min_node rows on each side are scored.
        order = np.argsort(block, axis=0, kind="stable")
        xs_s = block[order, columns]
        cut = slice(min_node - 1, n_node - min_node)
        # counts[k] == k: left sizes ascend from min_node, right sizes
        # descend to it
        n_left = counts[min_node : n_node - min_node + 1, None]
        n_right = counts[n_node - min_node : min_node - 1 : -1, None]
        sum_left = ys[order].cumsum(axis=0)[cut]
        sum_right = total - sum_left
        # sum_L^2/n_L + sum_R^2/n_R - total^2/n, in place to spare temporaries
        gains = sum_left * sum_left
        gains /= n_left
        sum_right *= sum_right
        sum_right /= n_right
        gains += sum_right
        gains -= total * total / n_node
        gains[~(xs_s[min_node : n_node - min_node + 1] > xs_s[cut])] = -1.0
        rows = gains.argmax(axis=0)
        col_gains = gains[rows, columns]
        k = int(col_gains.argmax())
        best_gain = col_gains[k]
        if not best_gain > 0.0 or best_gain < min_gain:
            continue
        best_feature = feats[k]
        j = rows[k] + min_node - 1
        best_threshold = 0.5 * (xs_s[j, k] + xs_s[j + 1, k])

        mask = block[:, k] <= best_threshold
        left_part = seg[mask]
        right_part = seg[~mask]
        n_left_rows = left_part.shape[0]
        idx[lo : lo + n_left_rows] = left_part
        idx[lo + n_left_rows : hi] = right_part

        left_id = n_nodes
        right_id = n_nodes + 1
        n_nodes += 2
        node_feature[node] = best_feature
        node_threshold[node] = best_threshold
        node_left[node] = left_id
        node_right[node] = right_id
        stack.append((left_id, lo, lo + n_left_rows, depth + 1))
        stack.append((right_id, lo + n_left_rows, hi, depth + 1))

    # copies, so a fitted tree does not pin the 2n+3 node capacity
    return (
        node_feature[:n_nodes].copy(),
        node_threshold[:n_nodes].copy(),
        node_left[:n_nodes].copy(),
        node_right[:n_nodes].copy(),
        node_value[:n_nodes].copy(),
        deepest,
    )


def tree_predict(node_feature, node_threshold, node_left, node_right, node_value, depth, X):
    """Leaf values for every row of X, by a walk of fixed depth.

    ``depth`` is the tree's depth as ``tree_build`` returns it. Leaves
    loop to themselves, so every row takes ``depth`` steps and no
    finished row is set aside. A step reads each
    row's split value with one flat gather, ``X.ravel()[row * m +
    feature[node]]``, and its next node from the interleaved child table
    ``child[2 * node + goes_right]``. Rows with value <= threshold go
    left, so NaN goes right.
    """
    leaf = node_feature < 0
    nodes = np.arange(node_feature.shape[0])
    feature = np.where(leaf, 0, node_feature)
    child = np.empty(2 * nodes.shape[0], dtype=np.int64)
    child[0::2] = np.where(leaf, nodes, node_left)
    child[1::2] = np.where(leaf, nodes, node_right)
    flat = np.ascontiguousarray(X).ravel()
    base = np.arange(X.shape[0]) * X.shape[1]
    node = np.zeros(X.shape[0], dtype=np.int64)
    for _ in range(depth):
        goes_right = ~(flat[base + feature[node]] <= node_threshold[node])
        node *= 2
        node += goes_right
        node = child[node]
    return node_value[node]


# ------------------------------------------------------------ neural net

# exp() overflow guard: the logistic here and losses' lec clip their exponents to +-700
_EXP_CLIP = 700.0


def logistic_inplace(Z):
    """Overwrite ``Z`` with its logistic 1 / (1 + exp(-Z)) and return it.

    The exponent is clipped to [-_EXP_CLIP, _EXP_CLIP], so a saturated
    unit reads 1 / (1 + e^700) or 1 / (1 + e^-700) without an overflow.
    Both layouts of the hidden layer use this kernel: rows x units for
    prediction, units x rows for training.
    """
    np.negative(Z, out=Z)
    np.clip(Z, -_EXP_CLIP, _EXP_CLIP, out=Z)
    np.exp(Z, out=Z)
    Z += 1.0
    return np.divide(1.0, Z, out=Z)


def nn_hidden(X, W1, b1):
    """Logistic activations of X W1 + b1, the hidden layer, one row per row of ``X``."""
    Z = np.dot(X, W1)
    Z += b1
    return logistic_inplace(Z)


def nn_forward(X, W1, b1, v, v0):
    return np.dot(nn_hidden(X, W1, b1), v) + v0[0]
