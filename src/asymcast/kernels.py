"""Hot numeric kernels: tree building and prediction, neural-net training.

Each kernel has one path, written with whole-array numpy operations.
Tree building vectorizes the split search across a node's candidate
features; tree prediction advances every row one level per step.

In-kernel randomness (random-forest feature subsampling, mini-batch
shuffling) draws from a small explicit LCG. It stays because it fixes
the order of the forests' ``mtry`` draws and the networks' mini-batch
order as a function of the seed alone, so fitted models are
reproducible bit for bit.
"""

import numpy as np

# pipebench's environment report reads this; there is no compiled path
USE_NUMBA = False

# 32-bit LCG (Numerical Recipes constants)
_LCG_A = 1664525
_LCG_C = 1013904223
_LCG_M = 4294967296  # 2**32


def lcg_choice(state, k):
    """Next LCG state and a draw in [0, k)."""
    state = (_LCG_A * state + _LCG_C) % _LCG_M
    return state, (state * k) // _LCG_M


# ----------------------------------------------------------------- trees

def tree_build(X, y, sample_idx, min_node, complexity, mtry, lcg_state, max_depth):
    """Grow a regression tree on rows ``sample_idx`` (repeats allowed).

    Splits greedily maximize the sum-of-squares reduction; a split is
    kept only when it reduces the node sum of squares by at least
    ``complexity`` times the root sum of squares and leaves at least
    ``min_node >= 1`` rows on each side. ``mtry < n_features`` samples
    that many candidate features per split (random forests). Nodes are
    grown depth first, and among equal gains the first candidate feature
    and the lowest cut win.

    Returns (feature, threshold, left, right, value, n_nodes); leaves
    carry feature -1. Rows with value <= threshold go left.
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
    feat_pool = np.arange(m)
    columns = np.arange(min(mtry, m))
    counts = np.arange(n + 1, dtype=np.float64)

    # root sum of squares, the reference scale for the complexity gate
    y_root = y[idx]
    root_sum = np.sum(y_root)
    root_sse = np.sum(y_root * y_root) - root_sum * root_sum / n
    min_gain = complexity * root_sse

    stack = [(0, 0, n, 0)]
    n_nodes = 1
    while stack:
        node, lo, hi, depth = stack.pop()
        seg = idx[lo:hi]
        n_node = hi - lo
        ys = y[seg]
        total = ys.sum()
        node_value[node] = total / n_node

        if n_node < 2 * min_node or depth >= max_depth:
            continue

        if mtry < m:
            # partial Fisher-Yates draw of mtry distinct features
            for i in range(mtry):
                lcg_state, j = lcg_choice(lcg_state, m - i)
                j += i
                feat_pool[i], feat_pool[j] = feat_pool[j], feat_pool[i]
            feats = feat_pool[:mtry]
            block = X[seg[:, None], feats]
        else:
            feats = feat_pool
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
        n_nodes,
    )


def tree_predict(node_feature, node_threshold, node_left, node_right, node_value, X):
    """Leaf values for every row of X, advancing all rows one level per step."""
    out = np.empty(X.shape[0], dtype=np.float64)
    rows = np.arange(X.shape[0])
    node = np.zeros(X.shape[0], dtype=np.int64)
    while rows.shape[0]:
        feature = node_feature[node]
        leaf = feature < 0
        if leaf.any():
            out[rows[leaf]] = node_value[node[leaf]]
            inner = ~leaf
            rows, node, feature = rows[inner], node[inner], feature[inner]
        goes_left = X[rows, feature] <= node_threshold[node]
        node = np.where(goes_left, node_left[node], node_right[node])
    return out


# ------------------------------------------------------------ neural net

# loss codes used inside the training kernel
LOSS_SQUARED = 0
LOSS_PINBALL = 1
LOSS_QQC_APPROX = 2

# activation codes
ACT_LOGISTIC = 0
ACT_TANH = 1

_EXP_CLIP = 700.0


def nn_train(
    X,
    y,
    W1,
    b1,
    v,
    v0,
    act_code,
    loss_code,
    loss_a,
    loss_b,
    loss_tau,
    loss_steepness,
    pinball_eps,
    lam1,
    lam2,
    learning_rate,
    epochs,
    batch_size,
    lcg_state,
):
    """Adam descent on mean(loss(residual)) + lam1*sum(W1^2) + lam2*sum(v^2).

    Biases (b1, v0) are not penalized. ``batch_size == 0`` means full
    batch; otherwise mini-batches are drawn from an LCG-shuffled
    permutation each epoch. ``pinball_eps > 0`` replaces the pinball kink
    by a quadratic band on [-eps, eps]. Parameters are updated in place;
    returns 0 on success, 1 if the parameters went non-finite.
    """
    n = X.shape[0]
    k = W1.shape[1]
    m = W1.shape[0]

    mW = np.zeros((m, k))
    vW = np.zeros((m, k))
    mb = np.zeros(k)
    vb = np.zeros(k)
    mv = np.zeros(k)
    vv = np.zeros(k)
    mv0 = np.zeros(1)
    vv0 = np.zeros(1)
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    perm = np.arange(n)
    full = batch_size <= 0 or batch_size >= n
    step = 0

    for _epoch in range(epochs):
        if not full:
            for i in range(n - 1, 0, -1):
                lcg_state, j = lcg_choice(lcg_state, i + 1)
                tmp = perm[i]
                perm[i] = perm[j]
                perm[j] = tmp
        start = 0
        while start < n:
            if full:
                Xb = X
                yb = y
                start = n
            else:
                stop = min(start + batch_size, n)
                rows = perm[start:stop]
                Xb = X[rows]
                yb = y[rows]
                start = stop
            nb = Xb.shape[0]

            Z = np.dot(Xb, W1) + b1
            if act_code == ACT_TANH:
                H = np.tanh(Z)
                Hder = 1.0 - H * H
            else:
                ZC = np.minimum(np.maximum(-Z, -_EXP_CLIP), _EXP_CLIP)
                H = 1.0 / (1.0 + np.exp(ZC))
                Hder = H * (1.0 - H)
            yhat = np.dot(H, v) + v0[0]
            e = yb - yhat

            if loss_code == LOSS_PINBALL:
                g = np.where(e > 0, loss_tau, np.where(e < 0, loss_tau - 1.0, loss_tau))
                if pinball_eps > 0.0:
                    band = e / (2.0 * pinball_eps) + (loss_tau - 0.5)
                    g = np.where(np.abs(e) <= pinball_eps, band, g)
            elif loss_code == LOSS_QQC_APPROX:
                zc = np.minimum(np.maximum(loss_steepness * e, -_EXP_CLIP), _EXP_CLIP)
                sig = 1.0 / (1.0 + np.exp(zc))
                weight = loss_a + (loss_b - loss_a) * sig
                dsig = -loss_steepness * sig * (1.0 - sig)
                g = 2.0 * e * weight + (e * e) * (loss_b - loss_a) * dsig
            else:
                g = 2.0 * e

            dyhat = -g / nb
            dv = np.dot(dyhat, H) + 2.0 * lam2 * v
            dv0 = np.sum(dyhat)
            dH = dyhat.reshape(nb, 1) * v.reshape(1, k)
            dZ = dH * Hder
            dW1 = np.dot(Xb.T.copy(), dZ) + 2.0 * lam1 * W1
            db1 = np.sum(dZ, axis=0)

            step += 1
            c1 = 1.0 - beta1**step
            c2 = 1.0 - beta2**step

            mW = beta1 * mW + (1.0 - beta1) * dW1
            vW = beta2 * vW + (1.0 - beta2) * dW1 * dW1
            W1 -= learning_rate * (mW / c1) / (np.sqrt(vW / c2) + eps)

            mb = beta1 * mb + (1.0 - beta1) * db1
            vb = beta2 * vb + (1.0 - beta2) * db1 * db1
            b1 -= learning_rate * (mb / c1) / (np.sqrt(vb / c2) + eps)

            mv = beta1 * mv + (1.0 - beta1) * dv
            vv = beta2 * vv + (1.0 - beta2) * dv * dv
            v -= learning_rate * (mv / c1) / (np.sqrt(vv / c2) + eps)

            mv0[0] = beta1 * mv0[0] + (1.0 - beta1) * dv0
            vv0[0] = beta2 * vv0[0] + (1.0 - beta2) * dv0 * dv0
            v0[0] -= learning_rate * (mv0[0] / c1) / (np.sqrt(vv0[0] / c2) + eps)

    ok = (
        np.all(np.isfinite(W1))
        and np.all(np.isfinite(b1))
        and np.all(np.isfinite(v))
        and np.isfinite(v0[0])
    )
    return 0 if ok else 1


def nn_forward(X, W1, b1, v, v0, act_code):
    Z = np.dot(X, W1) + b1
    if act_code == ACT_TANH:
        H = np.tanh(Z)
    else:
        ZC = np.minimum(np.maximum(-Z, -_EXP_CLIP), _EXP_CLIP)
        H = 1.0 / (1.0 + np.exp(ZC))
    return np.dot(H, v) + v0[0]
