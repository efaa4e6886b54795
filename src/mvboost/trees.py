"""CART-style regression trees used as the boosting base learner.

Growth is greedy top-down on SSE reduction.  Split candidates are midpoints
between consecutive distinct sorted values of each feature; rows with feature
value equal to the threshold route left.  Ties between candidate splits break
to the lowest feature index, then the lowest threshold, so fits are fully
reproducible.  There is no feature or row subsampling.

Split search is the presorted exact-greedy scan of XGBoost (Chen & Guestrin
2016): each feature column is sorted once, and every node carries its rows in
each feature's sorted order.  A node scans all features in one pass of
cumulative target sums, and its children inherit the sorted order by a stable
partition, so no node sorts again.  The boosting loop grows many trees on the
same X; it sorts once per fit and passes that order to every
:func:`fit_tree` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative slack below which an SSE improvement counts as zero and growth stops.
# It has no absolute part, so scaling the targets never changes a tree's shape.
_GAIN_TOL = 1e-12


class EmptyTrainingSetError(ValueError):
    """fit_tree called with no rows or no features."""


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 3
    min_samples_leaf: int = 1

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


@dataclass(frozen=True)
class Leaf:
    value: float


@dataclass(frozen=True)
class Split:
    feature_index: int
    threshold: float
    left: "Split | Leaf"
    right: "Split | Leaf"


@dataclass(frozen=True)
class RegressionTree:
    root: Split | Leaf
    n_features: int


def _best_split(XT, ys, order, min_leaf):
    """Best (feature, threshold, sse_children) over all features, or None.

    ``XT`` is the (d, N) transposed feature matrix and ``ys`` the N targets;
    row k of ``order`` holds the node's row indices sorted by feature k.
    Column j of the scan routes the first j + 1 rows of an order left.
    """
    n = order.shape[1]
    xs = np.take_along_axis(XT, order, axis=1)
    ys_sorted = ys[order]
    c1 = np.cumsum(ys_sorted, axis=1)
    c2 = np.cumsum(ys_sorted * ys_sorted, axis=1)
    tot1 = c1[:, -1:]
    tot2 = c2[:, -1:]
    c1, c2 = c1[:, :-1], c2[:, :-1]
    sizes = np.arange(1, n, dtype=float)
    left = c2 - c1 * c1 / sizes
    right = (tot2 - c2) - (tot1 - c1) * (tot1 - c1) / (n - sizes)
    valid = xs[:, 1:] != xs[:, :-1]
    if min_leaf > 1:
        valid &= (sizes >= min_leaf) & (n - sizes >= min_leaf)
    sse = left + right
    sse[~valid] = np.inf
    # argmin takes the first minimum: the lowest threshold of each feature,
    # then the lowest feature index.
    pos = np.argmin(sse, axis=1)
    feat = int(np.argmin(sse[np.arange(sse.shape[0]), pos]))
    pos = int(pos[feat])
    if not np.isfinite(sse[feat, pos]):
        return None
    threshold = 0.5 * (xs[feat, pos] + xs[feat, pos + 1])
    return feat, float(threshold), float(sse[feat, pos])


def _grow(XT, ys, rows, order, goes_left, params, depth):
    """Grow the subtree of the node holding ``rows`` (ascending).

    ``order`` is the node's (d, n_node) per-feature sorted order of the same
    rows; ``goes_left`` is an N-long scratch mask shared by the whole tree.
    """
    node_ys = ys.take(rows)
    n = node_ys.shape[0]
    mean = node_ys.mean()
    leaf = Leaf(float(mean))
    if depth >= params.max_depth or n < 2 * params.min_samples_leaf:
        return leaf
    parent_sse = float(np.sum((node_ys - mean) ** 2))
    if parent_sse <= _GAIN_TOL * float(np.sum(node_ys * node_ys)):
        return leaf
    best = _best_split(XT, ys, order, params.min_samples_leaf)
    if best is None:
        return leaf
    feat, threshold, sse_children = best
    if parent_sse - sse_children <= _GAIN_TOL * parent_sse:
        return leaf
    mask = XT[feat].take(rows) <= threshold
    if np.count_nonzero(mask) in (0, n):  # midpoint rounded onto a data value
        return leaf
    # A stable partition keeps every row of the order sorted by its feature.
    # compress is the same selection as boolean indexing, several times
    # faster on the unpredictable masks of a split.
    goes_left[rows] = mask
    in_left = goes_left[order].ravel()
    d = order.shape[0]
    order_left = order.compress(in_left).reshape(d, -1)
    order_right = order.compress(~in_left).reshape(d, -1)
    return Split(
        feature_index=feat,
        threshold=threshold,
        left=_grow(XT, ys, rows.compress(mask), order_left, goes_left, params, depth + 1),
        right=_grow(XT, ys, rows.compress(~mask), order_right, goes_left, params, depth + 1),
    )


def fit_tree(X, targets, params: TreeParams | None = None, order=None) -> RegressionTree:
    """Fit one scalar-output regression tree by greedy SSE minimization.

    ``order`` must equal ``np.argsort(X, axis=0, kind="stable")``; it is
    computed when not given.  Callers that fit many trees on one X pass it
    so that X is sorted once.
    """
    params = params or TreeParams()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    ys = np.asarray(targets, dtype=float).reshape(-1)
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise EmptyTrainingSetError("fit_tree requires at least one row and one feature")
    if X.shape[0] != ys.shape[0]:
        raise ValueError(f"row mismatch: X has {X.shape[0]}, targets {ys.shape[0]}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(ys))):
        raise ValueError("fit_tree inputs must be finite")
    if order is None:
        order = np.argsort(X, axis=0, kind="stable")
    elif np.shape(order) != X.shape:
        raise ValueError(f"order has shape {np.shape(order)}, X has {X.shape}")
    n = X.shape[0]
    XT = np.ascontiguousarray(X.T)
    order_t = np.ascontiguousarray(np.transpose(order))
    root = _grow(XT, ys, np.arange(n), order_t, np.zeros(n, dtype=bool), params, 0)
    return RegressionTree(root=root, n_features=X.shape[1])


def predict_tree(tree: RegressionTree, x) -> float:
    """Deterministic leaf lookup for one feature row (<= routes left)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    node = tree.root
    while isinstance(node, Split):
        node = node.left if x[node.feature_index] <= node.threshold else node.right
    return node.value


def predict_tree_batch(tree: RegressionTree, X) -> np.ndarray:
    """Vectorized prediction for an (n, d) feature matrix.

    Each split reads one feature column, so a column-major (Fortran-order) X,
    whose columns are contiguous, predicts fastest; any layout gives the same
    values.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.empty(X.shape[0])
    _predict_into(tree.root, X, np.arange(X.shape[0]), out)
    return out


def _predict_into(node, X, idx, out):
    if isinstance(node, Leaf):
        out[idx] = node.value
        return
    mask = X[:, node.feature_index][idx] <= node.threshold
    _predict_into(node.left, X, idx.compress(mask), out)
    _predict_into(node.right, X, idx.compress(~mask), out)

