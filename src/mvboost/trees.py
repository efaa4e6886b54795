"""CART-style regression trees used as the boosting base learner.

Growth is greedy top-down on SSE reduction.  Split candidates are midpoints
between consecutive distinct sorted values of each feature; rows with feature
value equal to the threshold route left.  Ties between candidate splits break
to the lowest feature index, then the lowest threshold, so fits are fully
reproducible.  There is no feature or row subsampling.

Split search is the presorted exact-greedy scan of XGBoost (Chen & Guestrin
2016).  :func:`fit_stage` grows the M trees of one boosting stage, one per
target column, together and one depth level at a time.  A level holds the
rows of the open nodes of all M trees back to back (of as many trees as a
level of bounded size holds), once in each feature's sorted order and once in
ascending order.  A node scans all its features with one pass of cumulative
target sums; the SSE formula, the split pick and the routing run over blocks
of nodes at once, and a stable partition of the level hands each child its
rows still sorted, so X is sorted once per fit and no node sorts again.  Leaves are made where their rows are known, so the
grower also returns the trees' predictions on its own rows.  Growth raises
``FloatingPointError`` when a sum or square of the targets overflows float64,
rather than picking splits on infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

# Relative slack below which an SSE improvement counts as zero and growth stops.
# It has no absolute part, so scaling the targets never changes a tree's shape.
_GAIN_TOL = 1e-12

# (feature, row) elements a split scan takes at once, so its temporaries stay in cache.
_BLOCK = 1 << 15
# Row ids in one level of a stage's trees; more trees than fit are grown in turns.
_LEVEL = 1 << 22


class EmptyTrainingSetError(ValueError):
    """Tree growth called with no rows or no features."""


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


def _node_sums(values, sizes):
    """``np.add.reduce`` of each node's run of ``values`` along the last axis.

    The nodes' runs lie back to back.  One reduction per node: numpy's
    pairwise sum rounds by the length it is given, so only the node's own run
    gives the bits of its ``np.sum``.
    """
    ends = np.cumsum(sizes).tolist()
    return np.array([np.add.reduce(values[..., e - s:e], axis=-1)
                     for s, e in zip(sizes.tolist(), ends)])


def _blocks(sizes, cap):
    """Cut a level's nodes, none longer than ``cap`` rows, into runs of at
    most ``cap`` rows.  Yields (first node, end node, first row, end row)."""
    first = row = width = 0
    for i, size in enumerate(sizes.tolist()):
        if width + size > cap:
            yield first, i, row, row + width
            first, row, width = i, row + width, 0
        width += size
    if width:
        yield first, sizes.size, row, row + width


def _carve(buf, *shape):
    """A C-contiguous ``shape`` view of the front of the flat buffer ``buf``."""
    return buf[:math.prod(shape)].reshape(shape)


def _buffers(**parts):
    """Flat arrays ``name=(length, dtype)`` carved from one allocation.

    Separate arrays this large would each be mapped, and page-faulted in,
    afresh on every stage; one allocation of their total is recycled by the
    allocator.  List the widest dtypes first, so that every view is aligned.
    """
    nbytes = {name: length * np.dtype(dtype).itemsize for name, (length, dtype) in parts.items()}
    pool = np.empty(sum(nbytes.values()), dtype=np.uint8)
    out, at = {}, 0
    for name, (length, dtype) in parts.items():
        out[name] = pool[at:at + nbytes[name]].view(dtype)
        at += nbytes[name]
    return SimpleNamespace(**out)


def _without(shut, level, sizes, *per_node):
    """The level and the per-node arrays with the ``shut`` nodes taken out."""
    keep = ~shut
    return (level.compress(np.repeat(keep, sizes), axis=1), sizes[keep],
            *(a[keep] for a in per_node))


class _StageGrower:
    """Level-wise growth of the trees of one stage; see :func:`fit_stage`.

    A level is a (d + 1, T) array of row ids holding the open nodes of a
    group of trees back to back: row k < d has each node's rows sorted by
    feature k, row d the same rows ascending.  Node j of a level holds its
    rows at positions [start j, start j + size j) of every row, and grows
    the tree of target column ``cols[j]``; a row's target is then
    ``g_flat[cols[j] n + row]``, and its prediction goes to the same place of
    F.  The work of a level runs over blocks of whole nodes in buffers that
    every block and every group reuses, so its temporaries stay in cache.
    """

    def __init__(self, X, G, F, params, group):
        self.n, self.d = n, d = X.shape
        self.x_flat = X.ravel(order="F")  # feature k at [k n, k n + n)
        self.g_flat = G.ravel(order="F")  # target column m at [m n, m n + n)
        self.f_flat = F.reshape(-1, order="F")  # a view: leaves write F
        self.params = params
        size = (d + 1) * n * group  # a level of every tree of the group
        self.cap = cap = min(max(_BLOCK // d, n), n * group)  # rows per block
        row_id = np.int32 if n <= np.iinfo(np.int32).max else np.intp
        self.buf = _buffers(acc=(2 * d * cap, float), xs=(d * cap, float),
                            idx=((d + 1) * cap, np.intp), level=(size, row_id),
                            row=(n * group, row_id), valid=(d * cap, bool), left=(size, bool))
        self.splits = {}  # node id -> (feature, threshold, left id, right id)
        self.leaves = {}  # node id -> value

    def settle(self, level, sizes, cols, ids, shut, means=None):
        """Make leaves of the ``shut`` nodes of a level.  Their values, the
        nodes' means (computed here when not given), go into F at their rows."""
        rows = level[self.d].compress(np.repeat(shut, sizes))
        sizes = sizes[shut]
        at = rows + np.repeat(cols[shut] * self.n, sizes)
        if means is None:
            means = _node_sums(self.g_flat.take(at), sizes) / sizes
        else:
            means = means[shut]
        self.f_flat[at] = np.repeat(means, sizes)
        self.leaves.update(zip(ids[shut].tolist(), means.tolist()))

    def stats(self, rows, sizes, cols):
        """Each node's mean, parent SSE and sum of squares, computed as the
        recursive definition does: over its targets in ascending row order."""
        sums = np.empty((sizes.size, 2))
        parent_sse = np.empty(sizes.size)
        # two rows of work per position, so the blocks can be d times longer
        for a, b, p0, p1 in _blocks(sizes, self.d * self.cap):
            sz = sizes[a:b]
            idx = _carve(self.buf.idx, p1 - p0)
            np.add(rows[p0:p1], np.repeat(cols[a:b] * self.n, sz), out=idx)
            yy = _carve(self.buf.acc, 2, p1 - p0)
            np.take(self.g_flat, idx, out=yy[0], mode="clip")
            np.multiply(yy[0], yy[0], out=yy[1])
            sums[a:b] = _node_sums(yy, sz)
            dev = yy[0]
            dev -= np.repeat(sums[a:b, 0] / sz, sz)
            dev *= dev
            parent_sse[a:b] = _node_sums(dev, sz)
        return sums[:, 0] / sizes, parent_sse, sums[:, 1]

    def scan(self, level, sizes, cols, parent_sse):
        """Best split of every node of a level.

        Returns per node the feature, threshold, left-child size and whether
        it splits, and the (d + 1, T) mask of the positions of ``level``
        whose row routes left.
        """
        d, n, min_leaf = self.d, self.n, self.params.min_samples_leaf
        feat = np.empty(sizes.size, dtype=np.intp)
        thr = np.empty(sizes.size)
        low = np.empty(sizes.size)
        n_left = np.empty(sizes.size, dtype=np.intp)
        goes_left = _carve(self.buf.left, d + 1, level.shape[1])
        feature_cols = (np.arange(d) * n)[:, None]
        for a, b, p0, p1 in _blocks(sizes, self.cap):
            span = p1 - p0
            sz = sizes[a:b]
            st = np.cumsum(sz) - sz
            last = st + sz - 1
            idx = _carve(self.buf.idx, d + 1, span)
            # Split candidates: between distinct values, leaving min_leaf rows
            # each side.  Position j of a node routes its first j + 1 rows left.
            xs = _carve(self.buf.xs, d, span)
            np.add(level[:d, p0:p1], feature_cols, out=idx[:d])
            np.take(self.x_flat, idx[:d], out=xs, mode="clip")
            n_rows = np.repeat(sz, sz)
            n_lo = np.arange(1, span + 1) - np.repeat(st, sz)
            valid = _carve(self.buf.valid, d, span)
            np.not_equal(xs[:, 1:], xs[:, :-1], out=valid[:, :-1])
            valid &= (n_lo >= min_leaf) & (n_rows - n_lo >= min_leaf)  # never a node's last row
            # Cumulative [y; y^2] along each feature's order, one pass per node.
            acc = _carve(self.buf.acc, 2, d, span)
            np.add(level[:d, p0:p1], np.repeat(cols[a:b] * n, sz), out=idx[:d])
            np.take(self.g_flat, idx[:d], out=acc[0], mode="clip")
            np.multiply(acc[0], acc[0], out=acc[1])
            for s, e in zip(st.tolist(), (st + sz).tolist()):
                np.add.accumulate(acc[:, :, s:e], axis=2, out=acc[:, :, s:e])
            t1, t2 = np.repeat(acc[:, :, last], sz, axis=2)
            # A node's last position is no split; it repeats the one before,
            # so the formula evaluates nothing there that real splits do not.
            acc[:, :, last] = acc[:, :, last - 1]
            n_lo = n_lo.astype(float)
            n_lo[last] -= 1.0
            n_hi = n_rows - n_lo
            # SSE of the two children, with the operations of
            #   (c2 - c1 c1 / n_lo) + ((t2 - c2) - (t1 - c1)(t1 - c1) / n_hi),
            # left in place of c1.
            c1, c2 = acc
            np.subtract(t1, c1, out=t1)
            t1 *= t1
            t1 /= n_hi
            np.subtract(t2, c2, out=t2)
            t2 -= t1
            sse = c1
            sse *= c1
            sse /= n_lo
            np.subtract(c2, sse, out=sse)
            sse += t2
            invalid = np.logical_not(valid, out=valid)
            np.copyto(sse, np.inf, where=invalid)
            # The first minimum: lowest feature index, then lowest threshold.
            mins = np.minimum.reduceat(sse, st, axis=1)
            best = mins.min(axis=0)
            f = np.argmax(mins == best, axis=0)
            row = sse[0] if d == 1 else sse.ravel().take(np.repeat(f * span, sz) + np.arange(span))
            hits = np.flatnonzero(row == np.repeat(best, sz))
            pos = hits[np.searchsorted(hits, st)]
            with np.errstate(over="ignore"):  # an infinite midpoint routes every row left
                t = 0.5 * (xs[f, pos] + xs[f, pos + 1])
            # Route every row of every order: the mask the partition keeps.
            np.add(level[:, p0:p1], np.repeat(f * n, sz), out=idx)
            x_split = _carve(self.buf.acc, d + 1, span)
            np.take(self.x_flat, idx, out=x_split, mode="clip")
            mask = goes_left[:, p0:p1]
            np.less_equal(x_split, np.repeat(t, sz), out=mask)
            feat[a:b] = f
            thr[a:b] = t
            low[a:b] = best
            n_left[a:b] = np.add.reduceat(mask[d], st, dtype=np.intp)
        split = (np.isfinite(low) & ~(parent_sse - low <= _GAIN_TOL * parent_sse)
                 & (n_left > 0) & (n_left < sizes))  # a midpoint can round onto a data value
        return feat, thr, n_left, split, goes_left

    def partition(self, level, sizes, split, n_left, goes_left):
        """The next level: the split nodes' left children, then their right
        children, each row still sorted within every child.  It is written
        over ``level``, one row at a time through a spare row: row k of the
        shorter next level ends before row k + 1 of this one begins."""
        d = self.d
        keep = None if split.all() else np.repeat(split, sizes)
        width = int(n_left[split].sum())
        total = int(sizes[split].sum())
        flat = level.reshape(-1)
        spare = self.buf.row[:total]
        for k in range(d + 1):
            to_left = goes_left[k]
            np.compress(to_left if keep is None else to_left & keep, level[k],
                        out=spare[:width])
            to_right = np.logical_not(to_left, out=to_left)
            np.compress(to_right if keep is None else to_right & keep, level[k],
                        out=spare[width:])
            flat[k * total:(k + 1) * total] = spare
        return flat[:(d + 1) * total].reshape(d + 1, total)

    def grow(self, order, cols):
        """The trees of target columns ``cols``, their predictions written into F."""
        d, n = self.d, self.n
        max_depth, min_leaf = self.params.max_depth, self.params.min_samples_leaf
        n_trees = cols.size
        self.splits.clear()
        self.leaves.clear()
        # Level 0: every tree's root, node id m for the m-th tree, holds every row.
        level = _carve(self.buf.level, d + 1, n_trees, n)
        level[:d] = np.transpose(order)[:, None, :]
        level[d] = np.arange(n)
        level = level.reshape(d + 1, n_trees * n)
        sizes = np.full(n_trees, n)
        ids = np.arange(n_trees)
        next_id = n_trees
        for depth in range(max_depth + 1):
            # At the depth limit, or too small to split: the mean is all they need.
            shut = (sizes < 2 * min_leaf) if depth < max_depth else np.ones(sizes.size, bool)
            if shut.any():
                self.settle(level, sizes, cols, ids, shut)
                if shut.all():
                    break
                level, sizes, cols, ids = _without(shut, level, sizes, cols, ids)
            means, parent_sse, sum_sq = self.stats(level[d], sizes, cols)
            shut = parent_sse <= _GAIN_TOL * sum_sq  # targets constant within the tolerance
            if shut.any():
                self.settle(level, sizes, cols, ids, shut, means)
                if shut.all():
                    break
                level, sizes, cols, ids, means, parent_sse = _without(
                    shut, level, sizes, cols, ids, means, parent_sse)
            feat, thr, n_left, split, goes_left = self.scan(level, sizes, cols, parent_sse)
            if not split.all():
                self.settle(level, sizes, cols, ids, ~split, means)
                if not split.any():
                    break
            kids = int(np.count_nonzero(split))
            left_ids = np.arange(next_id, next_id + kids)
            next_id += 2 * kids
            self.splits.update(zip(ids[split].tolist(), zip(
                feat[split].tolist(), thr[split].tolist(),
                left_ids.tolist(), (left_ids + kids).tolist())))
            level = self.partition(level, sizes, split, n_left, goes_left)
            sizes = np.concatenate((n_left[split], (sizes - n_left)[split]))
            cols = np.concatenate((cols[split], cols[split]))
            ids = np.arange(next_id - 2 * kids, next_id)

        return [RegressionTree(root=self.build(m), n_features=d) for m in range(n_trees)]

    def build(self, node_id):
        if node_id in self.leaves:
            return Leaf(self.leaves[node_id])
        feat, threshold, left, right = self.splits[node_id]
        return Split(feat, threshold, self.build(left), self.build(right))


def fit_stage(X, G, params: TreeParams | None = None, order=None):
    """Grow one regression tree per column of ``G`` on the rows of ``X``.

    Returns ``(trees, F)``: the M trees, and the (n, M) column-major array
    whose column m is ``predict_tree_batch(trees[m], X)``, bit for bit.
    ``order`` must equal ``np.argsort(X, axis=0, kind="stable")``; it is
    computed when not given.  Callers that grow many stages on one X pass it
    so that X is sorted once.  Raises ``FloatingPointError`` if a sum or a
    square of the targets overflows.
    """
    params = params or TreeParams()
    X = np.asfortranarray(np.atleast_2d(np.asarray(X, dtype=float)))
    G = np.asfortranarray(G, dtype=float)
    if G.ndim != 2:
        raise ValueError(f"targets must be an (n, M) array, got shape {G.shape}")
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise EmptyTrainingSetError("tree growth requires at least one row and one feature")
    if X.shape[0] != G.shape[0]:
        raise ValueError(f"row mismatch: X has {X.shape[0]}, targets {G.shape[0]}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(G))):
        raise ValueError("tree inputs must be finite")
    if order is None:
        order = np.argsort(X, axis=0, kind="stable")
    elif np.shape(order) != X.shape:
        raise ValueError(f"order has shape {np.shape(order)}, X has {X.shape}")
    n, d = X.shape
    F = np.empty(G.shape, order="F")
    # Grow the trees in groups whose levels hold at most _LEVEL row ids.
    group = max(1, min(G.shape[1], _LEVEL // ((d + 1) * n)))
    grower = _StageGrower(X, G, F, params, group)
    trees = []
    with np.errstate(over="raise"):
        for first in range(0, G.shape[1], group):
            trees += grower.grow(order, np.arange(first, min(first + group, G.shape[1])))
    return tuple(trees), F


def fit_tree(X, targets, params: TreeParams | None = None, order=None) -> RegressionTree:
    """Fit one scalar-output regression tree by greedy SSE minimization:
    :func:`fit_stage` on one target column."""
    ys = np.asarray(targets, dtype=float).reshape(-1, 1)
    return fit_stage(X, ys, params, order)[0][0]


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

