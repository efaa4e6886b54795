"""CART-style regression trees used as the boosting base learner.

Growth is greedy top-down on SSE reduction.  Split candidates are midpoints
between consecutive distinct sorted values of each feature; rows with feature
value equal to the threshold route left.  Ties between candidate splits break
to the lowest feature index, then the lowest threshold, so fits are fully
reproducible.  There is no feature or row subsampling.

Split search is the presorted exact-greedy scan of XGBoost (Chen & Guestrin
2016).  A :class:`StageGrower` is made once per fit: it checks and sorts X
and allocates its scratch arrays.  Each call grows the M trees of one
boosting stage, one per target column, together and one depth level at a
time; :func:`fit_stage` is one call of a fresh grower.  A level holds the
rows of the open nodes of all M trees back to back (of as many trees as a
level of bounded size holds), once in each feature's sorted order and once in
ascending order.  A node scans all its features with one pass of cumulative
target sums; the SSE formula, the split pick and the routing run over blocks
of nodes at once, and a stable partition of the level hands each child its
rows still sorted, so X is sorted once per fit and no node sorts again.  A
level passes over only what its inputs need: a feature with no repeated
value needs no test that the values either side of a split differ; the
ascending order alone is routed by value, and the sorted orders look their
rows' sides up; on the last split level, whose children are all leaves, the
ascending order alone is routed and partitioned.  Leaves are made where their
rows are known, so the grower also returns the trees' predictions on its own
rows, and it sends validation rows down the levels it built to predict them
too.  Growth raises ``FloatingPointError`` when a sum or square of the
targets overflows float64, rather than picking splits on infinities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


class StageGrower:
    """Level-wise growth of the M trees of each boosting stage on one X.

    The constructor checks X and the validation rows ``X_val``, sorts X once,
    marks the features that hold a value twice and allocates the scratch
    arrays.  Each call ``grower(G)`` grows one stage: one tree per column of
    the (n, M) targets G.  It returns ``(trees, F, F_val)``: the trees, and
    their predictions on X and on ``X_val`` as column-major arrays, bit for
    bit those of :func:`predict_tree_batch`.  A call raises
    ``FloatingPointError`` if a sum or a square of the targets overflows.

    A level is a (d + 1, T) array of row ids holding the open nodes of a
    group of trees back to back: row k < d has each node's rows sorted by
    feature k, row d the same rows ascending.  Node j of a level holds its
    rows at positions [start j, start j + size j) of every row, and grows
    the tree of target column ``cols[j]``; a row's target is then
    ``g_flat[cols[j] n + row]``, and its prediction goes to the same place of
    F.  The work of a level runs over blocks of whole nodes in arrays that
    every block, group and stage reuses, so its temporaries stay in cache.
    Node ids count up level by level, so a child's id is above its
    parent's; the splits and leaves made are kept as arrays per level.
    Once a group's trees are grown, the rows of X_val go down its levels,
    all trees at once, and their leaves' values go to F_val.
    """

    def __init__(self, X, n_trees, params: TreeParams | None = None, X_val=None):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] == 0 or X.shape[1] == 0:
            raise EmptyTrainingSetError("tree growth requires at least one row and one feature")
        if not np.all(np.isfinite(X)):
            raise ValueError("X holds a NaN or an infinity")
        X_val = X[:0] if X_val is None else np.asarray(X_val, dtype=float)
        if X_val.ndim != 2 or X_val.shape[1] != X.shape[1]:
            raise ValueError(f"X_val has shape {X_val.shape}, X has {X.shape}")
        if not np.all(np.isfinite(X_val)):
            raise ValueError("X_val holds a NaN or an infinity")
        self.n, self.d = n, d = X.shape
        self.n_trees, self.n_val = n_trees, X_val.shape[0]
        self.params = params or TreeParams()
        self.x_flat = X.ravel(order="F")  # feature k at [k n, k n + n)
        self.xv_flat = X_val.ravel(order="F")
        order = np.argsort(X, axis=0, kind="stable")
        self.order = order.T  # row k: the rows sorted by feature k
        # Features whose column holds a value twice.  Only their splits need
        # a test that the values either side differ.
        ranked = self.x_flat.take(order + np.arange(d) * n)
        self.tied = np.flatnonzero((ranked[1:] == ranked[:-1]).any(axis=0))
        # Grow the trees in groups whose levels hold at most _LEVEL row ids.
        self.group = group = max(1, min(n_trees, _LEVEL // ((d + 1) * n)))
        self.cap = cap = min(max(_BLOCK // d, n), n * group)  # rows per block
        row_id = np.int32 if n <= np.iinfo(np.int32).max else np.intp
        # Scratch arrays, reused by every block, group and stage.
        self.acc = np.empty(2 * d * cap)
        self.idx = np.empty((d + 1) * cap, dtype=np.intp)
        self.level = np.empty((d + 1) * n * group, dtype=row_id)  # every tree of a group
        self.row = np.empty(n * group, dtype=row_id)
        self.valid = np.empty(d * cap, dtype=bool)
        self.left = np.empty(self.level.size, dtype=bool)
        self.side = np.empty(n * n_trees, dtype=bool)  # per target index: routes left
        self.splits = []  # (ids, features, thresholds, left ids, right ids)
        self.leaves = []  # (ids, values)

    def __call__(self, G):
        """One stage's ``(trees, F, F_val)`` on the (n, M) targets G."""
        G = np.asfortranarray(G, dtype=float)
        if G.ndim != 2 or G.shape[1] != self.n_trees:
            raise ValueError(f"targets must be an (n, {self.n_trees}) array, got shape {G.shape}")
        if G.shape[0] != self.n:
            raise ValueError(f"row mismatch: X has {self.n}, targets {G.shape[0]}")
        if not np.all(np.isfinite(G)):
            raise ValueError("targets hold a NaN or an infinity")
        F = np.empty(G.shape, order="F")
        F_val = np.empty((self.n_val, self.n_trees), order="F")
        self.g_flat = G.ravel(order="F")  # target column m at [m n, m n + n)
        self.f_flat = F.reshape(-1, order="F")  # views: leaves write F and F_val
        self.fv_flat = F_val.reshape(-1, order="F")
        trees = []
        with np.errstate(over="raise"):
            for first in range(0, self.n_trees, self.group):
                trees += self.grow(np.arange(first, min(first + self.group, self.n_trees)))
        return tuple(trees), F, F_val

    def settle(self, rows, sizes, cols, ids, shut, means=None):
        """Make leaves of the ``shut`` nodes of a level, given its ascending
        row ids.  Their values, the nodes' means (computed here when not
        given), go into F at their rows."""
        if not shut.all():
            rows = rows.compress(np.repeat(shut, sizes))
            sizes, cols, ids = sizes[shut], cols[shut], ids[shut]
            means = None if means is None else means[shut]
        at = rows + np.repeat(cols * self.n, sizes)
        if means is None:
            means = _node_sums(self.g_flat.take(at), sizes) / sizes
        self.f_flat[at] = np.repeat(means, sizes)
        self.leaves.append((ids, means))

    def stats(self, rows, sizes, cols):
        """Each node's mean, parent SSE and sum of squares, computed as the
        recursive definition does: over its targets in ascending row order."""
        sums = np.empty((sizes.size, 2))
        parent_sse = np.empty(sizes.size)
        # two rows of work per position, so the blocks can be d times longer
        for a, b, p0, p1 in _blocks(sizes, self.d * self.cap):
            sz = sizes[a:b]
            idx = _carve(self.idx, p1 - p0)
            np.add(rows[p0:p1], np.repeat(cols[a:b] * self.n, sz), out=idx)
            yy = _carve(self.acc, 2, p1 - p0)
            np.take(self.g_flat, idx, out=yy[0], mode="clip")
            np.multiply(yy[0], yy[0], out=yy[1])
            sums[a:b] = _node_sums(yy, sz)
            dev = yy[0]
            dev -= np.repeat(sums[a:b, 0] / sz, sz)
            dev *= dev
            parent_sse[a:b] = _node_sums(dev, sz)
        return sums[:, 0] / sizes, parent_sse, sums[:, 1]

    def scan(self, level, sizes, cols, parent_sse, sum_sq, last):
        """Best split of every node of a level.

        Returns per node the feature, threshold, left-child size and whether
        it splits (not if its targets are constant within the tolerance, or
        no split gains), and the mask of the positions of ``level`` whose
        row routes left: of every row, or of row d alone on the ``last``
        level, whose children are all leaves.
        """
        d, n, min_leaf = self.d, self.n, self.params.min_samples_leaf
        feat = np.empty(sizes.size, dtype=np.intp)
        thr = np.empty(sizes.size)
        low = np.empty(sizes.size)
        n_left = np.empty(sizes.size, dtype=np.intp)
        goes_left = _carve(self.left, 1 if last else d + 1, level.shape[1])
        for a, b, p0, p1 in _blocks(sizes, self.cap):
            span = p1 - p0
            sz = sizes[a:b]
            st = np.cumsum(sz) - sz
            end = st + sz - 1
            idx = _carve(self.idx, d + 1, span)
            # Split candidates: between distinct values, leaving min_leaf rows
            # each side.  Position j of a node routes its first j + 1 rows left.
            n_rows = np.repeat(sz, sz)
            n_lo = np.arange(1, span + 1) - np.repeat(st, sz)
            invalid = (n_lo < min_leaf) | (n_rows - n_lo < min_leaf)  # a node's last row too
            if self.tied.size:
                xs = self.x_flat.take(level[self.tied, p0:p1] + (self.tied * n)[:, None])
                valid = _carve(self.valid, d, span)
                np.logical_not(invalid, out=valid)
                valid[self.tied, :-1] &= xs[:, 1:] != xs[:, :-1]
                invalid = np.logical_not(valid, out=valid)
            # Cumulative [y; y^2] along each feature's order, one pass per node.
            acc = _carve(self.acc, 2, d, span)
            to_g = np.repeat(cols[a:b] * n, sz)
            np.add(level[:d, p0:p1], to_g, out=idx[:d])
            np.take(self.g_flat, idx[:d], out=acc[0], mode="clip")
            np.multiply(acc[0], acc[0], out=acc[1])
            for s, e in zip(st.tolist(), (st + sz).tolist()):
                np.add.accumulate(acc[:, :, s:e], axis=2, out=acc[:, :, s:e])
            t1, t2 = np.repeat(acc[:, :, end], sz, axis=2)
            # A node's last position is no split; it repeats the one before,
            # so the formula evaluates nothing there that real splits do not.
            acc[:, :, end] = acc[:, :, end - 1]
            n_lo = n_lo.astype(float)
            n_lo[end] -= 1.0
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
            np.copyto(sse, np.inf, where=invalid)
            # The first minimum: lowest feature index, then lowest threshold.
            mins = np.minimum.reduceat(sse, st, axis=1)
            best = mins.min(axis=0)
            f = np.argmax(mins == best, axis=0)
            row = sse[0] if d == 1 else sse.ravel().take(np.repeat(f * span, sz) + np.arange(span))
            hits = np.flatnonzero(row == np.repeat(best, sz))
            pos = p0 + hits[np.searchsorted(hits, st)]
            at = f * n
            with np.errstate(over="ignore"):  # an infinite midpoint routes every row left
                t = 0.5 * (self.x_flat[at + level[f, pos]] + self.x_flat[at + level[f, pos + 1]])
            # Route row d by value, and the other orders by a lookup of their
            # rows' sides; with one other order the lookup costs more than the
            # gather it saves.
            lookup = d > 1 and not last
            by_value = d if lookup or last else 0  # the first row routed by value
            np.add(level[by_value:, p0:p1], np.repeat(at, sz), out=idx[by_value:])
            x_split = _carve(self.acc, d + 1 - by_value, span)
            np.take(self.x_flat, idx[by_value:], out=x_split, mode="clip")
            np.less_equal(x_split, np.repeat(t, sz), out=goes_left[by_value - d - 1:, p0:p1])
            mask = goes_left[-1, p0:p1]
            if lookup:
                np.add(level[d, p0:p1], to_g, out=idx[d])
                self.side[idx[d]] = mask
                goes_left[:d, p0:p1] = self.side.take(idx[:d])
            feat[a:b] = f
            thr[a:b] = t
            low[a:b] = best
            n_left[a:b] = np.add.reduceat(mask, st, dtype=np.intp)
        split = (~(parent_sse <= _GAIN_TOL * sum_sq) & np.isfinite(low)
                 & ~(parent_sse - low <= _GAIN_TOL * parent_sse)
                 & (n_left > 0) & (n_left < sizes))  # a midpoint can round onto a data value
        return feat, thr, n_left, split, goes_left

    def partition(self, level, sizes, split, goes_left, kid_sizes, kid_open):
        """The next level: the open children of the split nodes, left
        children then right children, each row still sorted within every
        child.  It is written over ``level``, one row at a time through a
        spare row: row k of the shorter next level ends before row k + 1 of
        this one begins.  Unless every child is open, also returns the
        ascending rows of every child, for the leaves made of the others."""
        d = self.d
        kids = kid_open.size // 2
        total = int(kid_sizes[kid_open].sum())
        flat = level.reshape(-1)
        spare = self.row
        every_kid = kid_open.all()
        if total:
            keep = []
            for opened in (kid_open[:kids], kid_open[kids:]):  # left, right
                node_keeps = np.zeros(sizes.size, bool)
                node_keeps[split] = opened
                keep.append(None if node_keeps.all() else np.repeat(node_keeps, sizes))
            width = int(kid_sizes[:kids][kid_open[:kids]].sum())
            for k in range(d + 1 if every_kid else d):
                to_left = goes_left[k]
                np.compress(to_left if keep[0] is None else to_left & keep[0], level[k],
                            out=spare[:width])
                to_right = np.logical_not(to_left, out=to_left)
                np.compress(to_right if keep[1] is None else to_right & keep[1], level[k],
                            out=spare[width:total])
                flat[k * total:(k + 1) * total] = spare[:total]
        nxt = flat[:(d + 1) * total].reshape(d + 1, total)
        if every_kid:
            return nxt, None
        # Row d: the rows of every child, in the spare row.
        keep = None if split.all() else np.repeat(split, sizes)
        width = int(kid_sizes[:kids].sum())
        kid_rows = spare[:int(kid_sizes.sum())]
        to_left = goes_left[-1]
        np.compress(to_left if keep is None else to_left & keep, level[d], out=kid_rows[:width])
        to_right = np.logical_not(to_left, out=to_left)
        np.compress(to_right if keep is None else to_right & keep, level[d], out=kid_rows[width:])
        if total:
            np.compress(np.repeat(kid_open, kid_sizes), kid_rows, out=nxt[d])
        return nxt, kid_rows

    def grow(self, cols):
        """The trees of target columns ``cols``, a run of consecutive
        columns; their predictions are written into F and F_val."""
        d, n = self.d, self.n
        max_depth, min_leaf = self.params.max_depth, self.params.min_samples_leaf
        first, n_trees = cols[0], cols.size
        self.splits.clear()
        self.leaves.clear()
        # Level 0: every tree's root, node id m for the m-th tree, holds every row.
        level = _carve(self.level, d + 1, n_trees, n)
        level[:d] = self.order[:, None, :]
        level[d] = np.arange(n)
        level = level.reshape(d + 1, n_trees * n)
        sizes = np.full(n_trees, n)
        ids = np.arange(n_trees)
        next_id = n_trees
        levels = 0  # of split nodes grown
        if n < 2 * min_leaf:  # too small to split: the mean is all they need
            self.settle(level[d], sizes, cols, ids, np.ones(n_trees, bool))
            sizes = sizes[:0]  # no node is open
        while sizes.size:
            means, parent_sse, sum_sq = self.stats(level[d], sizes, cols)
            last = levels == max_depth - 1
            feat, thr, n_left, split, goes_left = self.scan(level, sizes, cols, parent_sse,
                                                            sum_sq, last)
            if not split.all():
                self.settle(level[d], sizes, cols, ids, ~split, means)
                if not split.any():
                    break
            levels += 1
            kids = int(np.count_nonzero(split))
            left_ids = np.arange(next_id, next_id + kids)
            self.splits.append((ids[split], feat[split], thr[split], left_ids, left_ids + kids))
            ids = np.arange(next_id, next_id + 2 * kids)
            next_id += 2 * kids
            cols = np.concatenate((cols[split], cols[split]))
            kid_sizes = np.concatenate((n_left[split], (sizes - n_left)[split]))
            # Children at the depth limit, or too small to split, are leaves
            # now: the mean is all they need.
            kid_open = np.zeros(2 * kids, bool) if last else kid_sizes >= 2 * min_leaf
            level, kid_rows = self.partition(level, sizes, split, goes_left, kid_sizes, kid_open)
            sizes = kid_sizes
            if not kid_open.all():
                self.settle(kid_rows, sizes, cols, ids, ~kid_open)
                sizes, cols, ids = sizes[kid_open], cols[kid_open], ids[kid_open]
        nodes = self.nodes(next_id)
        self.predict_val(nodes, levels, first, n_trees)
        return self.build(nodes, n_trees)

    def nodes(self, n_nodes):
        """The node records as arrays indexed by node id: feature,
        threshold, left and right child id, and value.  A leaf is its own
        left and right child, with threshold +inf; a split has value 0."""
        feat = np.zeros(n_nodes, dtype=np.intp)
        thr = np.full(n_nodes, np.inf)
        left = np.arange(n_nodes)
        right = np.arange(n_nodes)
        value = np.zeros(n_nodes)
        for ids, f, t, lo, hi in self.splits:
            feat[ids], thr[ids], left[ids], right[ids] = f, t, lo, hi
        for ids, v in self.leaves:
            value[ids] = v
        return feat, thr, left, right, value

    def predict_val(self, nodes, levels, first, n_trees):
        """Send the validation rows down the ``levels`` levels of split
        nodes of trees ``first`` .. ``first + n_trees - 1``, all trees at
        once, and write their leaves' values into F_val."""
        feat, thr, left, right, value = nodes
        n_val = self.n_val
        rows = np.tile(np.arange(n_val), n_trees)
        node = np.repeat(np.arange(n_trees), n_val)
        x_at = feat * n_val
        for _ in range(levels):
            goes_left = self.xv_flat.take(x_at.take(node) + rows) <= thr.take(node)
            node = np.where(goes_left, left.take(node), right.take(node))
        self.fv_flat[first * n_val:(first + n_trees) * n_val] = value.take(node)

    def build(self, nodes, n_trees):
        """The trees from the node records, children before parents."""
        feat, thr, left, right, value = (a.tolist() for a in nodes)
        built = [None] * len(value)
        for i in range(len(value) - 1, -1, -1):
            if left[i] == i:
                built[i] = Leaf(value[i])
            else:
                built[i] = Split(feat[i], thr[i], built[left[i]], built[right[i]])
        return [RegressionTree(root=built[m], n_features=self.d) for m in range(n_trees)]


def fit_stage(X, G, params: TreeParams | None = None, X_val=None):
    """Grow one regression tree per column of ``G`` on the rows of ``X``.

    Returns ``(trees, F, F_val)``: the M trees, and their predictions on X
    and on the validation rows ``X_val`` (none when not given); see
    :class:`StageGrower`, which grows many stages on one X.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2:
        raise ValueError(f"targets must be an (n, M) array, got shape {G.shape}")
    return StageGrower(X, G.shape[1], params, X_val)(G)


def fit_tree(X, targets, params: TreeParams | None = None) -> RegressionTree:
    """Fit one scalar-output regression tree by greedy SSE minimization:
    :func:`fit_stage` on one target column."""
    ys = np.asarray(targets, dtype=float).reshape(-1, 1)
    return fit_stage(X, ys, params)[0][0]


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

