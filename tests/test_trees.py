import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mvboost import trees
from mvboost.model_io import tree_from_dict, tree_to_dict
from mvboost.trees import (
    EmptyTrainingSetError,
    Leaf,
    RegressionTree,
    Split,
    StageGrower,
    TreeParams,
    fit_stage,
    fit_tree,
    predict_tree,
    predict_tree_batch,
)

from conftest import in_layout


def training_sse(tree, X, ys):
    preds = predict_tree_batch(tree, X)
    return float(np.sum((ys - preds) ** 2))


def exhaustive_best_split(X, ys, min_leaf=1):
    """Brute force over every (feature, midpoint) pair; ties to lowest feature
    index then lowest threshold."""
    best = None
    for feat in range(X.shape[1]):
        values = np.unique(X[:, feat])
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = 0.5 * (lo + hi)
            mask = X[:, feat] <= threshold
            nl, nr = mask.sum(), (~mask).sum()
            if nl < min_leaf or nr < min_leaf:
                continue
            sse = np.sum((ys[mask] - ys[mask].mean()) ** 2) + np.sum(
                (ys[~mask] - ys[~mask].mean()) ** 2
            )
            if best is None or sse < best[2] - 1e-12 * best[2]:
                best = (feat, threshold, sse)
    return best


class TestFitTree:
    def test_constant_targets_single_leaf(self):
        tree = fit_tree(np.arange(8.0)[:, None], np.full(8, 7.0))
        assert isinstance(tree.root, Leaf)
        assert tree.root.value == 7.0

    def test_step_function_stump(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        ys = np.array([0.0, 0.0, 10.0, 10.0])
        tree = fit_tree(X, ys, TreeParams(max_depth=1))
        root = tree.root
        assert isinstance(root, Split)
        assert root.threshold == pytest.approx(1.5)
        assert root.left.value == 0.0
        assert root.right.value == 10.0

    def test_sse_monotone_in_depth(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(120, 2))
        ys = np.sin(X[:, 0]) + rng.normal(scale=0.1, size=120)
        sses = [
            training_sse(fit_tree(X, ys, TreeParams(max_depth=d)), X, ys)
            for d in range(1, 7)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(sses, sses[1:]))

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyTrainingSetError):
            fit_tree(np.empty((0, 1)), np.empty(0))

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 1))
        ys = rng.normal(size=40)
        tree = fit_tree(X, ys, TreeParams(max_depth=6, min_samples_leaf=5))

        def leaf_counts(node, idx):
            if isinstance(node, Leaf):
                return [idx.sum()]
            mask = X[:, node.feature_index] <= node.threshold
            return leaf_counts(node.left, idx & mask) + leaf_counts(node.right, idx & ~mask)

        assert min(leaf_counts(tree.root, np.ones(40, dtype=bool))) >= 5

    def test_depth_limit(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 1))
        ys = rng.normal(size=200)
        tree = fit_tree(X, ys, TreeParams(max_depth=3))

        def depth(node):
            if isinstance(node, Leaf):
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(tree.root) <= 3

    def test_leaf_value_is_mean(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        ys = np.array([1.0, 3.0, 10.0, 14.0])
        tree = fit_tree(X, ys, TreeParams(max_depth=1))
        assert tree.root.left.value == pytest.approx(2.0)
        assert tree.root.right.value == pytest.approx(12.0)


class TestGreedyOracle:
    def test_root_split_matches_exhaustive_search(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 65))
            d = int(rng.integers(1, 4))
            X = np.round(rng.normal(size=(n, d)), 2)
            ys = rng.normal(size=n)
            oracle = exhaustive_best_split(X, ys)
            tree = fit_tree(X, ys, TreeParams(max_depth=1))
            if oracle is None:
                continue
            if isinstance(tree.root, Leaf):
                # greedy declined: only possible when no split improves
                parent = np.sum((ys - ys.mean()) ** 2)
                assert oracle[2] >= parent - 1e-9
                continue
            greedy_sse = training_sse(tree, X, ys)
            assert greedy_sse == pytest.approx(oracle[2], abs=1e-8)

    def test_two_level_matches_recursive_exhaustive(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(8, 40))
            X = np.round(rng.normal(size=(n, 2)), 1)
            ys = rng.normal(size=n)
            tree = fit_tree(X, ys, TreeParams(max_depth=2))
            # recompute what exhaustive recursion would score
            oracle = exhaustive_best_split(X, ys)
            if oracle is None or isinstance(tree.root, Leaf):
                continue
            mask = X[:, tree.root.feature_index] <= tree.root.threshold
            expected = 0.0
            for sub in (mask, ~mask):
                sub_best = exhaustive_best_split(X[sub], ys[sub])
                if sub_best is None:
                    expected += np.sum((ys[sub] - ys[sub].mean()) ** 2)
                else:
                    expected += min(
                        sub_best[2], np.sum((ys[sub] - ys[sub].mean()) ** 2)
                    )
            assert training_sse(tree, X, ys) == pytest.approx(expected, abs=1e-8)

    def test_tie_breaks_to_lowest_feature(self):
        # identical columns: split must use feature 0
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        ys = np.array([0.0, 0.0, 1.0, 1.0])
        tree = fit_tree(X, ys, TreeParams(max_depth=1))
        assert tree.root.feature_index == 0


class TestPredict:
    def test_single_leaf(self):
        tree = fit_tree(np.zeros((3, 1)), np.full(3, 2.5))
        assert predict_tree(tree, [123.0]) == 2.5

    def test_stump_routing(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        ys = np.array([0.0, 0.0, 10.0, 10.0])
        tree = fit_tree(X, ys, TreeParams(max_depth=1))
        assert predict_tree(tree, [1.4]) == 0.0
        assert predict_tree(tree, [1.6]) == 10.0
        assert predict_tree(tree, [1.5]) == 0.0  # equality routes left
        rows = np.array([[1.4], [1.5], [1.6]])
        for layout in ("C", "F", "strided"):
            assert predict_tree_batch(tree, in_layout(rows, layout)).tolist() == [0.0, 0.0, 10.0]

    def test_full_depth_memorizes(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(32, 1))
        ys = rng.normal(size=32)
        tree = fit_tree(X, ys, TreeParams(max_depth=32))
        assert np.allclose(predict_tree_batch(tree, X), ys)

    def test_batch_matches_rowwise(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 3))
        ys = rng.normal(size=50)
        tree = fit_tree(X, ys, TreeParams(max_depth=4))
        batch = predict_tree_batch(tree, X)
        rows = np.array([predict_tree(tree, x) for x in X])
        assert np.array_equal(batch, rows)


def reference_tree(X, ys, params, depth=0):
    """The grower without presorting: every node sorts each feature afresh
    and scans it with the same SSE formula and tie-breaks."""
    n = ys.shape[0]
    leaf = Leaf(float(ys.mean()))
    if depth >= params.max_depth or n < 2 * params.min_samples_leaf:
        return leaf
    parent_sse = float(np.sum((ys - ys.mean()) ** 2))
    if parent_sse <= trees._GAIN_TOL * float(np.sum(ys * ys)):
        return leaf
    best = None
    sizes = np.arange(1, n, dtype=float)
    for feat in range(X.shape[1]):
        order = np.argsort(X[:, feat], kind="stable")
        xs, yo = X[order, feat], ys[order]
        c1, c2 = np.cumsum(yo), np.cumsum(yo * yo)
        sse = (c2[:-1] - c1[:-1] * c1[:-1] / sizes) + (
            (c2[-1] - c2[:-1]) - (c1[-1] - c1[:-1]) * (c1[-1] - c1[:-1]) / (n - sizes)
        )
        valid = (xs[1:] != xs[:-1]) & (sizes >= params.min_samples_leaf) & (
            n - sizes >= params.min_samples_leaf
        )
        if valid.any():
            pos = int(np.argmin(np.where(valid, sse, np.inf)))
            if best is None or sse[pos] < best[2]:
                best = (feat, float(0.5 * (xs[pos] + xs[pos + 1])), sse[pos])
    if best is None or parent_sse - best[2] <= trees._GAIN_TOL * parent_sse:
        return leaf
    mask = X[:, best[0]] <= best[1]
    return Split(best[0], best[1], reference_tree(X[mask], ys[mask], params, depth + 1),
                 reference_tree(X[~mask], ys[~mask], params, depth + 1))


@st.composite
def tie_heavy_problems(draw):
    n = draw(st.integers(2, 80))
    d = draw(st.integers(1, 4))
    X = draw(arrays(float, (n, d), elements=st.integers(-15, 15).map(lambda v: v / 10)))
    ys = draw(arrays(float, n, elements=st.floats(-10, 10, allow_nan=False)))
    params = TreeParams(max_depth=draw(st.integers(1, 4)),
                        min_samples_leaf=draw(st.integers(1, 5)))
    return X, ys, params


class TestPresortedGrower:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_problems())
    def test_every_split_matches_exhaustive_search(self, problem):
        X, ys, params = problem
        tree = fit_tree(X, ys, params)

        def check(node, rows, depth):
            sub_X, sub_ys = X[rows], ys[rows]
            parent_sse = float(np.sum((sub_ys - sub_ys.mean()) ** 2))
            oracle = exhaustive_best_split(sub_X, sub_ys, params.min_samples_leaf)
            if isinstance(node, Leaf):
                # greedy declined with room left: no split improves the node
                if oracle is not None and depth < params.max_depth:
                    slack = 1e-9 * max(1.0, float(np.sum(sub_ys * sub_ys)))
                    assert oracle[2] >= parent_sse - slack
                return
            mask = X[:, node.feature_index] <= node.threshold
            left, right = rows & mask, rows & ~mask
            children = sum(float(np.sum((ys[r] - ys[r].mean()) ** 2)) for r in (left, right))
            # relative to the node's SSE, the scale the cumulative sums round at
            assert abs(children - oracle[2]) <= 1e-9 * max(oracle[2], parent_sse)
            check(node.left, left, depth + 1)
            check(node.right, right, depth + 1)

        check(tree.root, np.ones(len(ys), dtype=bool), 0)

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_problems())
    def test_given_order_and_reference_grower_agree(self, problem):
        X, ys, params = problem
        tree = fit_tree(X, ys, params)
        assert tree.root == reference_tree(X, ys, params)


def _splits(node):
    if isinstance(node, Leaf):
        return []
    return [node] + _splits(node.left) + _splits(node.right)


class TestPredictLayouts:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_problems(), st.sampled_from(["C", "F", "strided"]), st.booleans())
    def test_batch_matches_rowwise_bit_for_bit(self, problem, layout, single_leaf):
        X, ys, params = problem
        if single_leaf:
            tree = RegressionTree(root=Leaf(float(ys[0])), n_features=X.shape[1])
        else:
            tree = fit_tree(X, ys, params)
        # rows that sit exactly on a split's threshold, which routes them left
        on_threshold = []
        for split in _splits(tree.root):
            row = X[0].copy()
            row[split.feature_index] = split.threshold
            on_threshold.append(row)
        rows = np.vstack([X, *on_threshold])
        expected = np.array([predict_tree(tree, x) for x in rows])
        batch_X = in_layout(rows, layout)
        assert np.array_equal(predict_tree_batch(tree, batch_X), expected)
        assert predict_tree_batch(tree, batch_X[:0]).shape == (0,)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 2))
        ys = rng.normal(size=60)
        tree = fit_tree(X, ys, TreeParams(max_depth=3))
        restored = tree_from_dict(tree_to_dict(tree))
        assert np.array_equal(
            predict_tree_batch(tree, X), predict_tree_batch(restored, X)
        )
        assert tree_to_dict(restored) == tree_to_dict(tree)


@st.composite
def tie_heavy_stages(draw):
    """A tie-heavy problem with 1-6 target columns: one stage's trees."""
    X, ys, params = draw(tie_heavy_problems())
    more = draw(st.integers(0, 5))
    G = draw(arrays(float, (len(ys), more), elements=st.floats(-10, 10, allow_nan=False)))
    return X, np.column_stack([ys, G]), params


def midpoints_between(column):
    """Whether each midpoint of neighbouring sorted values lies strictly
    between them.  It does not between adjacent doubles, where
    ``reference_tree`` would make an empty child; the grower makes a leaf
    there (``test_midpoint_rounded_onto_a_value``)."""
    ranked = np.sort(column)
    mid = 0.5 * (ranked[1:] + ranked[:-1])
    return bool(np.all((ranked[:-1] < mid) & (mid < ranked[1:])))


@st.composite
def tie_free_stages(draw):
    """One stage's trees on continuous columns, where no column repeats a
    value, or on one tied column next to one tie-free column."""
    n = draw(st.integers(2, 80))
    distinct = arrays(float, n, unique=True,
                      elements=st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
                      ).filter(midpoints_between)
    if draw(st.booleans()):
        X = np.column_stack([draw(distinct) for _ in range(draw(st.integers(1, 4)))])
    else:
        tied = draw(arrays(float, n, elements=st.integers(-5, 5).map(lambda v: v / 10)))
        columns = [tied, draw(distinct)]
        X = np.column_stack(columns if draw(st.booleans()) else columns[::-1])
    G = draw(arrays(float, (n, draw(st.integers(1, 4))),
                    elements=st.floats(-10, 10, allow_nan=False)))
    params = TreeParams(max_depth=draw(st.integers(1, 4)),
                        min_samples_leaf=draw(st.integers(1, 5)))
    return X, G, params


def small_levels(small):
    """Levels of one tree and blocks of a few nodes, when ``small``."""
    return mock.patch.multiple(trees, _LEVEL=1, _BLOCK=64) if small else contextlib.nullcontext()


def rows_on_thresholds(X, stage):
    """X, and rows of X moved onto each split's threshold (which routes them
    left) and onto the next double above it."""
    rows = [X]
    for tree in stage:
        for split in _splits(tree.root):
            for value in (split.threshold, np.nextafter(split.threshold, np.inf)):
                moved = X[:3].copy()
                moved[:, split.feature_index] = value
                rows.append(moved)
    return np.vstack(rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # growth computes no inf or nan
class TestFitStage:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_stages(), st.sampled_from(["C", "F", "strided"]))
    def test_each_column_is_the_reference_tree_and_F_its_prediction(self, problem, layout):
        X, G, params = problem
        stage, F, _ = fit_stage(in_layout(X, layout), in_layout(G, layout), params)
        assert len(stage) == G.shape[1] and F.shape == G.shape
        for m, tree in enumerate(stage):
            assert tree.root == reference_tree(X, G[:, m], params)
            assert np.array_equal(F[:, m], predict_tree_batch(tree, X))

    def test_groups_and_blocks_do_not_change_the_trees(self, monkeypatch):
        rng = np.random.default_rng(11)
        X = np.round(rng.normal(size=(120, 2)), 1)
        G = rng.normal(size=(120, 5))
        params = TreeParams(max_depth=6)
        stage, F, _ = fit_stage(X, G, params)
        # one tree per level and a few nodes per block, where the default
        # grows all five trees in one level and one block
        monkeypatch.setattr(trees, "_LEVEL", 1)
        monkeypatch.setattr(trees, "_BLOCK", 64)
        small_stage, small_F, _ = fit_stage(X, G, params)
        assert small_stage == stage
        assert np.array_equal(small_F, F)

    @pytest.mark.parametrize("small", [False, True], ids=["default", "small-levels"])
    def test_one_grower_over_many_stages(self, small):
        # The grower sorts X, finds its ties and allocates its arrays once;
        # every stage it grows, after any other, is what a fresh fit_stage
        # grows, and a stage that overflows leaves the next one whole.
        rng = np.random.default_rng(13)
        X = np.round(rng.normal(size=(150, 3)), 1)  # tie-heavy
        X[:, 1] = 2.0  # a constant column
        X_val = np.vstack([X[:20], np.round(rng.normal(size=(30, 3)), 1)])
        params = TreeParams(max_depth=4, min_samples_leaf=2)
        with small_levels(small):
            grower = StageGrower(X, 4, params, X_val)
            for scale in (1.0, 1e-6, 1e6, 1e160, 1.0):
                G = scale * rng.normal(size=(150, 4))
                G[:, 2] = scale  # a constant target
                if scale == 1e160:  # its squared sums pass 1.8e308
                    with pytest.raises(FloatingPointError):
                        grower(G)
                    continue
                stage, F, F_val = grower(G)
                fresh_stage, fresh_F, fresh_F_val = fit_stage(X, G, params, X_val)
                assert stage == fresh_stage
                assert np.array_equal(F, fresh_F) and np.array_equal(F_val, fresh_F_val)

    def test_single_column_is_fit_tree(self):
        rng = np.random.default_rng(9)
        X = np.round(rng.normal(size=(90, 3)), 1)
        G = rng.normal(size=(90, 4))
        params = TreeParams(max_depth=5, min_samples_leaf=2)
        stage, _, _ = fit_stage(X, G, params)
        assert stage == tuple(fit_tree(X, G[:, m], params) for m in range(4))

    def test_overflow_raises(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(50, 1))
        G = rng.normal(size=(50, 2))
        fit_stage(X, 1e150 * G)
        with pytest.raises(FloatingPointError):  # its squared sums pass 1.8e308
            fit_stage(X, 1e160 * G)

    def test_no_overflow_beyond_the_split_scan(self):
        # The squared node total (3.5e308) overflows, but it is no split's
        # term: every sum the split scan needs fits.
        stage, F, _ = fit_stage(np.array([[0.0], [1.0]]), np.array([[9.4e153], [9.3e153]]))
        assert isinstance(stage[0].root, Split)
        assert F[:, 0].tolist() == [9.4e153, 9.3e153]

    def test_midpoint_rounded_onto_a_value(self):
        # Between adjacent doubles the midpoint rounds onto one of them.
        up = np.array([[1.0], [np.nextafter(1.0, 2.0)]])
        stage, F, _ = fit_stage(up, np.array([[0.0], [1.0]]))
        assert stage[0].root.threshold == 1.0  # the lower value routes left
        assert F[:, 0].tolist() == [0.0, 1.0]
        down = np.array([[np.nextafter(1.0, 0.0)], [1.0]])
        stage, F, _ = fit_stage(down, np.array([[0.0], [1.0]]))
        assert isinstance(stage[0].root, Leaf)  # every row routes left: no split
        assert F[:, 0].tolist() == [0.5, 0.5]

    def test_shapes_checked(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError, match="targets"):
            fit_stage(X, np.zeros(4))
        with pytest.raises(ValueError, match="row mismatch"):
            fit_stage(X, np.zeros((5, 1)))
        with pytest.raises(EmptyTrainingSetError):
            fit_stage(np.empty((0, 2)), np.empty((0, 1)))

    @settings(max_examples=300, deadline=None)
    @given(tie_free_stages(), st.booleans())
    def test_tie_free_columns_give_the_reference_trees(self, problem, small):
        X, G, params = problem
        with small_levels(small):
            stage, F, _ = fit_stage(X, G, params)
        for m, tree in enumerate(stage):
            assert tree.root == reference_tree(X, G[:, m], params)
            assert np.array_equal(F[:, m], predict_tree_batch(tree, X))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(tie_heavy_stages(), tie_free_stages()), st.booleans())
    def test_validation_predictions_are_the_trees_predictions(self, problem, small):
        X, G, params = problem
        stage, F, _ = fit_stage(X, G, params)
        X_val = rows_on_thresholds(X, stage)
        with small_levels(small):
            val_stage, val_F, F_val = fit_stage(X, G, params, X_val=X_val)
        assert val_stage == stage and np.array_equal(val_F, F)
        assert F_val.shape == (len(X_val), G.shape[1]) and F_val.flags.f_contiguous
        for m, tree in enumerate(stage):
            assert np.array_equal(F_val[:, m], predict_tree_batch(tree, X_val))

    @pytest.mark.parametrize("small", [False, True], ids=["default", "small-levels"])
    def test_child_with_constant_targets_is_a_leaf(self, small):
        # The root splits its rows 0-5 from 6-11; the left child's targets
        # are constant in column 0, and constant within the tolerance (not
        # exactly) in column 1.  Column 2 is constant at the root.
        x0 = np.arange(12.0)
        X = np.column_stack([x0, x0 % 2])
        right = np.array([100.0, 103.0, 101.0, 104.0, 101.0, 105.0])
        G = np.column_stack([
            np.concatenate([np.full(6, 5.0), right]),
            np.concatenate([1000.0 + 1e-10 * np.array([0, 1, 0, 2, 1, 0]), right]),
            np.full(12, 7.0),
            np.random.default_rng(12).normal(size=12),
        ])
        params = TreeParams(max_depth=3)
        with small_levels(small):
            stage, F, _ = fit_stage(X, G, params)
        for m, tree in enumerate(stage):
            assert tree.root == reference_tree(X, G[:, m], params)
            assert np.array_equal(F[:, m], predict_tree_batch(tree, X))
        for tree in stage[:2]:
            assert isinstance(tree.root.left, Leaf) and isinstance(tree.root.right, Split)
        assert stage[2].root == Leaf(7.0)

    def test_validation_rows_shape_checked(self):
        X, G = np.arange(8.0).reshape(4, 2), np.arange(4.0).reshape(4, 1)
        stage, F, F_val = fit_stage(X, G, X_val=X[:0])
        assert F_val.shape == (0, 1)
        with pytest.raises(ValueError, match="X_val"):
            fit_stage(X, G, X_val=np.zeros((3, 3)))
