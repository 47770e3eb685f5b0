import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcp.errors import DegenerateData, DimensionMismatch
from graphcp.qrf import ForestConfig, fit_forest
from tests.support import (
    forest_debug_dict,
    forest_weights,
    leaf_members,
    simulate_iid,
    time_limit,
)
from tests.test_seed_oracle import OracleForest


def empirical_lower_quantile(targets, level):
    """Independent sort-based oracle: smallest z with #(targets <= z)/n >= level."""
    ordered = np.sort(np.asarray(targets, dtype=np.float64))
    rank = int(np.ceil(level * ordered.shape[0]))
    return float(ordered[max(rank, 1) - 1])


def single_leaf_config(seed=0):
    return ForestConfig(n_trees=1, max_depth=0, bootstrap=False, seed=seed)


# ------------------------------------------------------------ fit basics


def test_single_row_gives_single_leaf():
    forest = fit_forest(np.array([[1.0, 2.0]]), np.array([7.0]), ForestConfig(n_trees=3, seed=1))
    for tree in forest.trees:
        assert tree.feature[0] == -1
    for p in (0.05, 0.5, 0.95):
        assert forest.quantile(np.zeros((1, 2)), [p])[0, 0] == 7.0


def test_constant_targets_constant_quantiles():
    rng = np.random.default_rng(0)
    forest = fit_forest(rng.normal(size=(40, 3)), np.full(40, 2.5), ForestConfig(n_trees=5, seed=2))
    for p in (0.1, 0.5, 0.9):
        assert forest.quantile(rng.normal(size=(1, 3)), [p])[0, 0] == 2.5


def test_step_data_split_recovers_levels():
    x = np.array([[-2.0], [-1.5], [-1.0], [-0.5], [0.0], [0.5], [1.0], [1.5]])
    y = np.where(x[:, 0] < 0, 0.0, 10.0)
    forest = fit_forest(x, y, ForestConfig(n_trees=7, min_leaf=1, bootstrap=False, seed=3))
    assert forest.quantile(np.array([[-1.0], [1.0]]), [0.5]).tolist() == [[0.0], [10.0]]


def test_empty_and_nan_inputs_rejected():
    with pytest.raises(DegenerateData):
        fit_forest(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(DegenerateData):
        fit_forest(np.array([[np.nan]]), np.array([1.0]))


def test_config_validation():
    with pytest.raises(DegenerateData):
        ForestConfig(n_trees=0)
    with pytest.raises(DegenerateData):
        ForestConfig(min_leaf=0)
    with pytest.raises(DegenerateData):
        fit_forest(np.zeros((4, 2)), np.zeros(4), ForestConfig(mtry=3))


def test_deterministic_given_seed():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(60, 4))
    y = rng.normal(size=60)
    f1 = fit_forest(x, y, ForestConfig(n_trees=10, seed=5))
    f2 = fit_forest(x, y, ForestConfig(n_trees=10, seed=5))
    q = rng.normal(size=(1, 4))
    levels = np.linspace(0.05, 0.95, 9)
    np.testing.assert_array_equal(f1.quantile(q, levels), f2.quantile(q, levels))


# ------------------------------------------------------------ quantiles


def test_depth_zero_single_tree_hand_values():
    targets = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    forest = fit_forest(np.zeros((5, 1)), targets, single_leaf_config())
    assert forest.quantile(np.zeros((1, 1)), [0.5, 0.05]).tolist() == [[3.0, 1.0]]


def test_depth_zero_matches_sort_oracle_on_random_sets():
    rng = np.random.default_rng(6)
    for trial in range(50):
        n = int(rng.integers(1, 80))
        targets = rng.normal(0.0, 5.0, size=n)
        forest = fit_forest(rng.normal(size=(n, 2)), targets, single_leaf_config(trial))
        for p in (0.05, 0.25, 0.5, 0.75, 0.95):
            value = forest.quantile(rng.normal(size=(1, 2)), [p])[0, 0]
            assert value == empirical_lower_quantile(targets, p)


def test_weights_nonnegative_and_sum_to_one():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(120, 3))
    y = rng.normal(size=120)
    forest = fit_forest(x, y, ForestConfig(n_trees=30, seed=8))
    for _ in range(20):
        w = forest_weights(forest, rng.normal(size=(1, 3)))[0]
        assert np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_quantiles_monotone_in_level(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(50, 2))
    y = rng.normal(size=50)
    forest = fit_forest(x, y, ForestConfig(n_trees=8, seed=seed))
    q = rng.normal(size=(1, 2))
    levels = np.sort(rng.uniform(0.01, 0.99, size=8))
    values = forest.quantile(q, levels)[0]
    assert np.all(np.diff(values) >= 0.0)


def test_monotone_in_level_many_queries():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(100, 3))
    y = rng.normal(size=100)
    forest = fit_forest(x, y, ForestConfig(n_trees=12, seed=10))
    for _ in range(100):
        q = rng.normal(size=(1, 3))
        v = forest.quantile(q, np.array([0.2, 0.5, 0.8]))[0]
        assert v[0] <= v[1] <= v[2]


def test_row_permutation_invariance_single_leaf():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(30, 2))
    y = rng.normal(size=30)
    forest_a = fit_forest(x, y, single_leaf_config())
    perm = rng.permutation(30)
    forest_b = fit_forest(x[perm], y[perm], single_leaf_config())
    for p in (0.05, 0.3, 0.5, 0.7, 0.95):
        q = np.zeros((1, 2))
        np.testing.assert_array_equal(forest_a.quantile(q, [p]), forest_b.quantile(q, [p]))


def test_query_dimension_checked():
    forest = fit_forest(np.zeros((4, 3)), np.arange(4.0), single_leaf_config())
    with pytest.raises(DimensionMismatch):
        forest.quantile(np.zeros((1, 2)), [0.5])
    with pytest.raises(DimensionMismatch):
        forest.quantile(np.zeros((1, 3)), [1.5])


@pytest.mark.parametrize(
    "queries, levels",
    [(np.zeros(3), [0.5]), (np.zeros((1, 3)), 0.5), (np.zeros((1, 3)), [[0.5]]),
     (np.zeros((1, 3)), [np.nan])],
    ids=["one_query", "scalar_level", "2d_levels", "nan_level"],
)
def test_quantile_takes_a_query_block_and_a_level_array(queries, levels):
    # a (p,) query and a scalar level used to return a float, (L,) or (Q,),
    # and a NaN level the smallest target
    forest = fit_forest(np.zeros((4, 3)), np.arange(4.0), single_leaf_config())
    with pytest.raises(DimensionMismatch):
        forest.quantile(queries, levels)


def test_fit_forest_takes_a_feature_matrix():
    # 1-D features used to be read as one column
    with pytest.raises(DegenerateData):
        fit_forest(np.arange(4.0), np.arange(4.0), single_leaf_config())


def test_forest_median_beats_constant_median_on_iid_data():
    x, y = simulate_iid(2000, seed=12)
    half = 1000
    forest = fit_forest(x[:half, None], y[:half], ForestConfig(n_trees=40, seed=13))
    global_median = float(np.median(y[:half]))
    loss_forest = 0.0
    loss_const = 0.0
    for xi, yi in zip(x[half:], y[half:]):
        pred = forest.quantile(np.array([[xi]]), [0.5])[0, 0]
        # the pinball loss at level 0.5 is half the absolute error
        loss_forest += 0.5 * abs(yi - pred)
        loss_const += 0.5 * abs(yi - global_median)
    assert loss_forest <= loss_const


# ------------------------------------------------------- split thresholds


def leaf_rows(forest):
    """Sorted member rows of every leaf of the forest's single tree."""
    tree = forest.trees[0]
    return sorted(
        leaf_members(tree, node).tolist() for node in np.flatnonzero(tree.feature < 0)
    )


def test_split_between_adjacent_doubles_terminates():
    # the midpoint of two neighbouring doubles rounds up to the larger one,
    # which used to send every row left and push the same node forever
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    x = np.array([a] * 5 + [b] * 5)[:, None]
    y = np.array([0.0] * 5 + [10.0] * 5)
    config = ForestConfig(n_trees=1, min_leaf=5, bootstrap=False, seed=0)
    with time_limit(10):
        forest = fit_forest(x, y, config)
    assert forest.trees[0].threshold[0] == a
    assert leaf_rows(forest) == [list(range(5)), list(range(5, 10))]
    assert forest.quantile([[a], [b]], [0.5]).tolist() == [[0.0], [10.0]]


def test_split_between_adjacent_doubles_matches_scored_partition():
    # the scored split separates a from b; a threshold rounded up to b put
    # the b rows left, giving leaves of 10 and 5 with mixed targets
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    x = np.array([a] * 5 + [b] * 5 + [2.0] * 5)[:, None]
    y = np.array([0.0] * 5 + [10.0] * 10)
    config = ForestConfig(n_trees=1, max_depth=1, min_leaf=5, bootstrap=False, seed=0)
    with time_limit(10):
        forest = fit_forest(x, y, config)
    assert leaf_rows(forest) == [list(range(5)), list(range(5, 15))]


def test_split_near_float_max_terminates():
    # a + b overflows to -inf, and the midpoint with it
    x = np.array([-1.5e308, -1.4e308, -1.3e308, -1.2e308])[:, None]
    y = np.arange(4.0)
    config = ForestConfig(n_trees=1, min_leaf=1, bootstrap=False, seed=0)
    with time_limit(10):
        forest = fit_forest(x, y, config)
    assert leaf_rows(forest) == [[0], [1], [2], [3]]
    assert forest.quantile(x, [0.5])[:, 0].tolist() == y.tolist()


# a few neighbouring doubles near 1, whose midpoints round to either end, and
# values near the float range's ends, whose sums overflow
_ONE = [1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)]
_EDGE = [-1.7e308, np.nextafter(-1.7e308, 0.0), -1.6e308]
_EDGE += [-v for v in _EDGE]


def assert_partitions(tree, x, min_leaf):
    """Each split sends exactly the rows with x <= threshold left, both sides
    non-empty, and each leaf below the root holds at least min_leaf rows."""
    stack = [(0, np.arange(x.shape[0]))]
    while stack:
        node, rows = stack.pop()
        f = tree.feature[node]
        if f < 0:
            assert leaf_members(tree, node).tolist() == rows.tolist()
            assert node == 0 or rows.shape[0] >= min_leaf
            continue
        left = x[rows, f] <= tree.threshold[node]
        assert 0 < np.count_nonzero(left) < rows.shape[0]
        stack += [(tree.left[node], rows[left]), (tree.right[node], rows[~left])]


@given(
    n=st.integers(1, 30),
    p=st.integers(1, 3),
    min_leaf=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_splits_match_scored_partitions(n, p, min_leaf, data):
    values = data.draw(st.sampled_from([_ONE, _EDGE, _ONE + _EDGE]))
    x = np.array(data.draw(st.lists(st.sampled_from(values), min_size=n * p, max_size=n * p)))
    x = x.reshape(n, p)
    y = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    config = ForestConfig(n_trees=3, min_leaf=min_leaf, mtry=p, bootstrap=False, seed=n)
    with time_limit(5):
        forest = fit_forest(x, y, config)
    for tree in forest.trees:
        assert_partitions(tree, x, min_leaf)


@pytest.mark.filterwarnings("error")
def test_targets_too_large_to_score_raise():
    # squaring their sums overflowed, and splits were chosen from inf or nan scores
    x = np.arange(4.0)[:, None]
    config = ForestConfig(n_trees=1, min_leaf=1, bootstrap=False)
    for y in ([0.0, 1e308, -1e308, 1.0], [1e154] * 4):
        with pytest.raises(DegenerateData, match="too large"):
            fit_forest(x, np.array(y), config)
    fit_forest(x, np.full(4, 3e153), config)


# ------------------------------------------------------------ rank path


def assert_matches_oracle(x, y, config, queries):
    """The forest's trees, thresholds to the bit, quantiles and weights
    equal the per-node float oracle's."""
    forest = fit_forest(x, y, config)
    oracle = OracleForest(x, y, config)
    assert forest_debug_dict(forest) == oracle.to_debug_dict()
    for tree, expected in zip(forest.trees, oracle.trees):
        assert tree.threshold.tobytes() == expected.threshold.tobytes()  # -0.0 too
    levels = np.array([0.05, 0.3, 0.5, 0.95])
    np.testing.assert_array_equal(
        forest.quantile(queries, levels), [oracle.quantile(q, levels) for q in queries]
    )
    np.testing.assert_array_equal(
        forest_weights(forest, queries), [oracle.weights(q) for q in queries]
    )
    return forest


RANK_CONFIGS = (
    dict(n_trees=5, min_leaf=1),
    dict(n_trees=4, min_leaf=3, mtry=2),
    dict(n_trees=3, min_leaf=7, bootstrap=False),
)


@pytest.mark.parametrize("params", RANK_CONFIGS)
def test_heavily_tied_features_match_oracle(params):
    rng = np.random.default_rng(11)
    x = np.round(rng.normal(size=(300, 4)), 1)
    y = np.round(rng.normal(size=300), 1)
    queries = np.concatenate([x[:15], np.round(rng.normal(size=(15, 4)), 1)])
    assert_matches_oracle(x, y, ForestConfig(seed=3, **params), queries)


@pytest.mark.parametrize("params", RANK_CONFIGS)
def test_constant_column_matches_oracle(params):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(200, 3))
    x[:, 1] = -2.5
    y = x[:, 0] + rng.normal(size=200)
    queries = np.concatenate([x[:10], rng.normal(size=(10, 3))])
    assert_matches_oracle(x, y, ForestConfig(seed=4, **params), queries)


@pytest.mark.parametrize("params", RANK_CONFIGS)
def test_signed_zeros_share_a_rank(params):
    # -0.0 and 0.0 compare equal, so they tie like any equal pair: by row
    rng = np.random.default_rng(13)
    values = np.array([-1.0, -0.0, 0.0, 1.0, 2.0])
    x = rng.choice(values, size=(160, 2), p=[0.15, 0.3, 0.3, 0.15, 0.1])
    y = rng.integers(0, 6, size=160).astype(np.float64)
    queries = np.array([[a, b] for a in values for b in values])
    assert_matches_oracle(x, y, ForestConfig(seed=5, **params), queries)


@pytest.mark.parametrize("params", RANK_CONFIGS)
def test_neighbouring_subnormals_match_oracle(params):
    # the midpoint of -5e-324 and a zero rounds to -0.0, the upper value, so
    # both the forest and the oracle split at the lower one
    rng = np.random.default_rng(16)
    values = np.array([-1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0])
    x = np.stack([rng.choice(values, size=180), rng.normal(size=180)], axis=1)
    y = np.where(x[:, 0] < 0, 0.0, 4.0) + rng.normal(size=180)
    queries = np.array([[v, 0.0] for v in values])
    with time_limit(20):
        assert_matches_oracle(x, y, ForestConfig(seed=8, **params), queries)


@pytest.mark.parametrize("min_leaf", [1, 4])
def test_nodes_of_twice_min_leaf_rows_match_oracle(min_leaf):
    # a node of 2 * min_leaf rows has a single scored position
    rng = np.random.default_rng(14)
    for n in (2 * min_leaf, 2 * min_leaf + 1, 40):
        x = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        for bootstrap in (False, True):
            config = ForestConfig(n_trees=3, min_leaf=min_leaf, bootstrap=bootstrap, seed=n)
            assert_matches_oracle(x, y, config, np.concatenate([x, rng.normal(size=(5, 2))]))


@pytest.mark.parametrize(
    "x, params",
    [
        (np.arange(14.0).reshape(7, 2), dict(min_leaf=4)),  # too few rows to split
        (np.full((30, 2), 0.5), dict(min_leaf=1)),  # no valid split
        (np.arange(60.0).reshape(30, 2), dict(min_leaf=1, max_depth=0)),
    ],
    ids=["few_rows", "constant", "depth_zero"],
)
def test_forest_of_single_leaves_matches_oracle(x, params):
    y = np.linspace(-1.0, 2.0, x.shape[0])
    forest = assert_matches_oracle(x, y, ForestConfig(n_trees=4, seed=6, **params), x[:5])
    assert all(tree.feature.tolist() == [-1] for tree in forest.trees)


def test_ranks_beyond_uint16_match_oracle():
    # 70,000 distinct values: their ranks would wrap in 16 bits
    rng = np.random.default_rng(15)
    n = 70_000
    x = np.stack([rng.permutation(n) * 0.5, rng.normal(size=n)], axis=1)
    y = np.where(x[:, 0] > 20_000, 3.0, 0.0) + rng.normal(size=n)
    config = ForestConfig(n_trees=1, max_depth=2, min_leaf=100, mtry=2, seed=7)
    assert_matches_oracle(x, y, config, x[:4])
