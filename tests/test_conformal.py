import math

import numpy as np
import pytest
from scipy import stats

from graphcp.conformal import (
    IntervalSeries,
    _check_window,
    _derived_forest_config,
    build_qrf_training_set,
    poisson_interval,
    read_interval_series,
    run_conformal,
    vanilla_cp,
)
from graphcp.errors import InsufficientHistory, UnknownMethod
from graphcp.model import ModelParams, ResponseWeights, intensity
from graphcp.panel import ServiceGraph, split
from graphcp.qrf import ForestConfig, fit_forest
from graphcp.synth import GraphSpec, ScenarioConfig, WeatherSpec, simulate


def oracle_poisson_quantile(rate, level):
    """Smallest k with Poisson CDF(k) >= level, by direct summation."""
    total = 0.0
    k = 0
    while True:
        total += math.exp(-rate) * rate**k / math.factorial(k)
        if total >= level:
            return k
        k += 1


# ---------------------------------------------------------------- vanilla


def test_vanilla_rank_hand_case():
    lower, upper = vanilla_cp([1.0, 2.0, 3.0, 4.0], alpha=0.2, point=10.0)
    assert (lower, upper) == (6.0, 14.0)


def test_vanilla_rank_overflow_gives_infinite_interval():
    lower, upper = vanilla_cp([1.0, 2.0, 3.0, 4.0], alpha=0.05, point=0.0)
    assert lower == -math.inf and upper == math.inf


def test_vanilla_zero_residuals_degenerate():
    lower, upper = vanilla_cp(np.zeros(50), alpha=0.1, point=3.0)
    assert lower == 3.0 and upper == 3.0


def test_vanilla_uses_absolute_residuals():
    a = vanilla_cp([-5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 0.2, 0.0)
    b = vanilla_cp([5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 0.2, 0.0)
    assert a == b


def test_vanilla_empty_raises():
    with pytest.raises(InsufficientHistory):
        vanilla_cp([], 0.1, 0.0)


# ---------------------------------------------------------------- poisson


def test_poisson_interval_hand_case():
    assert poisson_interval(4.0, 0.1) == (1.0, 8.0)


def test_poisson_interval_matches_cdf_oracle():
    for rate in (0.3, 1.0, 4.0, 11.5, 30.0):
        for alpha in (0.02, 0.1, 0.4):
            lower, upper = poisson_interval(rate, alpha)
            assert lower == oracle_poisson_quantile(rate, alpha / 2.0)
            assert upper == oracle_poisson_quantile(rate, 1.0 - alpha / 2.0)


# ---------------------------------------------------------------- history


def test_history_window_and_capacity_validation():
    with pytest.raises(InsufficientHistory):
        _check_window(5, 5)
    with pytest.raises(InsufficientHistory):
        _check_window(1, 1)
    with pytest.raises(InsufficientHistory):
        _check_window(3, 0)
    _check_window(3, 2)


# ---------------------------------------------------------------- features


def test_training_rows_single_node_ordering():
    buffered = np.array([[1.0, 2.0, 3.0, 4.0, 5.0]])
    features, targets = build_qrf_training_set(buffered, [0], 2)
    np.testing.assert_array_equal(features, [[2.0, 1.0], [3.0, 2.0], [4.0, 3.0]])
    np.testing.assert_array_equal(targets, [3.0, 4.0, 5.0])


def test_training_rows_pooled_count():
    buffered = np.array([[float(value + node) for value in range(5)] for node in range(3)])
    features, targets = build_qrf_training_set(buffered, [0, 1, 2], 2)
    assert features.shape == (9, 2)
    assert targets.shape == (9,)


def test_training_rows_insufficient_history():
    with pytest.raises(InsufficientHistory):
        build_qrf_training_set(np.array([[1.0, 2.0, 3.0]]), [0], 3)


# ---------------------------------------------------------------- step


def forest_interval(buffered, node, pool, window, config, alpha, point):
    """One node's forest interval: fit on the pool's rows, query the node's
    freshest ``window`` residuals (newest first), widen around ``point``."""
    features, targets = build_qrf_training_set(buffered, pool, window)
    forest = fit_forest(features, targets, config)
    q = forest.quantile(buffered[node, ::-1][:window], np.array([alpha / 2, 1 - alpha / 2]))
    return point + q[0], point + q[1]


def test_graph_cp_step_interval_structure():
    rng = np.random.default_rng(0)
    buffered = rng.normal(0.0, 1.0, size=(3, 60))
    config = ForestConfig(n_trees=10, min_leaf=5, seed=1)
    lower, upper = forest_interval(buffered, 0, [0, 1, 2], 4, config, alpha=0.1, point=10.0)
    assert lower <= upper
    assert lower > 10.0 - 8.0 and upper < 10.0 + 8.0  # residual scale ~ N(0,1)


def test_graph_cp_step_hand_interval():
    # single-leaf forest over targets in {-3, 5}: the 0.05 quantile is -3
    # and the 0.95 quantile is 5, so the interval around 10 is [7, 15]
    buffered = np.array([(-3.0, 5.0) * 5])
    config = ForestConfig(n_trees=1, max_depth=0, bootstrap=False, seed=0)
    lower, upper = forest_interval(buffered, 0, [0], 1, config, alpha=0.1, point=10.0)
    assert (lower, upper) == (7.0, 15.0)


def test_graph_cp_step_matches_manual_quantiles():
    # run_conformal's first graph interval of each node is the forest fitted
    # on its neighbourhood's warm-up residuals, queried at the newest window
    panel, graph, params, data_split = small_setup(6)
    config = ForestConfig(n_trees=6, min_leaf=4, seed=7)
    series = run_conformal(
        panel, graph, params, data_split, "graph",
        alpha=0.2, window=3, retrain_stride=None, forest_config=config,
    )
    rates = intensity(panel, graph, params)
    cal_lo, cal_hi = data_split.calibration
    test_lo = data_split.test[0]
    buffered = (panel.counts - rates)[:, cal_lo - 1 : cal_hi]
    first = series.time == test_lo
    for j in range(graph.n_nodes):
        derived = _derived_forest_config(config, j, 0)
        lower, upper = forest_interval(
            buffered, j, sorted(graph.neighborhood(j)), 3, derived, 0.2, rates[j, test_lo - 1]
        )
        assert series.lower[first][j] == lower
        assert series.upper[first][j] == upper


# ---------------------------------------------------------------- runner


def small_setup(seed=0, k=4, t_total=240, edges=((0, 1), (1, 2), (2, 3))):
    params = ModelParams(
        coupling={e: 0.3 for e in edges},
        decay=np.full(k, 0.9),
        scale=np.full(k, 1.5),
        weather_decay=np.array([0.3]),
        response=ResponseWeights.zeros(3, 1),
        window=6,
    )
    config = ScenarioConfig(
        graph=GraphSpec(kind="edges", n_nodes=k, edges=tuple(edges)),
        n_steps=t_total,
        params=params,
        weather=WeatherSpec(ar_coefs=(0.5,), noise_scales=(1.0,)),
        seed=seed,
    )
    graph = config.graph.build()
    panel = simulate(config)
    data_split = split(panel, (1 / 3, 1 / 3, 1 / 3))
    return panel, graph, params, data_split


def test_run_conformal_unknown_method():
    panel, graph, params, data_split = small_setup()
    with pytest.raises(UnknownMethod):
        run_conformal(panel, graph, params, data_split, "magic")


def test_run_conformal_poisson_intervals_match_rates():
    panel, graph, params, data_split = small_setup(1)
    series = run_conformal(panel, graph, params, data_split, "poisson", alpha=0.1)
    lo_expect = stats.poisson.ppf(0.05, series.point)
    hi_expect = stats.poisson.ppf(0.95, series.point)
    np.testing.assert_array_equal(series.lower, lo_expect)
    np.testing.assert_array_equal(series.upper, hi_expect)
    t_lo, t_hi = data_split.test
    assert len(series) == graph.n_nodes * (t_hi - t_lo + 1)


def test_run_conformal_emits_every_cell_with_stride_inf(tmp_path):
    panel, graph, params, data_split = small_setup(2)
    series = run_conformal(
        panel,
        graph,
        params,
        data_split,
        "graph",
        alpha=0.1,
        window=4,
        retrain_stride=None,
        forest_config=ForestConfig(n_trees=5, min_leaf=5, seed=3),
    )
    t_lo, t_hi = data_split.test
    assert len(series) == graph.n_nodes * (t_hi - t_lo + 1)
    assert np.all(series.lower <= series.upper)
    # round trip through csv is bit exact
    path = tmp_path / "intervals.csv"
    series.to_csv(path)
    back = read_interval_series(path)
    np.testing.assert_array_equal(back.lower, series.lower)
    np.testing.assert_array_equal(back.upper, series.upper)
    np.testing.assert_array_equal(back.point, series.point)
    np.testing.assert_array_equal(back.y_true, series.y_true)
    assert back.method == series.method


def test_edgeless_graph_and_temporal_are_bit_identical():
    k = 3
    panel, _, _, data_split = small_setup(3, k=k, edges=())
    graph = ServiceGraph.from_edges(k, [])
    params = ModelParams(
        coupling={},
        decay=np.full(k, 0.9),
        scale=np.full(k, 1.5),
        weather_decay=np.array([0.3]),
        response=ResponseWeights.zeros(3, 1),
        window=6,
    )
    kwargs = dict(
        alpha=0.1,
        window=4,
        retrain_stride=10,
        forest_config=ForestConfig(n_trees=8, min_leaf=5, seed=11),
    )
    a = run_conformal(panel, graph, params, data_split, "graph", **kwargs)
    b = run_conformal(panel, graph, params, data_split, "temporal", **kwargs)
    np.testing.assert_array_equal(a.point, b.point)
    np.testing.assert_array_equal(a.lower, b.lower)
    np.testing.assert_array_equal(a.upper, b.upper)


def test_run_conformal_residual_ingestion():
    # after the run, the newest buffered residual must be the last test step's
    panel, graph, params, data_split = small_setup(4)
    series = run_conformal(panel, graph, params, data_split, "vanilla", alpha=0.1)
    t_hi = data_split.test[1]
    last = series.y_true[series.time == t_hi] - series.point[series.time == t_hi]
    assert np.all(np.isfinite(last))


def test_run_conformal_warmup_too_short():
    panel, graph, params, data_split = small_setup(5)
    with pytest.raises(InsufficientHistory):
        run_conformal(
            panel, graph, params, data_split, "vanilla", calib_window=10_000
        )


def test_interval_series_rejects_crossed_bounds():
    with pytest.raises(Exception):
        IntervalSeries(
            method="x",
            node=np.array([0]),
            time=np.array([1]),
            point=np.array([1.0]),
            lower=np.array([2.0]),
            upper=np.array([1.0]),
            y_true=np.array([0.0]),
        )
