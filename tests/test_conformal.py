import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from graphcp import conformal
from graphcp.conformal import (
    IntervalSeries,
    _check_window,
    _derived_forest_config,
    _forest_intervals,
    _forked,
    _forks,
    build_qrf_training_set,
    poisson_interval,
    read_interval_series,
    run_conformal,
    vanilla_cp,
)
from graphcp.errors import DegenerateData, DimensionMismatch, InsufficientHistory, UnknownMethod
from graphcp.model import ModelParams, intensity
from graphcp.panel import ServiceGraph, split
from graphcp.qrf import ForestConfig, fit_forest
from graphcp.synth import GraphSpec, ScenarioConfig, WeatherSpec, simulate
from tests.support import time_limit, zero_response


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


def test_poisson_interval_matches_scipy_stats():
    rng = np.random.default_rng(4)
    rates = np.concatenate([
        rng.exponential(5.0, 20_000), rng.uniform(0.0, 2000.0, 20_000),
        np.linspace(1e-12, 50.0, 20_000),
        [0.0, -0.0, 5e-324, 1e-300, 1e-8, 1e15, 1e300, np.inf, -np.inf, np.nan, -1.0],
    ])
    for alpha in (0.01, 0.1, 0.5, 0.99):
        for got, q in zip(poisson_interval(rates, alpha), (alpha / 2.0, 1.0 - alpha / 2.0)):
            want = stats.poisson.ppf(q, rates)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), alpha
        for rate in (4.0, 0.0, -2.0, math.nan, 3):
            got = poisson_interval(rate, alpha)
            want = (stats.poisson.ppf(alpha / 2.0, rate), stats.poisson.ppf(1.0 - alpha / 2.0, rate))
            assert [type(x) for x in got] == [type(x) for x in want]
            assert np.array_equal(got, want, equal_nan=True)


def test_import_graphcp_loads_neither_scipy_stats_nor_signal():
    # scipy.signal, which itself loads scipy.stats, is imported by the first
    # excitation on a narrow panel
    code = (
        "import sys, graphcp; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules))"
    )
    src = str(Path(conformal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout + out.stderr


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
    q = forest.quantile(buffered[node, ::-1][None, :window], [alpha / 2, 1 - alpha / 2])[0]
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
        response=zero_response(3, 1),
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
        response=zero_response(3, 1),
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
    def series(lower=0.0, upper=2.0, y_true=0.0, node=(0,), time=(1,)):
        n = len(node)
        return IntervalSeries(
            method="x",
            node=np.array(node),
            time=np.array(time),
            point=np.full(n, 1.0),
            lower=np.full(n, lower),
            upper=np.full(n, upper),
            y_true=np.full(n, y_true),
        )

    # crossed bounds, NaN bounds and non-finite truths; NaN used to pass;
    # so did negative ids, time 0, a repeated cell, and truths that are not
    # counts, which evaluate then wrote into metrics.json
    for bad in (dict(lower=2.0, upper=1.0), dict(lower=math.nan), dict(upper=math.nan),
                dict(y_true=math.nan), dict(y_true=math.inf), dict(node=(-1,)), dict(time=(0,)),
                dict(node=(-1,), time=(-1,)), dict(node=(0, 0), time=(1, 1)),
                dict(node=(0, 1, 0), time=(1, 1, 1)), dict(y_true=-2.5), dict(y_true=-1.0),
                dict(y_true=0.5)):
        with pytest.raises(DimensionMismatch):
            series(**bad)
    # infinite bounds stay legal, and so do rows in any order
    assert len(series(lower=-math.inf, upper=math.inf)) == 1
    assert len(series(node=(1, 0, 1), time=(2, 2, 1), y_true=3.0)) == 3


# ---------------------------------------------------------------- fork pool


def use_cpus(monkeypatch, n):
    """Let the forest pool see ``n`` usable CPUs, so it starts ``n`` workers at most."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


POOL_CASES = {
    # 80 test steps: rounds start at steps 0, 30 and 60, the last is 20 long
    "partial_last_round": (dict(seed=7), dict(retrain_stride=30), (1, 2)),
    "one_node": (dict(seed=8, k=1, edges=()), dict(retrain_stride=20), (1, 2)),
    "edgeless": (dict(seed=9, k=3, edges=()), dict(retrain_stride=25), (1, 2)),
    # two tasks on five CPUs
    "more_workers_than_tasks": (
        dict(seed=10, k=2, edges=((0, 1),)),
        dict(retrain_stride=None),
        (1, 5),
    ),
}


def forest_run(panel, graph, params, data_split, method, **kwargs):
    return run_conformal(
        panel, graph, params, data_split, method, alpha=0.1, window=4,
        forest_config=ForestConfig(n_trees=5, min_leaf=5, seed=2), **kwargs,
    )


def bound_bytes(series):
    return series.lower.tobytes() + series.upper.tobytes()


@pytest.mark.parametrize("method", ["temporal", "graph"])
@pytest.mark.parametrize("case", sorted(POOL_CASES))
def test_intervals_do_not_depend_on_the_worker_count(monkeypatch, case, method):
    setup, run_kwargs, cpu_counts = POOL_CASES[case]
    panel, graph, params, data_split = small_setup(**setup)
    bounds = []
    for cpus in cpu_counts:
        use_cpus(monkeypatch, cpus)
        bounds.append(bound_bytes(forest_run(panel, graph, params, data_split, method, **run_kwargs)))
        assert multiprocessing.active_children() == []
    assert bounds[0] == bounds[1]


def in_order(task, items, workers):
    """``[task(item) for item in items]`` over ``workers`` forked processes."""
    with _forked(task, items, workers) as collect:
        return collect()


def test_pooled_tasks_run_in_forked_workers_in_order():
    def task(item):
        return item, os.getpid()

    for workers in (1, 2):
        pooled = in_order(task, list(range(6)), workers)
        assert [item for item, _ in pooled] == list(range(6))
        assert len({pid for _, pid in pooled} - {os.getpid()}) == workers
    assert in_order(task, list(range(6)), 0) == [(item, os.getpid()) for item in range(6)]
    assert multiprocessing.active_children() == []


def test_leaving_the_block_stops_uncollected_workers():
    # the pipeline's writer is abandoned, not collected, when a stage fails
    with time_limit(5), pytest.raises(ValueError, match="stage"):
        with _forked(lambda item: time.sleep(60), [0], 1):
            raise ValueError("stage")
    assert multiprocessing.active_children() == []


def test_forks_rule(monkeypatch):
    steps = (fit_forest,)
    use_cpus(monkeypatch, 4)
    assert [_forks(n, steps, steps) for n in (1, 3, 9)] == [1, 3, 4]
    assert _forks(9, (print,), steps) == 0  # a rebound step
    use_cpus(monkeypatch, 1)
    assert _forks(9, steps, steps) == 0


def test_a_dead_worker_raises_instead_of_hanging():
    # a worker killed mid-task, as by the OOM killer, loses its task; the
    # caller must not wait for it
    def task(item):
        if item == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return item

    with time_limit(5), pytest.raises(ChildProcessError, match="exited with code -9"):
        in_order(task, list(range(8)), 2)
    assert multiprocessing.active_children() == []


def test_an_error_stops_the_busy_workers():
    # item 0 fails at once; item 1 would run for a minute if not stopped
    def task(item):
        if item == 0:
            raise ValueError("item 0")
        time.sleep(60)

    with time_limit(5), pytest.raises(ValueError, match="item 0"):
        in_order(task, [0, 1], 2)
    assert multiprocessing.active_children() == []


def running(pid):
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_a_dead_callers_workers_exit():
    # a caller killed mid-run, as by the OOM killer, leaves no worker
    # behind: each exits at its next send
    reader, writer = multiprocessing.Pipe(duplex=False)

    def task(item):
        writer.send(os.getpid())
        time.sleep(1)

    caller = multiprocessing.get_context("fork").Process(
        target=in_order, args=(task, list(range(20)), 2)
    )
    caller.start()
    writer.close()
    workers = set()
    try:
        with time_limit(5):
            while len(workers) < 2:
                workers.add(reader.recv())
        os.kill(caller.pid, signal.SIGKILL)
        caller.join()
        deadline = time.monotonic() + 5
        while any(running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(running(pid) for pid in workers)
    finally:
        for pid in workers:
            if running(pid):
                os.kill(pid, signal.SIGKILL)
        caller.kill()
        caller.join()
    assert multiprocessing.active_children() == []


def test_a_rebound_forest_step_runs_in_this_process(monkeypatch):
    # a profiler or a spy that wraps fit_forest records calls in the caller
    # only, so the forests are grown here, with the same bounds
    panel, graph, params, data_split = small_setup(12)
    use_cpus(monkeypatch, 2)
    pooled = forest_run(panel, graph, params, data_split, "graph", retrain_stride=40)
    calls = []

    def spy(*args):
        calls.append(os.getpid())
        return fit_forest(*args)

    monkeypatch.setattr(conformal, "fit_forest", spy)
    spied = forest_run(panel, graph, params, data_split, "graph", retrain_stride=40)
    assert calls == [os.getpid()] * 8  # two rounds of four nodes
    assert bound_bytes(spied) == bound_bytes(pooled)


def test_back_to_back_pools_warn_nothing(monkeypatch):
    # Python 3.12 warns (DeprecationWarning) when a process forks while it
    # runs other threads
    use_cpus(monkeypatch, 2)
    panel, graph, params, data_split = small_setup(11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = forest_run(panel, graph, params, data_split, "graph", retrain_stride=40)
        b = forest_run(panel, graph, params, data_split, "graph", retrain_stride=40)
    assert bound_bytes(a) == bound_bytes(b)
    assert multiprocessing.active_children() == []


def residual_panel(k, n_test, calib_window):
    """Standard normal residuals of ``k`` nodes for ``n_test`` test steps, zero points."""
    rng = np.random.default_rng(0)
    return rng.normal(size=(k, calib_window + n_test - 1)), np.zeros((k, n_test))


@pytest.mark.parametrize("cpus", [1, 2])
def test_first_failing_forest_stops_the_pool(monkeypatch, cpus):
    # node 0's residuals are too large to score splits on, so its round-0
    # forest, the first task, raises; the other 39 forests take several
    # seconds to grow and must not be waited for
    k, n_test, calib_window = 4, 100, 1000
    resid, points = residual_panel(k, n_test, calib_window)
    resid[0] *= 1e200
    use_cpus(monkeypatch, cpus)
    with time_limit(2), pytest.raises(DegenerateData, match="too large to score"):
        _forest_intervals(
            resid, points, [[j] for j in range(k)], 0.1, 4, calib_window, 10,
            ForestConfig(n_trees=50, seed=0),
        )
    assert multiprocessing.active_children() == []


def test_pool_raises_the_first_failing_tasks_error(monkeypatch):
    # nodes 0 and 1 both fail, with different messages: node 0's comes first
    k, n_test, calib_window = 3, 40, 60
    resid, points = residual_panel(k, n_test, calib_window)
    resid[0, 5] = np.nan
    resid[1] *= 1e200
    errors = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        with pytest.raises(DegenerateData) as info:
            _forest_intervals(
                resid, points, [[j] for j in range(k)], 0.1, 4, calib_window, 20,
                ForestConfig(n_trees=5, seed=0),
            )
        errors.append(str(info.value))
    assert errors[0] == errors[1] and "NaN" in errors[0]
    assert multiprocessing.active_children() == []
