"""Oracles for the batched forest and the batched run_conformal.

The first half of this file is the original, one-query-at-a-time code: the
per-feature split search, the tree grower with per-node member lists and a
Python tree walk, per-query Meinshausen weights and quantiles, and the
per-(step, node) interval loop over deque ring buffers with scalar Poisson
and vanilla intervals.  The tests assert that the array trees, the batched
queries and the batched run_conformal give bit-identical trees, quantiles and
interval columns.

The second part holds the original model layer, which runs the weather
convolutions and the excitation recursions over the whole panel for every
likelihood and gradient call.  The tests assert that the block-local pass
gives bit-identical values, gradients and fits.

The last part holds the original per-cell CSV readers and writers of panels,
interval files and edge lists.  The tests assert that the array readers and
writers produce byte-identical files, read back bit-identical arrays and
raise the same exception class on each defective file.
"""

import csv
import math
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from graphcp import model
from graphcp import conformal
from graphcp.conformal import IntervalSeries, read_interval_series, run_conformal
from graphcp.errors import (
    AlignmentError,
    DimensionMismatch,
    DuplicateEdge,
    InsufficientHistory,
    MalformedRow,
    MissingCell,
    NegativeCount,
    NonIntegerCount,
    SymmetricEdgePair,
    UnknownNodeReference,
)
from graphcp.model import (
    INTENSITY_FLOOR,
    FitConfig,
    ModelParams,
    ParamPacker,
    ResponseWeights,
    _range_slice,
    _rate_chain,
    cumulative_weather,
    excitation,
    fit,
    intensity,
    likelihood_gradient,
    log_likelihood,
    softplus,
)
from graphcp.panel import (
    PanelDataset,
    ServiceGraph,
    load_graph,
    load_panel,
    write_graph,
    write_panel,
)
from graphcp.qrf import ForestConfig, fit_forest
from tests.support import each_block_size, forest_debug_dict, forest_weights
from tests.test_conformal import small_setup

_LEVEL_SLACK = 1e-9


# --------------------------------------------------------------------------
# Oracle forest: per-feature split search, list trees, per-query walk
# --------------------------------------------------------------------------


class OracleTree:
    def __init__(self, feature, threshold, left, right, members):
        self.feature = np.array(feature, dtype=np.int32)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.left = np.array(left, dtype=np.int32)
        self.right = np.array(right, dtype=np.int32)
        self.members = members

    def leaf_for(self, query):
        node = 0
        while self.feature[node] >= 0:
            if query[self.feature[node]] <= self.threshold[node]:
                node = self.left[node]
            else:
                node = self.right[node]
        return node


def oracle_best_split(x, rows, y_node, feats, min_leaf):
    best = None
    n = y_node.shape[0]
    sizes_l = np.arange(1, n)
    size_ok = (sizes_l >= min_leaf) & (n - sizes_l >= min_leaf)
    for f in feats:
        xv = x[rows, f]
        order = np.argsort(xv, kind="stable")
        xs = xv[order]
        ys = y_node[order]
        cum = np.cumsum(ys)
        cumsq = np.cumsum(ys * ys)
        total, total_sq = cum[-1], cumsq[-1]
        valid = size_ok & (xs[:-1] < xs[1:])
        if not np.any(valid):
            continue
        sse_l = cumsq[:-1] - cum[:-1] ** 2 / sizes_l
        sse_r = (total_sq - cumsq[:-1]) - (total - cum[:-1]) ** 2 / (n - sizes_l)
        score = np.where(valid, sse_l + sse_r, np.inf)
        pos = int(np.argmin(score))
        if best is None or score[pos] < best[0]:
            lo, hi = xs[pos], xs[pos + 1]
            # the midpoint of neighbouring doubles may round to the upper
            # one, which would send every row left; the lower one splits
            mid = 0.5 * (lo + hi)
            best = (score[pos], int(f), mid if lo <= mid < hi else lo)
    if best is None:
        return None
    _, f, threshold = best
    return f, threshold, x[rows, f] <= threshold


def oracle_grow_tree(x, y, orig, config, mtry, rng):
    feature, threshold, left, right, members = [], [], [], [], []

    def add_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        members.append(None)
        return len(feature) - 1

    stack = [(add_node(), np.arange(x.shape[0]), 0)]
    while stack:
        node, rows, depth = stack.pop()
        y_node = y[rows]
        depth_ok = config.max_depth is None or depth < config.max_depth
        splittable = depth_ok and rows.shape[0] >= 2 * config.min_leaf
        split = None
        if splittable:
            feats = np.sort(rng.choice(x.shape[1], size=mtry, replace=False))
            split = oracle_best_split(x, rows, y_node, feats, config.min_leaf)
        if split is None:
            members[node] = orig[rows]
            continue
        f, thr, mask = split
        # each child is smaller than its parent, so growth ends
        assert 0 < mask.sum() < rows.shape[0], (f, thr, rows.shape[0])
        feature[node] = f
        threshold[node] = thr
        left_id, right_id = add_node(), add_node()
        left[node] = left_id
        right[node] = right_id
        stack.append((right_id, rows[~mask], depth + 1))
        stack.append((left_id, rows[mask], depth + 1))
    return OracleTree(feature, threshold, left, right, members)


class OracleForest:
    def __init__(self, features, targets, config):
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(targets, dtype=np.float64)
        n, p = x.shape
        mtry = config.mtry if config.mtry is not None else int(np.ceil(p / 3))
        self.trees = []
        for child_seed in np.random.SeedSequence(config.seed).spawn(config.n_trees):
            rng = np.random.default_rng(child_seed)
            sample = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
            self.trees.append(oracle_grow_tree(x[sample], y[sample], sample, config, mtry, rng))
        self.targets = y.copy()
        self.n_features = p
        self.order = np.argsort(self.targets, kind="stable")

    def weights(self, query):
        w = np.zeros(self.targets.shape[0])
        per_tree = 1.0 / len(self.trees)
        for tree in self.trees:
            members = tree.members[tree.leaf_for(query)]
            np.add.at(w, members, per_tree / members.shape[0])
        return w

    def quantile(self, query, levels):
        levels = np.asarray(levels, dtype=np.float64)
        cum = np.cumsum(self.weights(query)[self.order])
        idx = np.searchsorted(cum, levels - _LEVEL_SLACK, side="left")
        idx = np.minimum(idx, self.targets.shape[0] - 1)
        return self.targets[self.order[idx]]

    def to_debug_dict(self):
        return {
            "n_samples": self.targets.shape[0],
            "n_features": self.n_features,
            "trees": [
                {
                    "feature": tree.feature.tolist(),
                    "threshold": tree.threshold.tolist(),
                    "left": tree.left.tolist(),
                    "right": tree.right.tolist(),
                    "leaf_members": [
                        None if m is None else m.tolist() for m in tree.members
                    ],
                }
                for tree in self.trees
            ],
        }


# --------------------------------------------------------------------------
# Oracle run_conformal: one step and one node at a time over deque buffers
# --------------------------------------------------------------------------


def oracle_vanilla(residuals, alpha, point):
    residuals = np.abs(np.asarray(residuals, dtype=np.float64).ravel())
    n = residuals.shape[0]
    rank = int(math.ceil((1.0 - alpha) * (n + 1) - 1e-9))
    if rank > n:
        half = math.inf
    else:
        half = float(np.partition(residuals, rank - 1)[rank - 1])
    return point - half, point + half


def oracle_poisson(rate, alpha):
    lower = float(stats.poisson.ppf(alpha / 2.0, rate))
    upper = float(stats.poisson.ppf(1.0 - alpha / 2.0, rate))
    return lower, upper


def oracle_training_set(buffers, nodes, window):
    features, targets = [], []
    for node in sorted(nodes):
        series = np.array(buffers[node], dtype=np.float64)
        lagged = np.lib.stride_tricks.sliding_window_view(series, window)
        features.append(lagged[: series.shape[0] - window, ::-1])
        targets.append(series[window:])
    return np.concatenate(features, axis=0), np.concatenate(targets, axis=0)


def oracle_forest_config(base, seed, node, refit):
    child = np.random.SeedSequence([seed, node, refit]).generate_state(1)[0]
    return ForestConfig(
        n_trees=base.n_trees,
        max_depth=base.max_depth,
        min_leaf=base.min_leaf,
        mtry=base.mtry,
        bootstrap=base.bootstrap,
        seed=int(child),
    )


def oracle_run_conformal(panel, graph, params, data_split, method, alpha, window,
                         calib_window, retrain_stride, forest_config):
    seed = forest_config.seed
    cal_lo, cal_hi = data_split.calibration
    calib_window = cal_hi - cal_lo + 1 if calib_window is None else calib_window
    stride = None if retrain_stride is None else int(retrain_stride)
    rates = intensity(panel, graph, params)
    counts = panel.counts
    k = panel.n_nodes
    buffers = [deque(maxlen=calib_window) for _ in range(k)]
    for t in range(cal_hi - calib_window + 1, cal_hi + 1):
        for node in range(k):
            buffers[node].append(float(counts[node, t - 1] - rates[node, t - 1]))
    if method == "graph":
        pools = {j: sorted(graph.neighborhood(j)) for j in range(k)}
    else:
        pools = {j: [j] for j in range(k)}
    levels = np.array([alpha / 2.0, 1.0 - alpha / 2.0])
    test_lo, test_hi = data_split.test
    records = []
    forests = {}
    n_refits = 0
    for step, t in enumerate(range(test_lo, test_hi + 1)):
        if method in ("temporal", "graph"):
            needs_fit = step == 0 if stride is None else step % stride == 0
            if needs_fit:
                for j in range(k):
                    features, targets = oracle_training_set(buffers, pools[j], window)
                    cfg = oracle_forest_config(forest_config, seed, j, n_refits)
                    forests[j] = OracleForest(features, targets, cfg)
                n_refits += 1
        for j in range(k):
            point = float(rates[j, t - 1])
            if method == "poisson":
                lower, upper = oracle_poisson(point, alpha)
            elif method == "vanilla":
                lower, upper = oracle_vanilla(np.array(buffers[j]), alpha, point)
            else:
                buf = buffers[j]
                query = np.array([buf[-1 - i] for i in range(window)], dtype=np.float64)
                q_low, q_high = forests[j].quantile(query, levels)
                lower, upper = point + float(q_low), point + float(q_high)
            records.append((j, t, point, lower, upper, float(counts[j, t - 1])))
        for j in range(k):
            buffers[j].append(float(counts[j, t - 1] - rates[j, t - 1]))
    return {
        name: np.array(col)
        for name, col in zip(("node", "time", "point", "lower", "upper", "y_true"), zip(*records))
    }


# --------------------------------------------------------------------------
# Forest equivalence
# --------------------------------------------------------------------------


def random_training_set(rng, kind):
    n = int(rng.integers(1, 150))
    p = int(rng.integers(1, 6))
    if kind == "ties":
        x = rng.integers(0, 4, size=(n, p)).astype(np.float64)
        y = rng.integers(0, 5, size=n).astype(np.float64)
    elif kind == "constant":
        x = rng.normal(size=(n, p))
        x[:, rng.integers(0, p)] = 1.5
        y = rng.normal(size=n)
    else:
        x = rng.normal(size=(n, p))
        y = rng.normal(0.0, 3.0, size=n)
    return x, y


CONFIGS = (
    dict(n_trees=4, min_leaf=1),
    dict(n_trees=3, min_leaf=1, max_depth=2),
    dict(n_trees=5, min_leaf=5, bootstrap=False),
    dict(n_trees=6, min_leaf=3, mtry=1),
    dict(n_trees=2, min_leaf=2, max_depth=0),
)


@pytest.mark.parametrize("kind", ["ties", "constant", "continuous"])
def test_array_trees_match_oracle_structure_and_quantiles(kind):
    rng = np.random.default_rng({"ties": 1, "constant": 2, "continuous": 3}[kind])
    levels = np.array([0.05, 0.2, 0.5, 0.8, 0.95])
    for trial in range(12):
        x, y = random_training_set(rng, kind)
        params = dict(CONFIGS[trial % len(CONFIGS)])
        if params.get("mtry", 1) > x.shape[1]:
            params["mtry"] = x.shape[1]
        config = ForestConfig(seed=trial, **params)
        forest = fit_forest(x, y, config)
        oracle = OracleForest(x, y, config)
        assert forest_debug_dict(forest) == oracle.to_debug_dict()

        queries = np.concatenate([x[: min(len(x), 20)], rng.normal(size=(20, x.shape[1]))])
        if kind == "ties":
            queries = np.round(queries)
        expected = np.array([oracle.quantile(q, levels) for q in queries])
        np.testing.assert_array_equal(forest.quantile(queries, levels), expected)
        for i in range(queries.shape[0]):  # each row alone, as a one-row block
            one = forest.quantile(queries[i : i + 1], levels)
            np.testing.assert_array_equal(one, expected[i : i + 1])
        np.testing.assert_array_equal(forest.quantile(queries, levels[2:3]), expected[:, 2:3])
        np.testing.assert_array_equal(
            forest_weights(forest, queries), np.array([oracle.weights(q) for q in queries])
        )


def test_bootstrap_duplicates_weighted_like_oracle():
    # few distinct rows, so every bootstrap leaf repeats original rows
    rng = np.random.default_rng(4)
    x = np.repeat(rng.normal(size=(6, 2)), 10, axis=0)
    y = np.repeat(rng.normal(size=6), 10)
    config = ForestConfig(n_trees=7, min_leaf=1, seed=5)
    forest = fit_forest(x, y, config)
    oracle = OracleForest(x, y, config)
    assert forest_debug_dict(forest) == oracle.to_debug_dict()
    assert any(
        len(set(m)) < len(m)
        for tree in forest_debug_dict(forest)["trees"]
        for m in tree["leaf_members"]
        if m is not None
    )
    queries = rng.normal(size=(30, 2))
    np.testing.assert_array_equal(
        forest_weights(forest, queries), np.array([oracle.weights(q) for q in queries])
    )


def test_query_blocks_larger_than_one_chunk():
    # 3000 training rows: the 1 MiB weight block holds 43 queries, so 200
    # queries span five chunks
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3000, 3))
    y = x[:, 0] + rng.normal(size=3000)
    config = ForestConfig(n_trees=3, min_leaf=40, seed=7)
    forest = fit_forest(x, y, config)
    oracle = OracleForest(x, y, config)
    queries = rng.normal(size=(200, 3))
    levels = np.array([0.05, 0.95])
    expected = np.array([oracle.quantile(q, levels) for q in queries])
    np.testing.assert_array_equal(forest.quantile(queries, levels), expected)
    assert forest.quantile(np.zeros((0, 3)), levels).shape == (0, 2)


# --------------------------------------------------------------------------
# run_conformal equivalence
# --------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["poisson", "vanilla", "temporal", "graph"])
@pytest.mark.parametrize("stride", [1, 7, None])
def test_batched_run_conformal_matches_per_step_oracle(method, stride):
    panel, graph, params, data_split = small_setup(8, t_total=150)
    kwargs = dict(
        alpha=0.2,
        window=3,
        calib_window=30,
        retrain_stride=stride,
        forest_config=ForestConfig(n_trees=3, min_leaf=4, seed=9),
    )
    series = run_conformal(panel, graph, params, data_split, method, **kwargs)
    expected = oracle_run_conformal(panel, graph, params, data_split, method, **kwargs)
    for name, column in expected.items():
        assert np.array_equal(getattr(series, name), column), name


@pytest.mark.parametrize("method", ["poisson", "vanilla", "temporal", "graph"])
def test_window_not_below_calib_window_raises(method):
    panel, graph, params, data_split = small_setup(8, t_total=150)
    with pytest.raises(InsufficientHistory):
        run_conformal(panel, graph, params, data_split, method, window=20, calib_window=20)


def test_batched_vanilla_infinite_rank_matches_oracle():
    panel, graph, params, data_split = small_setup(8, t_total=150)
    kwargs = dict(alpha=0.02, window=3, calib_window=30, retrain_stride=1,
                  forest_config=ForestConfig(seed=0))
    series = run_conformal(panel, graph, params, data_split, "vanilla", **kwargs)
    expected = oracle_run_conformal(panel, graph, params, data_split, "vanilla", **kwargs)
    assert np.all(np.isinf(series.upper))
    for name, column in expected.items():
        assert np.array_equal(getattr(series, name), column), name


# --------------------------------------------------------------------------
# Oracle model layer: whole-panel forward pass, per-column Python loops
# --------------------------------------------------------------------------


def oracle_cumulative_weather(weather, weather_decay, window):
    weather = np.asarray(weather, dtype=np.float64)
    rates = np.atleast_1d(np.asarray(weather_decay, dtype=np.float64))
    k, t_total, n_vars = weather.shape
    out = np.empty_like(weather)
    eff = min(window, t_total)
    ages = np.arange(eff, dtype=np.float64)
    for m in range(n_vars):
        kernel = np.exp(-rates[m] * ages)
        for i in range(k):
            out[i, :, m] = np.convolve(weather[i, :, m], kernel)[:t_total]
    return out


def oracle_cumulative_weather_age(weather, weather_decay, window):
    weather = np.asarray(weather, dtype=np.float64)
    rates = np.atleast_1d(np.asarray(weather_decay, dtype=np.float64))
    k, t_total, n_vars = weather.shape
    out = np.empty_like(weather)
    eff = min(window, t_total)
    ages = np.arange(eff, dtype=np.float64)
    for m in range(n_vars):
        kernel = ages * np.exp(-rates[m] * ages)
        for i in range(k):
            out[i, :, m] = np.convolve(weather[i, :, m], kernel)[:t_total]
    return out


def oracle_excitation(counts, decay):
    counts = np.asarray(counts, dtype=np.float64)
    decay = np.atleast_1d(np.asarray(decay, dtype=np.float64))
    k, t_total = counts.shape
    damp = np.exp(-decay)
    state = np.zeros((k, t_total))
    for t in range(1, t_total):
        state[:, t] = damp * (state[:, t - 1] + decay * counts[:, t - 1])
    return state


def oracle_excitation_with_sensitivity(counts, decay):
    counts = np.asarray(counts, dtype=np.float64)
    decay = np.atleast_1d(np.asarray(decay, dtype=np.float64))
    k, t_total = counts.shape
    damp = np.exp(-decay)
    state = np.zeros((k, t_total))
    sens = np.zeros((k, t_total))
    for t in range(1, t_total):
        state[:, t] = damp * (state[:, t - 1] + decay * counts[:, t - 1])
        sens[:, t] = -state[:, t] + damp * (sens[:, t - 1] + counts[:, t - 1])
    return state, sens


def oracle_coupling(params):
    """The held coupling as a {(src, dst): value} dict, one edge at a time."""
    held = params.coupling
    return {
        (int(src), int(dst)): float(value) for (src, dst), value in zip(held.edges, held.values)
    }


def oracle_coupling_matrix(params, graph):
    mat = np.zeros((params.n_nodes, params.n_nodes))
    np.fill_diagonal(mat, 1.0)
    for (src, dst), value in oracle_coupling(params).items():
        mat[dst, src] = value
    return mat


def oracle_forward(panel, graph, params, with_sensitivity=False):
    weights = params.response
    v = oracle_cumulative_weather(panel.weather, params.weather_decay, params.window)
    hidden = np.tanh(v @ weights.w_hidden.T + weights.b_hidden)
    pre_out = hidden @ weights.w_out + weights.b_out
    response = softplus(pre_out)
    if with_sensitivity:
        excite, excite_sens = oracle_excitation_with_sensitivity(panel.counts, params.decay)
    else:
        excite = oracle_excitation(panel.counts, params.decay)
        excite_sens = None
    mat = oracle_coupling_matrix(params, graph)
    raw_rates = params.scale[:, None] * response + mat @ excite
    rates = np.maximum(raw_rates, INTENSITY_FLOOR)
    return dict(
        v=v, hidden=hidden, pre_out=pre_out, response=response, excite=excite,
        excite_sens=excite_sens, raw_rates=raw_rates, rates=rates, mat=mat,
    )


def oracle_log_likelihood(panel, graph, params, time_range=None):
    sl = _range_slice(panel, time_range)
    rates = oracle_forward(panel, graph, params)["rates"][:, sl]
    counts = panel.counts[:, sl]
    with np.errstate(over="ignore"):
        return float(-np.sum(rates - counts * np.log(rates)))


def oracle_likelihood_gradient(panel, graph, params, time_range=None, packer=None):
    if packer is None:
        packer = ParamPacker(graph, params.n_vars, params.response.hidden_units)
    sl = _range_slice(panel, time_range)
    fwd = oracle_forward(panel, graph, params, with_sensitivity=True)
    counts = panel.counts[:, sl].astype(np.float64)
    rates = fwd["rates"][:, sl]
    active = fwd["raw_rates"][:, sl] > INTENSITY_FLOOR
    dll_drate = np.where(active, counts / rates - 1.0, 0.0)

    resp = fwd["response"][:, sl]
    hidden = fwd["hidden"][:, sl, :]
    v = fwd["v"][:, sl, :]
    excite = fwd["excite"][:, sl]
    excite_sens = fwd["excite_sens"][:, sl]
    weights = params.response

    d_scale = np.sum(dll_drate * resp, axis=1)
    cross = dll_drate @ excite.T
    d_coupling = np.array([cross[dst, src] for src, dst in graph.edge_pairs()])
    pooled = fwd["mat"].T @ dll_drate
    d_decay = np.sum(excite_sens * pooled, axis=1)

    d_resp = dll_drate * params.scale[:, None]
    sig = expit(fwd["pre_out"][:, sl])
    g_out = d_resp * sig
    d_w_out = np.einsum("kt,kth->h", g_out, hidden)
    d_b_out = float(np.sum(g_out))
    g_hidden = g_out[:, :, None] * weights.w_out * (1.0 - hidden**2)
    d_w_hidden = np.einsum("kth,ktm->hm", g_hidden, v)
    d_b_hidden = np.sum(g_hidden, axis=(0, 1))
    d_v = g_hidden @ weights.w_hidden
    v_age = oracle_cumulative_weather_age(
        panel.weather, params.weather_decay, params.window
    )
    d_weather_decay = -np.einsum("ktm,ktm->m", d_v, v_age[:, sl, :])

    coupling = oracle_coupling(params)
    grad = np.empty(packer.size)
    grad[packer.slices["coupling"]] = d_coupling * _rate_chain(
        np.array([coupling[e] for e in graph.edge_pairs()])
    )
    grad[packer.slices["decay"]] = d_decay * _rate_chain(params.decay)
    grad[packer.slices["scale"]] = d_scale * _rate_chain(params.scale)
    grad[packer.slices["weather_decay"]] = d_weather_decay * _rate_chain(
        params.weather_decay
    )
    grad[packer.slices["w_hidden"]] = d_w_hidden.ravel()
    grad[packer.slices["b_hidden"]] = d_b_hidden
    grad[packer.slices["w_out"]] = d_w_out
    grad[packer.slices["b_out"]] = d_b_out
    return grad


def random_model_instance(rng, k, t_total, window, n_vars=2, hidden=3,
                          zero_decay=False, zero_counts=False):
    """A random graph, panel and nonnegative parameter set."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    chosen = [pairs[i] for i in np.flatnonzero(rng.random(len(pairs)) < 0.4)]
    edges = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in chosen]
    graph = ServiceGraph.from_edges(k, edges)
    counts = np.zeros((k, t_total), dtype=int)
    if not zero_counts:
        counts = rng.poisson(rng.uniform(0.2, 4.0), size=(k, t_total))
    panel = PanelDataset.build(rng.normal(size=(k, t_total, n_vars)) * 2.0, counts)
    params = ModelParams(
        coupling={e: float(rng.uniform(0.0, 0.6)) for e in graph.edge_pairs()},
        decay=np.zeros(k) if zero_decay else rng.uniform(0.05, 2.0, k),
        scale=rng.uniform(0.1, 3.0, k),
        weather_decay=rng.uniform(0.0, 1.0, n_vars),
        response=ResponseWeights.random(hidden, n_vars, rng, scale=0.8),
        window=window,
    )
    return panel, graph, params


def model_blocks(t_total, window):
    """1-based blocks: the whole panel, lo=1, hi=T, one step, shorter than window."""
    short = max(1, min(window - 1, t_total) // 2)
    mid = t_total // 2 + 1
    blocks = {(1, t_total), (1, max(1, t_total // 3)), (mid, t_total), (mid, mid),
              (1, 1), (t_total, t_total), (mid, min(t_total, mid + short - 1))}
    return sorted(blocks)


MODEL_CASES = [
    # (K, T, window, zero_decay, zero_counts)
    (1, 40, 6, False, False),
    (5, 70, 24, False, False),
    (20, 90, 12, False, False),
    (5, 30, 45, False, False),  # window > T
    (5, 50, 8, True, False),  # zero decay
    (5, 50, 8, False, True),  # all-zero counts
    (20, 33, 1, False, False),  # window of one step
    # narrow panels (16 K < T), where excitation runs its filters
    (1, 100, 6, False, False),
    (3, 240, 24, False, False),
    (6, 600, 12, False, False),
    (4, 300, 8, True, False),  # zero decay
    (4, 300, 8, False, True),  # all-zero counts
    (5, 80, 8, False, False),  # 16 K == T: the loop
    (5, 81, 8, False, False),  # 16 K == T - 1: the filters
    (1, 1, 3, False, False),  # T=1
    (2, 2, 1, False, False),  # T=2
]


@pytest.mark.parametrize("k, t_total, window, zero_decay, zero_counts", MODEL_CASES)
def test_model_layer_matches_whole_panel_oracle(
    k, t_total, window, zero_decay, zero_counts
):
    rng = np.random.default_rng(1000 * k + t_total + window)
    panel, graph, params = random_model_instance(
        rng, k, t_total, window, zero_decay=zero_decay, zero_counts=zero_counts
    )
    weather, rates = panel.weather, params.weather_decay
    want_v = oracle_cumulative_weather(weather, rates, window)
    v, v_age = cumulative_weather(weather, rates, window, _with_age=True)
    assert np.array_equal(cumulative_weather(weather, rates, window), want_v)
    assert np.array_equal(v, want_v)
    assert np.array_equal(v_age, oracle_cumulative_weather_age(weather, rates, window))
    excite, sens = excitation(panel.counts, params.decay, _with_sensitivity=True)
    want_excite, want_sens = oracle_excitation_with_sensitivity(panel.counts, params.decay)
    assert np.array_equal(excite, want_excite) and np.array_equal(sens, want_sens)
    assert np.array_equal(excitation(panel.counts, params.decay),
                          oracle_excitation(panel.counts, params.decay))
    assert np.array_equal(
        params.coupling_matrix(graph), oracle_coupling_matrix(params, graph)
    )
    assert np.array_equal(intensity(panel, graph, params),
                          oracle_forward(panel, graph, params)["rates"])

    packer = ParamPacker(graph, params.n_vars, params.response.hidden_units)
    blocks = [None] + model_blocks(t_total, window)
    for block in blocks:
        got = log_likelihood(panel, graph, params, block)
        want = oracle_log_likelihood(panel, graph, params, block)
        assert got == want or (math.isnan(got) and math.isnan(want)), block
        grad = likelihood_gradient(panel, graph, params, block, packer)
        assert np.array_equal(
            grad, oracle_likelihood_gradient(panel, graph, params, block, packer)
        ), block


KERNEL_CASES = [
    # (K, T, zero_decay, zero_counts); the panel's width picks the kernel,
    # so each case is run through both
    (1, 1, False, False),
    (1, 2, False, False),
    (3, 2, False, False),
    (5, 80, False, False),
    (2, 100, False, False),
    (6, 600, False, False),
    (4, 300, True, False),
    (4, 300, False, True),
    (20, 90, False, False),
]


@pytest.mark.parametrize("kernel", ["_excitation_loop", "_excitation_filtered"])
@pytest.mark.parametrize("k, t_total, zero_decay, zero_counts", KERNEL_CASES)
def test_both_excitation_kernels_match_oracle(kernel, k, t_total, zero_decay, zero_counts):
    rng = np.random.default_rng(100 * k + t_total)
    panel, _, params = random_model_instance(
        rng, k, t_total, 4, zero_decay=zero_decay, zero_counts=zero_counts
    )
    counts = panel.counts.astype(np.float64)
    decay = params.decay
    run = getattr(model, kernel)
    want_excite, want_sens = oracle_excitation_with_sensitivity(counts, decay)
    (excite,) = run(counts, decay, np.exp(-decay), False)
    assert np.array_equal(bits(excite), bits(oracle_excitation(counts, decay)))
    excite, sens = run(counts, decay, np.exp(-decay), True)
    assert np.array_equal(bits(excite), bits(want_excite))
    assert np.array_equal(bits(sens), bits(want_sens))


@pytest.mark.parametrize("k, t_total, filtered", [(1, 16, False), (1, 17, True),
                                                  (5, 80, False), (5, 81, True),
                                                  (400, 500, False)])
def test_excitation_kernel_follows_the_panel_shape(monkeypatch, k, t_total, filtered):
    calls = []
    real = model._excitation_filtered
    monkeypatch.setattr(
        model, "_excitation_filtered", lambda *args: calls.append(1) or real(*args)
    )
    counts = np.ones((k, t_total))
    excitation(counts, np.full(k, 0.5))
    excitation(counts, np.full(k, 0.5), _with_sensitivity=True)
    assert len(calls) == (2 if filtered else 0)


def test_excitation_overflow_falls_back_to_the_loop():
    # past an overflow the filters' discarded chain turns inf into nan; the
    # loop's inf is returned instead
    counts = np.full((1, 2000), 1.7e305)
    decay = np.zeros(1)
    with np.errstate(over="ignore", invalid="ignore"):
        excite, sens = excitation(counts, decay, _with_sensitivity=True)
        want_excite, want_sens = oracle_excitation_with_sensitivity(counts, decay)
    assert np.isinf(sens[0, -1])
    assert np.array_equal(bits(excite), bits(want_excite))
    assert np.array_equal(bits(sens), bits(want_sens))


def assert_fit_matches_oracle_fit(monkeypatch, panel, graph, params, config, time_range):
    got = fit(panel, graph, params, config, time_range=time_range)
    monkeypatch.setattr(model, "log_likelihood", oracle_log_likelihood)
    monkeypatch.setattr(model, "likelihood_gradient", oracle_likelihood_gradient)
    want = fit(panel, graph, params, config, time_range=time_range)
    assert got.checkpoints[-1] > got.checkpoints[0]
    assert np.array_equal(got.checkpoints, want.checkpoints)
    assert got.n_retreats == want.n_retreats
    assert got.learning_rate_final == want.learning_rate_final
    assert got.params.to_dict() == want.params.to_dict()


def test_fit_matches_oracle_fit(monkeypatch):
    """A storm-like fit (momentum, blocks, train range) gives the oracle's bits."""
    rng = np.random.default_rng(7)
    panel, graph, params = random_model_instance(rng, 6, 150, 24, hidden=4)
    config = FitConfig(learning_rate=2e-2, epochs=6, batch_len=20, momentum=0.9, seed=3)
    assert_fit_matches_oracle_fit(monkeypatch, panel, graph, params, config, (1, 50))


def test_narrow_fit_matches_oracle_fit(monkeypatch):
    """A fit whose later blocks pass 16 K steps runs the filters and keeps the oracle's bits."""
    rng = np.random.default_rng(8)
    panel, graph, params = random_model_instance(rng, 4, 160, 12, hidden=3)
    config = FitConfig(learning_rate=2e-2, epochs=4, batch_len=40, momentum=0.5, seed=5)
    assert_fit_matches_oracle_fit(monkeypatch, panel, graph, params, config, (1, 160))


# --------------------------------------------------------------------------
# Oracle CSV I/O: per-row csv.reader parsing, a dict keyed by cell, per-cell writes
# --------------------------------------------------------------------------


def oracle_open_rows(path, expected_header):
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedRow(f"{path}: empty file, expected header row") from None
        header = [h.strip() for h in header]
        if header != expected_header:
            raise MalformedRow(f"{path}: header {header} does not match {expected_header}")
        yield from (row for row in reader if row)


def oracle_parse_int(token, what, row, path):
    try:
        return int(token)
    except ValueError:
        raise MalformedRow(f"{path}: bad {what} {token!r} in row {row}") from None


def oracle_parse_float(token, what, row, path):
    try:
        return float(token)
    except ValueError:
        raise MalformedRow(f"{path}: bad {what} {token!r} in row {row}") from None


def oracle_load_panel(weather_file, counts_file):
    weather_cells = {}
    for row in oracle_open_rows(weather_file, ["unit", "time", "variable", "value"]):
        if len(row) != 4:
            raise MalformedRow(f"{weather_file}: row {row} is not unit,time,variable,value")
        unit = oracle_parse_int(row[0], "unit", row, weather_file)
        time = oracle_parse_int(row[1], "time", row, weather_file)
        var = oracle_parse_int(row[2], "variable", row, weather_file)
        value = oracle_parse_float(row[3], "value", row, weather_file)
        if unit < 0 or time < 1 or var < 0:
            raise MalformedRow(f"{weather_file}: out of domain in row {row}")
        if not math.isfinite(value):
            raise MalformedRow(f"{weather_file}: non-finite value in row {row}")
        key = (unit, time, var)
        if key in weather_cells:
            raise MalformedRow(f"{weather_file}: duplicate cell {key}")
        weather_cells[key] = value
    if not weather_cells:
        raise MalformedRow(f"{weather_file}: no data rows")

    count_cells = {}
    for row in oracle_open_rows(counts_file, ["unit", "time", "count"]):
        if len(row) != 3:
            raise MalformedRow(f"{counts_file}: row {row} is not unit,time,count")
        unit = oracle_parse_int(row[0], "unit", row, counts_file)
        time = oracle_parse_int(row[1], "time", row, counts_file)
        raw = oracle_parse_float(row[2], "count", row, counts_file)
        if unit < 0 or time < 1:
            raise MalformedRow(f"{counts_file}: out of domain in row {row}")
        if not math.isfinite(raw) or raw != math.floor(raw):
            raise NonIntegerCount(f"{counts_file}: count {row[2]!r} is not an integer")
        count = int(raw)
        if count < 0:
            raise NegativeCount(f"{counts_file}: negative count in row {row}")
        key = (unit, time)
        if key in count_cells:
            raise MalformedRow(f"{counts_file}: duplicate cell {key}")
        count_cells[key] = count
    if not count_cells:
        raise MalformedRow(f"{counts_file}: no data rows")

    k_w = 1 + max(u for u, _, _ in weather_cells)
    t_w = max(t for _, t, _ in weather_cells)
    n_vars = 1 + max(m for _, _, m in weather_cells)
    k_c = 1 + max(u for u, _ in count_cells)
    t_c = max(t for _, t in count_cells)
    if (k_w, t_w) != (k_c, t_c):
        raise DimensionMismatch(f"weather ({k_w}, {t_w}) vs counts ({k_c}, {t_c})")

    weather = np.full((k_w, t_w, n_vars), np.nan)
    for (unit, time, var), value in weather_cells.items():
        weather[unit, time - 1, var] = value
    if np.isnan(weather).any():
        raise MissingCell("weather cell missing")
    counts = np.full((k_c, t_c), -1, dtype=np.int64)
    for (unit, time), value in count_cells.items():
        counts[unit, time - 1] = value
    if (counts < 0).any():
        raise MissingCell("count cell missing")
    return PanelDataset.build(weather, counts)


def oracle_load_graph(edge_file, n_nodes):
    edges = []
    for row in oracle_open_rows(edge_file, ["src", "dst"]):
        if len(row) != 2:
            raise MalformedRow(f"{edge_file}: row {row} is not src,dst")
        src = oracle_parse_int(row[0], "src", row, edge_file)
        dst = oracle_parse_int(row[1], "dst", row, edge_file)
        edges.append((src, dst))
    return ServiceGraph.from_edges(n_nodes, edges)


def oracle_write_panel(panel, weather_file, counts_file):
    with Path(weather_file).open("w", encoding="utf-8", newline="") as handle:
        handle.write("unit,time,variable,value\n")
        for unit in range(panel.n_nodes):
            for t_idx in range(panel.n_steps):
                for var in range(panel.n_vars):
                    value = float(panel.weather[unit, t_idx, var])
                    handle.write(f"{unit},{t_idx + 1},{var},{value!r}\n")
    with Path(counts_file).open("w", encoding="utf-8", newline="") as handle:
        handle.write("unit,time,count\n")
        for unit in range(panel.n_nodes):
            for t_idx in range(panel.n_steps):
                handle.write(f"{unit},{t_idx + 1},{int(panel.counts[unit, t_idx])}\n")


def oracle_to_csv(series, path):
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        handle.write("method,node,time,point,lower,upper,y_true\n")
        for i in range(len(series)):
            handle.write(
                f"{series.method},{int(series.node[i])},{int(series.time[i])},"
                f"{float(series.point[i])!r},{float(series.lower[i])!r},"
                f"{float(series.upper[i])!r},{float(series.y_true[i])!r}\n"
            )


def oracle_read_interval_series(path):
    node, time, point, lower, upper, y_true = [], [], [], [], [], []
    method = None
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        header = handle.readline().strip().split(",")
        if header != ["method", "node", "time", "point", "lower", "upper", "y_true"]:
            raise AlignmentError(f"{path}: unexpected interval header {header}")
        for line in handle:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise AlignmentError(f"{path}: bad interval row {line!r}")
            if method is None:
                method = parts[0]
            elif parts[0] != method:
                raise AlignmentError(f"{path}: mixed methods {method!r} and {parts[0]!r}")
            node.append(int(parts[1]))
            time.append(int(parts[2]))
            point.append(float(parts[3]))
            lower.append(float(parts[4]))
            upper.append(float(parts[5]))
            y_true.append(float(parts[6]))
    if method is None:
        raise AlignmentError(f"{path}: no interval rows")
    return IntervalSeries(
        method=method,
        node=np.array(node, dtype=np.int64),
        time=np.array(time, dtype=np.int64),
        point=np.array(point, dtype=np.float64),
        lower=np.array(lower, dtype=np.float64),
        upper=np.array(upper, dtype=np.float64),
        y_true=np.array(y_true, dtype=np.float64),
    )


# --------------------------------------------------------------------------
# CSV I/O against the oracles
# --------------------------------------------------------------------------

# floats whose shortest repr takes each of repr's forms: signed zero, the
# smallest subnormal, exponent notation at both ends, the largest double,
# and integral values
SPECIAL_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1.7976931348623157e308,
    -1.7976931348623157e308, 2.2250738585072014e-308, 3.0, -2.0, 1e22, 123456789.0,
    0.1, 1 / 3, 9007199254740993.0,
]
# counts parse as floats, so 2**53 + 1 reads back as 2**53 in both readers
LARGE_COUNTS = [0, 1, 2**53, 2**53 + 1, 2**62, 10**18]


def bits(arr):
    """The bytes of a float array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.int64)


def special_panel(seed, k, t_total, n_vars):
    rng = np.random.default_rng(seed)
    shape = (k, t_total, n_vars)
    weather = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    flat = weather.reshape(-1)
    picks = rng.choice(flat.size, size=min(flat.size, len(SPECIAL_FLOATS)), replace=False)
    flat[picks] = SPECIAL_FLOATS[: picks.size]
    counts = rng.poisson(3.0, size=(k, t_total))
    counts.reshape(-1)[: len(LARGE_COUNTS)] = LARGE_COUNTS[: counts.size]
    return PanelDataset.build(weather, counts)


def assert_same_panel(panel, expected):
    np.testing.assert_array_equal(bits(panel.weather), bits(expected.weather))
    np.testing.assert_array_equal(panel.counts, expected.counts)
    assert panel.counts.dtype == expected.counts.dtype == np.int64


@pytest.mark.parametrize("seed, k, t_total, n_vars", [(0, 1, 1, 1), (1, 3, 7, 2), (2, 4, 20, 3)])
def test_panel_files_match_oracle_bytes_and_arrays(tmp_path, seed, k, t_total, n_vars):
    panel = special_panel(seed, k, t_total, n_vars)
    write_panel(panel, tmp_path / "w.csv", tmp_path / "c.csv")
    oracle_write_panel(panel, tmp_path / "ow.csv", tmp_path / "oc.csv")
    assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "ow.csv").read_bytes()
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "oc.csv").read_bytes()
    loaded = load_panel(tmp_path / "w.csv", tmp_path / "c.csv")
    assert_same_panel(loaded, oracle_load_panel(tmp_path / "w.csv", tmp_path / "c.csv"))
    np.testing.assert_array_equal(bits(loaded.weather), bits(panel.weather))


@pytest.mark.parametrize("shape", [(0, 3, 1), (2, 0, 1), (2, 3, 0)])
def test_empty_panel_files_match_oracle_bytes(tmp_path, shape):
    panel = PanelDataset.build(np.zeros(shape), np.zeros(shape[:2], dtype=np.int64))
    write_panel(panel, tmp_path / "w.csv", tmp_path / "c.csv")
    oracle_write_panel(panel, tmp_path / "ow.csv", tmp_path / "oc.csv")
    assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "ow.csv").read_bytes()
    assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "oc.csv").read_bytes()


def rewrite(path, edit):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    Path(path).write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")


def shuffled(lines):
    body = lines[1:]
    order = np.random.default_rng(5).permutation(len(body))
    return [lines[0]] + [body[i] for i in order]


def with_blank_lines(lines):
    return [lines[0], ""] + [x for line in lines[1:] for x in (line, "")]


def quoted(lines):
    return [lines[0]] + [",".join(f'"{tok}"' for tok in line.split(",")) for line in lines[1:]]


def padded(lines):
    return [lines[0]] + [",".join(f" {tok} " for tok in line.split(",")) for line in lines[1:]]


def crlf(lines):
    return [line + "\r" for line in lines]


@pytest.mark.parametrize("edit", [shuffled, with_blank_lines, quoted, padded, crlf])
def test_load_panel_matches_oracle_on_reformatted_files(tmp_path, monkeypatch, edit):
    panel = special_panel(3, 3, 6, 2)
    write_panel(panel, tmp_path / "w.csv", tmp_path / "c.csv")
    rewrite(tmp_path / "w.csv", edit)
    rewrite(tmp_path / "c.csv", edit)
    expected = oracle_load_panel(tmp_path / "w.csv", tmp_path / "c.csv")
    for _ in each_block_size(monkeypatch):
        loaded = load_panel(tmp_path / "w.csv", tmp_path / "c.csv")
        assert_same_panel(loaded, expected)
        np.testing.assert_array_equal(bits(loaded.weather), bits(panel.weather))


def replace_row(index, text):
    return lambda lines: lines[:index] + [text] + lines[index + 1:]


def drop_row(index):
    return lambda lines: lines[:index] + lines[index + 1:]


# (file, edit, class): each edit of a valid K=2, T=3, M=2 panel's weather
# ("w") or counts ("c") file makes exactly one defect
PANEL_DEFECTS = [
    ("w", lambda lines: ["unit,time,var,value"] + lines[1:], MalformedRow),
    ("c", lambda lines: ["unit,count,time"] + lines[1:], MalformedRow),
    ("w", lambda lines: [], MalformedRow),
    ("c", lambda lines: [], MalformedRow),
    ("w", lambda lines: lines[:1], MalformedRow),
    ("c", lambda lines: lines[:1], MalformedRow),
    ("w", replace_row(3, "0,2,0"), MalformedRow),
    ("w", replace_row(3, "0,2,0,1.5,7"), MalformedRow),
    ("c", replace_row(2, "0,2"), MalformedRow),
    ("w", lambda lines: lines[:2] + ["   "] + lines[2:], MalformedRow),
    ("w", replace_row(3, "x,2,0,1.5"), MalformedRow),
    ("w", replace_row(3, "0,2.0,0,1.5"), MalformedRow),
    ("w", replace_row(3, "0,2,0,abc"), MalformedRow),
    ("w", replace_row(3, "0,2,0,"), MalformedRow),
    ("c", replace_row(2, "0,2,abc"), MalformedRow),
    ("c", replace_row(2, "0,x,4"), MalformedRow),
    ("w", replace_row(1, "-1,1,0,1.5"), MalformedRow),
    ("w", replace_row(1, "0,0,0,1.5"), MalformedRow),
    ("w", replace_row(1, "0,1,-1,1.5"), MalformedRow),
    ("c", replace_row(1, "-1,1,4"), MalformedRow),
    ("c", replace_row(1, "0,0,4"), MalformedRow),
    ("w", replace_row(3, "0,2,0,nan"), MalformedRow),
    ("w", replace_row(3, "0,2,0,-inf"), MalformedRow),
    ("w", replace_row(3, "0,2,0,1e400"), MalformedRow),
    ("w", lambda lines: lines + [lines[4]], MalformedRow),
    ("w", replace_row(3, "0,1,0,9.5"), MalformedRow),
    ("c", lambda lines: lines + [lines[2]], MalformedRow),
    ("c", replace_row(2, "0,2,1.5"), NonIntegerCount),
    ("c", replace_row(2, "0,2,nan"), NonIntegerCount),
    ("c", replace_row(2, "0,2,inf"), NonIntegerCount),
    ("c", replace_row(2, "0,2,-1"), NegativeCount),
    ("c", replace_row(2, "0,2,-4.0"), NegativeCount),
    ("c", lambda lines: [x for x in lines if not x.startswith("1,")], DimensionMismatch),
    ("c", lambda lines: [x for x in lines if not x.startswith(("0,3", "1,3"))], DimensionMismatch),
    ("w", lambda lines: lines + ["0,4,0,1.0"], DimensionMismatch),
    ("w", drop_row(3), MissingCell),
    ("w", drop_row(12), MissingCell),
    ("w", lambda lines: lines + ["1,3,2,1.0"], MissingCell),
    ("c", drop_row(2), MissingCell),
    ("c", drop_row(1), MissingCell),
]


def defect_fixture(tmp_path):
    """The valid K=2, T=3, M=2 panel PANEL_DEFECTS edits: 12 weather rows, 6 count rows."""
    rng = np.random.default_rng(9)
    panel = PanelDataset.build(rng.normal(size=(2, 3, 2)), rng.poisson(2.0, size=(2, 3)))
    write_panel(panel, tmp_path / "w.csv", tmp_path / "c.csv")


@pytest.mark.parametrize("which, edit, expected", PANEL_DEFECTS)
def test_load_panel_defects_raise_oracle_class(tmp_path, monkeypatch, which, edit, expected):
    defect_fixture(tmp_path)
    rewrite(tmp_path / f"{which}.csv", edit)
    with pytest.raises(expected) as oracle_error:
        oracle_load_panel(tmp_path / "w.csv", tmp_path / "c.csv")
    assert type(oracle_error.value) is expected
    # the files are read in blocks; a boundary must not change the verdict
    for block_rows in each_block_size(monkeypatch):
        with pytest.raises(expected) as error:
            load_panel(tmp_path / "w.csv", tmp_path / "c.csv")
        assert type(error.value) is expected, block_rows


@pytest.mark.parametrize(
    "text, named", [("1,x,0,1.5", "at row 8,"), ("1,2,0", "at row 9;")], ids=["token", "short"]
)
def test_parse_error_in_a_later_block_names_the_files_data_row(
    tmp_path, monkeypatch, text, named
):
    # data row 9 of 12, after a blank line that is not a data row.  loadtxt
    # numbers a bad token's row from 0 and a short row's from 1, counting from
    # the start of its own call; at 1, 2 and 5 rows a block that call reads a
    # later block, and the message must still name the file's row
    defect_fixture(tmp_path)
    rewrite(tmp_path / "w.csv", lambda lines: lines[:3] + [""] + lines[3:9] + [text] + lines[10:])
    messages = []
    for _ in each_block_size(monkeypatch):
        with pytest.raises(MalformedRow) as error:
            load_panel(tmp_path / "w.csv", tmp_path / "c.csv")
        messages.append(str(error.value))
    assert named in messages[-1]
    assert messages == messages[-1:] * len(messages)


def test_count_beyond_int64_is_malformed(tmp_path):
    # 2**63 - 1 parses to the float 2**63; the per-cell reader ended in OverflowError
    (tmp_path / "w.csv").write_text("unit,time,variable,value\n0,1,0,1.0\n")
    (tmp_path / "c.csv").write_text(f"unit,time,count\n0,1,{2**63 - 1}\n")
    with pytest.raises(OverflowError):
        oracle_load_panel(tmp_path / "w.csv", tmp_path / "c.csv")
    with pytest.raises(MalformedRow):
        load_panel(tmp_path / "w.csv", tmp_path / "c.csv")


def test_header_only_file_raises_without_warning(tmp_path, recwarn):
    (tmp_path / "w.csv").write_text("unit,time,variable,value\n")
    (tmp_path / "c.csv").write_text("unit,time,count\n0,1,0\n")
    with pytest.raises(MalformedRow, match="no data rows"):
        load_panel(tmp_path / "w.csv", tmp_path / "c.csv")
    assert len(recwarn) == 0


def special_series(seed, n, method):
    rng = np.random.default_rng(seed)
    point = rng.gamma(2.0, 3.0, size=n) * 10.0 ** rng.integers(-6, 7, size=n)
    point[: len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:n]
    lower = point - rng.exponential(2.0, size=n)
    upper = point + rng.exponential(2.0, size=n)
    lower[1::7], upper[1::7] = -np.inf, np.inf
    lower[2::11] = upper[2::11] = point[2::11]
    return IntervalSeries(
        method=method,
        node=rng.integers(0, 400, size=n),
        time=rng.integers(1, 10**6, size=n),
        point=point,
        lower=lower,
        upper=upper,
        y_true=rng.poisson(4.0, size=n).astype(np.float64),
    )


def assert_same_series(series, expected):
    assert series.method == expected.method
    for name in ("node", "time"):
        np.testing.assert_array_equal(getattr(series, name), getattr(expected, name))
        assert getattr(series, name).dtype == np.int64
    for name in ("point", "lower", "upper", "y_true"):
        np.testing.assert_array_equal(bits(getattr(series, name)), bits(getattr(expected, name)))


@pytest.mark.parametrize("n, method", [(1, "poisson"), (40, "graph"), (301, "vanilla")])
def test_interval_files_match_oracle_bytes_and_arrays(tmp_path, monkeypatch, n, method):
    # a small write block exercises the block boundaries
    monkeypatch.setattr(conformal, "_ROWS_PER_WRITE", 16)
    series = special_series(n, n, method)
    series.to_csv(tmp_path / "iv.csv")
    oracle_to_csv(series, tmp_path / "oracle.csv")
    assert (tmp_path / "iv.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    back = read_interval_series(tmp_path / "iv.csv")
    assert_same_series(back, oracle_read_interval_series(tmp_path / "iv.csv"))
    assert_same_series(back, series)


INTERVAL_DEFECTS = [
    lambda lines: ["method,node,time,point,lower,upper"] + lines[1:],
    lambda lines: ["method,node,time,point,upper,lower,y_true"] + lines[1:],
    lambda lines: [],
    lambda lines: lines[:1],
    lambda lines: lines[:1] + [""],
    replace_row(2, "graph,0,5,1.0,0.0,2.0"),
    replace_row(2, "graph,0,5,1.0,0.0,2.0,3.0,4.0"),
    replace_row(2, "temporal,0,5,1.0,0.0,2.0,3.0"),
]


@pytest.mark.parametrize("edit", INTERVAL_DEFECTS)
def test_interval_defects_raise_alignment_error_like_oracle(tmp_path, edit):
    path = tmp_path / "iv.csv"
    special_series(4, 5, "graph").to_csv(path)
    rewrite(path, edit)
    with pytest.raises(AlignmentError):
        oracle_read_interval_series(path)
    with pytest.raises(AlignmentError):
        read_interval_series(path)


# --------------------------------------------------------------------------
# Edge lists against the oracle
# --------------------------------------------------------------------------

def random_graph(seed, k, n_edges):
    """A random DAG on k nodes (edges run from lower to higher id)."""
    rng = np.random.default_rng(seed)
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    picks = rng.choice(len(pairs), size=min(n_edges, len(pairs)), replace=False)
    return ServiceGraph.from_edges(k, [pairs[i] for i in picks])


@pytest.mark.parametrize("seed, k, n_edges", [(0, 1, 0), (1, 2, 1), (2, 6, 9), (3, 30, 120)])
@pytest.mark.parametrize("edit", [None, shuffled, with_blank_lines, quoted, padded, crlf])
def test_load_graph_matches_oracle(tmp_path, seed, k, n_edges, edit):
    graph = random_graph(seed, k, n_edges)
    path = tmp_path / "graph.csv"
    write_graph(graph, path)
    assert path.read_text() == "src,dst\n" + "".join(f"{s},{d}\n" for s, d in sorted(graph.edges))
    if edit is not None:
        rewrite(path, edit)
    assert load_graph(path, n_nodes=k) == oracle_load_graph(path, n_nodes=k) == graph


# (edit, n_nodes, class): each edit of a valid 4-node edge list makes one
# defect; None reads the file with its 4 nodes.  A row with a third field,
# a weight or anything else, is malformed.
GRAPH_DEFECTS = [
    (lambda lines: ["src,dest"] + lines[1:], None, MalformedRow),
    (lambda lines: [], None, MalformedRow),
    (replace_row(2, "0,x"), None, MalformedRow),
    (replace_row(2, "0,2.0"), None, MalformedRow),
    (replace_row(2, "0,2,abc"), None, MalformedRow),
    (replace_row(2, "0,2,"), None, MalformedRow),
    (replace_row(2, "0,2,1.0"), None, MalformedRow),
    (replace_row(2, "0"), None, MalformedRow),
    (lambda lines: lines[:2] + ["   "] + lines[2:], None, MalformedRow),
    (replace_row(2, "2,2"), None, MalformedRow),
    (replace_row(2, "0,2,-1.0"), None, MalformedRow),
    (replace_row(2, "0,2,nan"), None, MalformedRow),
    (replace_row(2, "0,2,inf"), None, MalformedRow),
    (lambda lines: lines + [lines[1]], None, DuplicateEdge),
    (lambda lines: lines + ["1,0"], None, SymmetricEdgePair),
    (replace_row(2, "-1,2"), None, UnknownNodeReference),
    (replace_row(2, "0,4"), 4, UnknownNodeReference),
]


def valid_edge_file(path):
    path.write_text("src,dst\n0,1\n0,2\n1,3\n", encoding="utf-8")


@pytest.mark.parametrize("edit, n_nodes, expected", GRAPH_DEFECTS)
def test_load_graph_defects_raise_oracle_class(tmp_path, edit, n_nodes, expected):
    path = tmp_path / "graph.csv"
    valid_edge_file(path)
    rewrite(path, edit)
    n_nodes = 4 if n_nodes is None else n_nodes
    with pytest.raises(expected) as oracle_error:
        oracle_load_graph(path, n_nodes=n_nodes)
    assert type(oracle_error.value) is expected
    with pytest.raises(expected) as error:
        load_graph(path, n_nodes=n_nodes)
    assert type(error.value) is expected


# node ids the per-row reader took through int(): digit groups and
# non-ASCII digits; the table reader rejects them
STRICTER_EDGE_ROWS = [
    replace_row(2, "0,1_0"),
    replace_row(2, "1_0,2"),
    replace_row(2, "0,\u0662"),
    replace_row(2, "0,\uff12"),
]


@pytest.mark.parametrize("edit", STRICTER_EDGE_ROWS)
def test_load_graph_rejects_what_the_oracle_read_leniently(tmp_path, edit):
    path = tmp_path / "graph.csv"
    valid_edge_file(path)
    rewrite(path, edit)
    # 11 nodes: the oracle reads 1_0 as node 10
    oracle_load_graph(path, n_nodes=11)
    with pytest.raises(MalformedRow):
        load_graph(path, n_nodes=11)
