"""Oracles for the batched forest and the batched run_conformal.

The first half of this file is the original, one-query-at-a-time code: the
per-feature split search, the tree grower with per-node member lists and a
Python tree walk, per-query Meinshausen weights and quantiles, and the
per-(step, node) interval loop over deque ring buffers with scalar Poisson
and vanilla intervals.  The tests assert that the array trees, the batched
queries and the batched run_conformal give bit-identical trees, quantiles and
interval columns.

The second half holds the original model layer, which runs the weather
convolutions and the excitation recursions over the whole panel for every
likelihood and gradient call.  The tests assert that the block-local pass
gives bit-identical values, gradients and fits.
"""

import math
from collections import deque

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from graphcp import model
from graphcp.conformal import run_conformal
from graphcp.errors import InsufficientHistory
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
from graphcp.panel import PanelDataset, ServiceGraph
from graphcp.qrf import ForestConfig, fit_forest
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
            threshold = 0.5 * (xs[pos] + xs[pos + 1])
            best = (score[pos], int(f), threshold)
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
        assert forest.to_debug_dict() == oracle.to_debug_dict()

        queries = np.concatenate([x[: min(len(x), 20)], rng.normal(size=(20, x.shape[1]))])
        if kind == "ties":
            queries = np.round(queries)
        expected = np.array([oracle.quantile(q, levels) for q in queries])
        np.testing.assert_array_equal(forest.quantile(queries, levels), expected)
        np.testing.assert_array_equal(forest.quantile(queries[0], levels), expected[0])
        assert forest.quantile(queries[1], 0.5) == float(expected[1, 2])
        np.testing.assert_array_equal(
            forest.weights(queries), np.array([oracle.weights(q) for q in queries])
        )


def test_bootstrap_duplicates_weighted_like_oracle():
    # few distinct rows, so every bootstrap leaf repeats original rows
    rng = np.random.default_rng(4)
    x = np.repeat(rng.normal(size=(6, 2)), 10, axis=0)
    y = np.repeat(rng.normal(size=6), 10)
    config = ForestConfig(n_trees=7, min_leaf=1, seed=5)
    forest = fit_forest(x, y, config)
    oracle = OracleForest(x, y, config)
    assert forest.to_debug_dict() == oracle.to_debug_dict()
    assert any(
        len(set(m)) < len(m)
        for tree in forest.to_debug_dict()["trees"]
        for m in tree["leaf_members"]
        if m is not None
    )
    queries = rng.normal(size=(30, 2))
    np.testing.assert_array_equal(
        forest.weights(queries), np.array([oracle.weights(q) for q in queries])
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


def oracle_coupling_matrix(params, graph):
    mat = np.zeros((params.n_nodes, params.n_nodes))
    np.fill_diagonal(mat, 1.0)
    for (src, dst), value in params.coupling.items():
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
    d_coupling = np.array([cross[dst, src] for src, dst in packer.edge_order])
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

    grad = np.empty(packer.size)
    grad[packer.slices["coupling"]] = d_coupling * _rate_chain(
        np.array([params.coupling[e] for e in packer.edge_order])
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


def test_fit_matches_oracle_fit(monkeypatch):
    """A storm-like fit (momentum, blocks, train range) gives the oracle's bits."""
    rng = np.random.default_rng(7)
    panel, graph, params = random_model_instance(rng, 6, 150, 24, hidden=4)
    config = FitConfig(learning_rate=2e-2, epochs=6, batch_len=20, momentum=0.9, seed=3)
    got = fit(panel, graph, params, config, time_range=(1, 50))
    monkeypatch.setattr(model, "log_likelihood", oracle_log_likelihood)
    monkeypatch.setattr(model, "likelihood_gradient", oracle_likelihood_gradient)
    want = fit(panel, graph, params, config, time_range=(1, 50))
    assert got.checkpoints[-1] > got.checkpoints[0]
    assert np.array_equal(got.checkpoints, want.checkpoints)
    assert got.n_retreats == want.n_retreats
    assert got.learning_rate_final == want.learning_rate_final
    assert got.params.to_dict() == want.params.to_dict()
