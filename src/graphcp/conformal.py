"""Prediction intervals: split conformal, Poisson parametric, and the
forest-on-residuals methods (temporal-only and graph-pooled).

The graph method follows a per-node loop: pool the signed residual
histories of the node's neighborhood N(j), build lagged features (the
freshest ``window`` residuals, newest first) with the next residual as
target, fit a quantile forest, and set the interval to the point forecast
plus the forest's (alpha/2, 1 - alpha/2) residual quantiles.  The temporal
method is the same code path with the neighborhood forced to {j}; on an
edgeless graph the two are bit-identical.

Vanilla split conformal uses absolute residuals and the finite-sample rank
ceil((1 - alpha) (n + 1)); Poisson intervals are equal-tail discrete
quantiles of Poisson(rate).

``run_conformal`` behaves as a step-by-step walk that emits every node's
interval and then ingests the step's residuals into per-node ring buffers.
Every residual it would ingest is known before the walk starts, so each
method is computed from arrays instead: one Poisson call over all cells,
one vanilla call per node over its sliding windows, and one forest query
per (node, refit round) covering every step until the next refit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

from .errors import (
    AlignmentError,
    DimensionMismatch,
    InsufficientHistory,
    UnknownMethod,
)
from .model import ModelParams, intensity
from .panel import DataSplit, PanelDataset, ServiceGraph
from .qrf import ForestConfig, fit_forest

__all__ = [
    "METHODS",
    "ResidualHistory",
    "IntervalSeries",
    "vanilla_cp",
    "poisson_interval",
    "build_qrf_training_set",
    "graph_cp_step",
    "run_conformal",
    "read_interval_series",
]

METHODS = ("poisson", "vanilla", "temporal", "graph")


def _check_window(capacity: int, window: int) -> None:
    if capacity < 2:
        raise InsufficientHistory(f"capacity must be >= 2, got {capacity}")
    if not 1 <= window < capacity:
        raise InsufficientHistory(
            f"window must satisfy 1 <= window < capacity, got "
            f"window={window}, capacity={capacity}"
        )


class ResidualHistory:
    """Per-node ring buffers of signed residuals, capped at ``capacity``.

    ``window`` is the lag order used to build forest features and must be
    strictly smaller than the capacity, otherwise no (feature, target) pair
    ever fits in a full buffer.
    """

    def __init__(self, n_nodes: int, capacity: int, window: int):
        _check_window(capacity, window)
        self.capacity = int(capacity)
        self.window = int(window)
        self._buffers = [deque(maxlen=capacity) for _ in range(n_nodes)]

    @property
    def n_nodes(self) -> int:
        return len(self._buffers)

    def append(self, node: int, value: float) -> None:
        self._buffers[node].append(float(value))

    def count(self, node: int) -> int:
        return len(self._buffers[node])

    def values(self, node: int) -> np.ndarray:
        """Residuals oldest to newest."""
        return np.array(self._buffers[node], dtype=np.float64)

    def latest_window(self, node: int) -> np.ndarray:
        """The freshest ``window`` residuals, newest first (the query features)."""
        buf = self._buffers[node]
        if len(buf) < self.window:
            raise InsufficientHistory(
                f"node {node} has {len(buf)} residuals, need {self.window}"
            )
        return np.array([buf[-1 - i] for i in range(self.window)], dtype=np.float64)


@dataclass
class IntervalSeries:
    """Per (node, time) prediction intervals with point forecasts and truths."""

    method: str
    node: np.ndarray
    time: np.ndarray
    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    y_true: np.ndarray

    def __post_init__(self):
        n = self.node.shape[0]
        for name in ("time", "point", "lower", "upper", "y_true"):
            if getattr(self, name).shape[0] != n:
                raise DimensionMismatch(f"interval column {name} has wrong length")
        if np.any(self.lower > self.upper):
            raise DimensionMismatch("interval with lower > upper")
        if not np.all(np.isfinite(self.point)):
            raise DimensionMismatch("non-finite point forecast")

    def __len__(self) -> int:
        return self.node.shape[0]

    def to_csv(self, path) -> None:
        with Path(path).open("w", encoding="utf-8", newline="") as handle:
            handle.write("method,node,time,point,lower,upper,y_true\n")
            for i in range(len(self)):
                handle.write(
                    f"{self.method},{int(self.node[i])},{int(self.time[i])},"
                    f"{float(self.point[i])!r},{float(self.lower[i])!r},"
                    f"{float(self.upper[i])!r},{float(self.y_true[i])!r}\n"
                )


def read_interval_series(path) -> IntervalSeries:
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
# Interval constructions
# --------------------------------------------------------------------------


def vanilla_cp(residuals, alpha: float, point):
    """Symmetric split-conformal interval from absolute residuals.

    The half-width is the ceil((1 - alpha)(n + 1))-th smallest absolute
    residual, infinite when that rank exceeds n.  ``residuals`` may hold
    many windows of n residuals along its last axis, with ``point``
    broadcasting against the others; one window and a scalar point give
    floats.
    """
    residuals = np.abs(np.atleast_1d(np.asarray(residuals, dtype=np.float64)))
    n = residuals.shape[-1]
    if n < 1:
        raise InsufficientHistory("vanilla interval needs at least one residual")
    if not 0.0 < alpha < 1.0:
        raise DimensionMismatch(f"alpha must lie in (0, 1), got {alpha}")
    # the slack keeps e.g. 0.8 * 5 = 4.000000000000001 from ceiling to 5
    rank = int(math.ceil((1.0 - alpha) * (n + 1) - 1e-9))
    if rank > n:
        half = np.full(residuals.shape[:-1], math.inf)
    else:
        half = np.partition(residuals, rank - 1, axis=-1)[..., rank - 1]
    lower, upper = point - half, point + half
    if residuals.ndim == 1 and np.ndim(point) == 0:
        return float(lower), float(upper)
    return lower, upper


def poisson_interval(rate, alpha: float):
    """Equal-tail discrete quantiles of Poisson(rate), elementwise over rates.

    A scalar rate gives floats.
    """
    if not 0.0 < alpha < 1.0:
        raise DimensionMismatch(f"alpha must lie in (0, 1), got {alpha}")
    lower = stats.poisson.ppf(alpha / 2.0, rate)
    upper = stats.poisson.ppf(1.0 - alpha / 2.0, rate)
    if np.ndim(rate) == 0:
        return float(lower), float(upper)
    return lower, upper


def build_qrf_training_set(history, nodes, window: "int | None" = None):
    """Pooled lagged-residual rows over the given nodes.

    ``history`` is a ResidualHistory, or a (K, L) array of every node's
    buffered residuals, oldest to newest, in which case ``window`` is
    required.  Each node with L residuals contributes L - window rows;
    features are ``window`` consecutive residuals ordered newest first, the
    target is the residual immediately after them.
    """
    if isinstance(history, ResidualHistory):
        window = history.window if window is None else int(window)
        series_of = history.values
    else:
        buffered = np.asarray(history, dtype=np.float64)
        window = int(window)
        series_of = buffered.__getitem__
    features, targets = [], []
    for node in sorted(int(n) for n in nodes):
        series = series_of(node)
        if series.shape[0] < window + 1:
            raise InsufficientHistory(
                f"node {node} has {series.shape[0]} residuals, need {window + 1}"
            )
        lagged = np.lib.stride_tricks.sliding_window_view(series, window)
        features.append(lagged[: series.shape[0] - window, ::-1])
        targets.append(series[window:])
    return np.concatenate(features, axis=0), np.concatenate(targets, axis=0)


def _quantile_levels(alpha: float) -> np.ndarray:
    return np.array([alpha / 2.0, 1.0 - alpha / 2.0])


def graph_cp_step(
    node: int,
    neighbors,
    history: ResidualHistory,
    forest_config: ForestConfig,
    alpha: float,
    point: float,
):
    """One prediction step for one node: fit on N(node), query, widen around point."""
    features, targets = build_qrf_training_set(history, neighbors)
    forest = fit_forest(features, targets, forest_config)
    q_low, q_high = forest.quantile(history.latest_window(node), _quantile_levels(alpha))
    return point + float(q_low), point + float(q_high)


# --------------------------------------------------------------------------
# Sequential driver
# --------------------------------------------------------------------------


def _derived_forest_config(base: ForestConfig, seed: int, node: int, refit: int):
    child = np.random.SeedSequence([seed, node, refit]).generate_state(1)[0]
    return ForestConfig(
        n_trees=base.n_trees,
        max_depth=base.max_depth,
        min_leaf=base.min_leaf,
        mtry=base.mtry,
        bootstrap=base.bootstrap,
        seed=int(child),
    )


def run_conformal(
    panel: PanelDataset,
    graph: ServiceGraph,
    params: ModelParams,
    data_split: DataSplit,
    method: str,
    alpha: float = 0.1,
    window: int = 20,
    calib_window: "int | None" = None,
    retrain_stride: "int | float | None" = 1,
    forest_config: "ForestConfig | None" = None,
    seed: "int | None" = None,
) -> IntervalSeries:
    """Walk the test range emitting intervals for every node at every step.

    Residual buffers warm up on the last ``calib_window`` calibration steps
    (default: the whole calibration range) and ingest each test residual
    after the step's intervals are emitted.  Forest methods refit every
    ``retrain_stride`` steps (None or inf: fit once).
    """
    if method not in METHODS:
        raise UnknownMethod(f"method {method!r} not in {METHODS}")
    if not 0.0 < alpha < 1.0:
        raise DimensionMismatch(f"alpha must lie in (0, 1), got {alpha}")
    forest_config = forest_config or ForestConfig()
    seed = forest_config.seed if seed is None else int(seed)
    cal_lo, cal_hi = data_split.calibration
    cal_len = cal_hi - cal_lo + 1
    calib_window = cal_len if calib_window is None else int(calib_window)
    if calib_window > cal_len:
        raise InsufficientHistory(
            f"calibration range has {cal_len} steps, cannot warm up {calib_window}"
        )
    if retrain_stride is None or retrain_stride == math.inf:
        stride = None
    else:
        stride = int(retrain_stride)
        if stride < 1:
            raise DimensionMismatch(f"retrain_stride must be >= 1, got {retrain_stride}")

    window = int(window)
    _check_window(calib_window, window)

    rates = intensity(panel, graph, params)
    counts = panel.counts
    k = panel.n_nodes
    test_lo, test_hi = data_split.test
    n_test = test_hi - test_lo + 1
    points = rates[:, test_lo - 1 : test_hi]
    # Every residual the walk ingests is known up front: at test step s the
    # per-node buffers hold resid[:, s : s + calib_window], the warm-up
    # residuals followed by those of the test steps before s.
    first = test_lo - 1 - calib_window
    resid = counts[:, first : test_hi - 1] - rates[:, first : test_hi - 1]

    if method == "poisson":
        lower, upper = poisson_interval(points, alpha)
    elif method == "vanilla":
        lower, upper = np.empty((k, n_test)), np.empty((k, n_test))
        for j in range(k):
            windows = np.lib.stride_tricks.sliding_window_view(resid[j], calib_window)
            lower[j], upper[j] = vanilla_cp(windows, alpha, points[j])
    else:
        pools = [sorted(graph.neighborhood(j)) if method == "graph" else [j] for j in range(k)]
        lower, upper = _forest_intervals(
            resid, points, pools, alpha, window, calib_window, stride, forest_config, seed
        )

    return IntervalSeries(
        method=method,
        node=np.tile(np.arange(k, dtype=np.int64), n_test),
        time=np.repeat(np.arange(test_lo, test_hi + 1, dtype=np.int64), k),
        point=points.T.ravel(),
        lower=lower.T.ravel(),
        upper=upper.T.ravel(),
        y_true=counts[:, test_lo - 1 : test_hi].T.ravel().astype(np.float64),
    )


def _forest_intervals(
    resid, points, pools, alpha, window, calib_window, stride, forest_config, seed
):
    """(K, n_test) interval bounds of a forest method; node j pools ``pools[j]``.

    Each refit round fits one forest per node on the buffers at its first
    step, then answers every step up to the next round in one query block.
    """
    k, n_test = points.shape
    # row s + calib_window - window of a node's lags is the query at step s:
    # the freshest ``window`` buffered residuals, newest first
    lags = np.lib.stride_tricks.sliding_window_view(resid, window, axis=1)[:, :, ::-1]
    offset = calib_window - window
    levels = _quantile_levels(alpha)
    starts = [0] if stride is None else list(range(0, n_test, stride))
    lower, upper = np.empty((k, n_test)), np.empty((k, n_test))
    for refit, (lo, hi) in enumerate(zip(starts, starts[1:] + [n_test])):
        buffered = resid[:, lo : lo + calib_window]
        for j in range(k):
            features, targets = build_qrf_training_set(buffered, pools[j], window)
            cfg = _derived_forest_config(forest_config, seed, j, refit)
            forest = fit_forest(features, targets, cfg)
            q = forest.quantile(lags[j, lo + offset : hi + offset], levels)
            lower[j, lo:hi] = points[j, lo:hi] + q[:, 0]
            upper[j, lo:hi] = points[j, lo:hi] + q[:, 1]
    return lower, upper
