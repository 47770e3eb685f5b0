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
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats

from .errors import (
    AlignmentError,
    DimensionMismatch,
    InsufficientHistory,
    UnknownMethod,
    ValidationError,
)
from .model import ModelParams, intensity
from .panel import DataSplit, PanelDataset, ServiceGraph, read_table, write_csv
from .qrf import ForestConfig, fit_forest

__all__ = [
    "METHODS",
    "IntervalSeries",
    "vanilla_cp",
    "poisson_interval",
    "build_qrf_training_set",
    "run_conformal",
    "read_interval_series",
]

METHODS = ("poisson", "vanilla", "temporal", "graph")

# one interval file row; the header names these fields
_INTERVAL_ROW = np.dtype(
    [
        ("method", object),
        ("node", np.int64),
        ("time", np.int64),
        ("point", np.float64),
        ("lower", np.float64),
        ("upper", np.float64),
        ("y_true", np.float64),
    ]
)
_ROWS_PER_WRITE = 1 << 16


def _check_window(calib_window: int, window: int) -> None:
    if not 1 <= window < calib_window:
        raise InsufficientHistory(
            f"window must satisfy 1 <= window < calib_window, got "
            f"window={window}, calib_window={calib_window}"
        )


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
        """One row per record; floats via repr, so reading back is exact."""
        columns = [self.node.astype(np.int64), self.time.astype(np.int64)] + [
            getattr(self, name).astype(np.float64) for name in _INTERVAL_ROW.names[3:]
        ]

        def blocks():
            for lo in range(0, len(self), _ROWS_PER_WRITE):
                rows = zip(*(col[lo : lo + _ROWS_PER_WRITE].tolist() for col in columns))
                yield "".join(
                    [
                        f"{self.method},{node},{time},{point!r},{lower!r},{upper!r},{y!r}\n"
                        for node, time, point, lower, upper, y in rows
                    ]
                )

        write_csv(path, ",".join(_INTERVAL_ROW.names) + "\n", blocks())


def read_interval_series(path) -> IntervalSeries:
    rows = read_table(path, _INTERVAL_ROW, error=AlignmentError)
    methods = rows["method"]
    mixed = methods != methods[0]
    if mixed.any():
        raise AlignmentError(
            f"{path}: mixed methods {methods[0]!r} and {methods[np.argmax(mixed)]!r}"
        )
    return IntervalSeries(
        method=methods[0], **{name: rows[name].copy() for name in _INTERVAL_ROW.names[1:]}
    )


# --------------------------------------------------------------------------
# Interval constructions
# --------------------------------------------------------------------------


def _vanilla_rank(alpha: float, n: int) -> int:
    # the slack keeps e.g. 0.8 * 5 = 4.000000000000001 from ceiling to 5
    return int(math.ceil((1.0 - alpha) * (n + 1) - 1e-9))


def vanilla_cp(residuals, alpha: float, point):
    """Symmetric split-conformal interval from absolute residuals.

    The half-width is the ceil((1 - alpha)(n + 1))-th smallest absolute
    residual, infinite when that rank exceeds n.  ``residuals`` may hold
    many windows of n residuals along its last axis, with ``point``
    broadcasting against the others.
    """
    residuals = np.abs(np.atleast_1d(np.asarray(residuals, dtype=np.float64)))
    n = residuals.shape[-1]
    if n < 1:
        raise InsufficientHistory("vanilla interval needs at least one residual")
    if not 0.0 < alpha < 1.0:
        raise DimensionMismatch(f"alpha must lie in (0, 1), got {alpha}")
    rank = _vanilla_rank(alpha, n)
    if rank > n:
        half = np.full(residuals.shape[:-1], math.inf)
    else:
        half = np.partition(residuals, rank - 1, axis=-1)[..., rank - 1]
    return point - half, point + half


def poisson_interval(rate, alpha: float):
    """Equal-tail discrete quantiles of Poisson(rate), elementwise over rates."""
    if not 0.0 < alpha < 1.0:
        raise DimensionMismatch(f"alpha must lie in (0, 1), got {alpha}")
    return stats.poisson.ppf(alpha / 2.0, rate), stats.poisson.ppf(1.0 - alpha / 2.0, rate)


def build_qrf_training_set(buffered, nodes, window: int):
    """Pooled lagged-residual rows over the given nodes.

    ``buffered`` is a (K, L) array of every node's buffered residuals,
    oldest to newest.  Each listed node contributes L - window rows;
    features are ``window`` consecutive residuals ordered newest first, the
    target is the residual immediately after them.
    """
    buffered = np.asarray(buffered, dtype=np.float64)
    window = int(window)
    features, targets = [], []
    for node in sorted(int(n) for n in nodes):
        series = buffered[node]
        if series.shape[0] < window + 1:
            raise InsufficientHistory(
                f"node {node} has {series.shape[0]} residuals, need {window + 1}"
            )
        lagged = np.lib.stride_tricks.sliding_window_view(series, window)
        features.append(lagged[: series.shape[0] - window, ::-1])
        targets.append(series[window:])
    return np.concatenate(features, axis=0), np.concatenate(targets, axis=0)


# --------------------------------------------------------------------------
# Sequential driver
# --------------------------------------------------------------------------


def _derived_forest_config(base: ForestConfig, node: int, refit: int) -> ForestConfig:
    child = np.random.SeedSequence([base.seed, node, refit]).generate_state(1)[0]
    return replace(base, seed=int(child))


def run_conformal(
    panel: PanelDataset,
    graph: ServiceGraph,
    params: ModelParams,
    data_split: DataSplit,
    method: str,
    alpha: float = 0.1,
    window: int = 20,
    calib_window: "int | None" = None,
    retrain_stride: "int | None" = 1,
    forest_config: "ForestConfig | None" = None,
) -> IntervalSeries:
    """Walk the test range emitting intervals for every node at every step.

    Residual buffers warm up on the last ``calib_window`` calibration steps
    (default: the whole calibration range) and ingest each test residual
    after the step's intervals are emitted.  Forest methods refit every
    ``retrain_stride`` steps (None: fit once), each node and round with a
    seed derived from ``forest_config.seed``.  A NaN or overflowed
    bound raises ValidationError; only vanilla's infinite half-width may be
    infinite.
    """
    if method not in METHODS:
        raise UnknownMethod(f"method {method!r} not in {METHODS}")
    if not 0.0 < alpha < 1.0:
        raise DimensionMismatch(f"alpha must lie in (0, 1), got {alpha}")
    forest_config = forest_config or ForestConfig()
    cal_lo, cal_hi = data_split.calibration
    cal_len = cal_hi - cal_lo + 1
    calib_window = cal_len if calib_window is None else int(calib_window)
    if calib_window > cal_len:
        raise InsufficientHistory(
            f"calibration range has {cal_len} steps, cannot warm up {calib_window}"
        )
    stride = None if retrain_stride is None else int(retrain_stride)
    if stride is not None and stride < 1:
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
            resid, points, pools, alpha, window, calib_window, stride, forest_config
        )

    series = IntervalSeries(
        method=method,
        node=np.tile(np.arange(k, dtype=np.int64), n_test),
        time=np.repeat(np.arange(test_lo, test_hi + 1, dtype=np.int64), k),
        point=points.T.ravel(),
        lower=lower.T.ravel(),
        upper=upper.T.ravel(),
        y_true=counts[:, test_lo - 1 : test_hi].T.ravel().astype(np.float64),
    )
    # vanilla's half-width is infinite in every cell when its rank exceeds
    # the calib_window residuals; any other non-finite bound is an overflow
    finite = np.isfinite(lower) & np.isfinite(upper)
    if not finite.all() and not (
        method == "vanilla" and _vanilla_rank(alpha, calib_window) > calib_window
    ):
        j, s = np.argwhere(~finite)[0]
        raise ValidationError(
            f"conformal: {method} bounds [{lower[j, s]}, {upper[j, s]}] at node {j}, "
            f"time {test_lo + s} are not finite"
        )
    return series


def _forest_intervals(resid, points, pools, alpha, window, calib_window, stride, forest_config):
    """(K, n_test) interval bounds of a forest method; node j pools ``pools[j]``.

    Each refit round fits one forest per node on the buffers at its first
    step, then answers every step up to the next round in one query block.
    """
    k, n_test = points.shape
    # row s + calib_window - window of a node's lags is the query at step s:
    # the freshest ``window`` buffered residuals, newest first
    lags = np.lib.stride_tricks.sliding_window_view(resid, window, axis=1)[:, :, ::-1]
    offset = calib_window - window
    levels = np.array([alpha / 2.0, 1.0 - alpha / 2.0])
    starts = [0] if stride is None else list(range(0, n_test, stride))
    lower, upper = np.empty((k, n_test)), np.empty((k, n_test))
    for refit, (lo, hi) in enumerate(zip(starts, starts[1:] + [n_test])):
        buffered = resid[:, lo : lo + calib_window]
        for j in range(k):
            features, targets = build_qrf_training_set(buffered, pools[j], window)
            cfg = _derived_forest_config(forest_config, j, refit)
            forest = fit_forest(features, targets, cfg)
            q = forest.quantile(lags[j, lo + offset : hi + offset], levels)
            lower[j, lo:hi] = points[j, lo:hi] + q[:, 0]
            upper[j, lo:hi] = points[j, lo:hi] + q[:, 1]
    return lower, upper
