"""Graph-coupled Poisson intensity model for outage counts.

The rate of node ``i`` at time ``t`` decomposes into a weather-driven term
and excitation inherited from recent outages at the influence sources:

    rate[i, t] = scale[i] * response(v[i, t, :])
                 + sum_{j in N(i)} coupling[i <- j] * S[j, t]

where ``v`` is the window-d cumulative weather effect

    v[i, t, m] = sum_{s=0}^{d-1} weather[i, t - s, m] * exp(-weather_decay[m] * s)

``response`` is a small nonnegative one-hidden-layer network
(softplus(w_out . tanh(W_hidden v + b_hidden) + b_out)), and the excitation
accumulator obeys

    S[j, 1] = 0
    S[j, t] = exp(-decay[j]) * (S[j, t-1] + decay[j] * counts[j, t-1])

which telescopes to the double sum
sum_{t' < t} counts[j, t'] * decay[j] * exp(-decay[j] (t - t')).
The self-coupling is pinned to 1 and is not a trainable parameter.

Counts are modelled as Poisson(rate); training maximizes

    ll = - sum_{t, i} (rate[i, t] - counts[i, t] * log rate[i, t])

by mini-batch gradient ascent over unconstrained coordinates: nonnegative
parameters are softplus-reparameterized, network weights are free reals.
Rates are floored at ``INTENSITY_FLOOR`` so the log stays finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import expit

from .errors import (
    ConfigError, DimensionMismatch, NonFiniteLoss, coerce, field_dict, read_fields, take,
)
from .panel import PanelDataset, ServiceGraph, _readonly, read_json, write_json

__all__ = [
    "INTENSITY_FLOOR",
    "ResponseWeights",
    "ModelParams",
    "FitConfig",
    "FitResult",
    "ParamPacker",
    "softplus",
    "softplus_inv",
    "cumulative_weather",
    "weather_response",
    "excitation",
    "intensity",
    "log_likelihood",
    "likelihood_gradient",
    "fit",
    "init_params",
    "save_params",
    "load_params",
]

INTENSITY_FLOOR = 1e-8


def softplus(x):
    """log(1 + exp(x)), numerically stable."""
    return np.logaddexp(0.0, x)


def softplus_inv(y):
    """Inverse of softplus on [0, inf); maps 0 to -inf."""
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore"):
        small = np.log(np.expm1(np.minimum(y, 30.0)))
        large = y + np.log1p(-np.exp(-np.maximum(y, 30.0)))
    return np.where(y > 30.0, large, small)


def _rate_chain(natural):
    """d(natural)/d(raw) for natural = softplus(raw), from the natural value."""
    return -np.expm1(-np.asarray(natural, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class Coupling:
    """The coupling ModelParams checks and holds: read-only sorted (E, 2) ``edges``
    (src, dst) and their (E,) ``values``; ``tolist`` gives ``params.json``'s rows."""

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "edges", _readonly(np.reshape(self.edges, (-1, 2)), np.intp))
        object.__setattr__(self, "values", _readonly(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        return isinstance(other, Coupling) and self.tolist() == other.tolist()

    def tolist(self) -> list:
        return [[*edge, value] for edge, value in zip(self.edges.tolist(), self.values.tolist())]

    def on(self, graph: ServiceGraph) -> np.ndarray:
        """The value at each of ``graph.edges``, 0.0 where this coupling names
        none; an edge the graph lacks raises DimensionMismatch."""
        if np.array_equal(self.edges, graph.edge_index):
            return self.values
        slots = {edge: i for i, edge in enumerate(graph.edges)}
        pairs = list(map(tuple, self.edges.tolist()))
        if extra := [edge for edge in pairs if edge not in slots]:
            raise DimensionMismatch(f"coupling keys {extra} not in the graph")
        values = np.zeros(len(slots))
        values[[slots[edge] for edge in pairs]] = self.values
        return values


@dataclass(frozen=True)
class ResponseWeights:
    """Weights of the nonnegative weather-to-rate response network."""

    w_hidden: np.ndarray  # (H, M)
    b_hidden: np.ndarray  # (H,)
    w_out: np.ndarray  # (H,)
    b_out: float

    def __post_init__(self):
        w_hidden = _readonly(np.atleast_2d(self.w_hidden))
        b_hidden = _readonly(np.atleast_1d(self.b_hidden))
        w_out = _readonly(np.atleast_1d(self.w_out))
        hidden = w_hidden.shape[0]
        if b_hidden.shape != (hidden,) or w_out.shape != (hidden,):
            raise DimensionMismatch(
                f"response shapes disagree: w_hidden {w_hidden.shape}, "
                f"b_hidden {b_hidden.shape}, w_out {w_out.shape}"
            )
        object.__setattr__(self, "w_hidden", w_hidden)
        object.__setattr__(self, "b_hidden", b_hidden)
        object.__setattr__(self, "w_out", w_out)
        object.__setattr__(self, "b_out", float(self.b_out))

    @property
    def hidden_units(self) -> int:
        return self.w_hidden.shape[0]

    @property
    def n_vars(self) -> int:
        return self.w_hidden.shape[1]

    to_dict = field_dict

    @classmethod
    def from_dict(cls, doc: dict, where: str = "") -> "ResponseWeights":
        kinds = dict(w_hidden=float_array, b_hidden=float_array, w_out=float_array, b_out=float)
        return read_fields(cls, doc, kinds, where)

    @classmethod
    def random(cls, hidden: int, n_vars: int, rng, scale: float = 0.3) -> "ResponseWeights":
        return cls(
            rng.normal(0.0, scale, size=(hidden, n_vars)),
            rng.normal(0.0, scale, size=hidden),
            rng.normal(0.0, scale, size=hidden),
            float(rng.normal(0.0, scale)),
        )


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set.

    coupling, a mapping ``{(src, dst): value}`` of nonnegative influence
    weights (or another ModelParams' coupling), is held as a ``Coupling``
    in sorted edge order; an edge it omits reads as 0.  The implicit
    self-coupling of every node is exactly 1 and never trained.
    decay/scale are per node, weather_decay per weather variable, all
    nonnegative.  window is the weather lookback d.
    """

    coupling: "dict | Coupling"
    decay: np.ndarray
    scale: np.ndarray
    weather_decay: np.ndarray
    response: ResponseWeights
    window: int
    seed: "int | None" = None

    def __post_init__(self):
        decay = _readonly(np.atleast_1d(self.decay))
        scale = _readonly(np.atleast_1d(self.scale))
        wdecay = _readonly(np.atleast_1d(self.weather_decay))
        if decay.shape != scale.shape:
            raise DimensionMismatch(
                f"decay {decay.shape} and scale {scale.shape} disagree on K"
            )
        if wdecay.shape != (self.response.n_vars,):
            raise DimensionMismatch(
                f"weather_decay has {wdecay.shape[0]} entries but the response "
                f"network expects {self.response.n_vars} variables"
            )
        coupling = self.coupling
        if not isinstance(coupling, Coupling):
            rows = {}
            for key, value in coupling.items():
                src, dst = (int(k) for k in key)
                if src == dst:
                    raise DimensionMismatch(
                        f"self-coupling ({src}, {dst}) is implicit and fixed at 1"
                    )
                value = float(value)
                if not np.isfinite(value) or value < 0:
                    raise DimensionMismatch(f"coupling[{src}, {dst}] = {value!r} invalid")
                rows[(src, dst)] = value
            edges = sorted(rows)
            coupling = Coupling(edges, [rows[edge] for edge in edges])
        for name, arr in (("decay", decay), ("scale", scale), ("weather_decay", wdecay)):
            if np.any(~np.isfinite(arr)) or np.any(arr < 0):
                raise DimensionMismatch(f"{name} must be finite and nonnegative")
        if int(self.window) < 1:
            raise DimensionMismatch(f"window must be >= 1, got {self.window}")
        object.__setattr__(self, "coupling", coupling)
        object.__setattr__(self, "decay", decay)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "weather_decay", wdecay)
        object.__setattr__(self, "window", int(self.window))

    @property
    def n_nodes(self) -> int:
        return self.decay.shape[0]

    @property
    def n_vars(self) -> int:
        return self.weather_decay.shape[0]

    def coupling_matrix(self, graph: ServiceGraph) -> np.ndarray:
        """Dense (K, K) matrix A with A[dst, src] = coupling and unit diagonal."""
        if self.n_nodes != graph.n_nodes:
            raise DimensionMismatch(
                f"params have K={self.n_nodes} but graph has K={graph.n_nodes}"
            )
        mat = np.eye(self.n_nodes)
        src, dst = graph.edge_index.T
        mat[dst, src] = self.coupling.on(graph)
        return mat

    def _header(self) -> dict:  # the dimensions to_dict writes next to the arrays
        return dict(n_nodes=self.n_nodes, n_vars=self.n_vars, hidden=self.response.hidden_units)

    def to_dict(self) -> dict:
        return dict(field_dict(self), **self._header())

    @classmethod
    def from_dict(cls, doc: dict, where: str = "params.") -> "ModelParams":
        """Parse ``to_dict`` output; a missing, unknown or wrong-typed key, or a
        repeated coupling edge, raises ConfigError naming it, prefixed by ``where``.
        A header key may be absent, and one that disagrees with the arrays raises
        DimensionMismatch."""
        doc = dict(doc)
        header = {key: take(doc, key, int, where=where) for key in ("n_nodes", "n_vars", "hidden")
                  if key in doc}
        coupling = {}
        for i, row in enumerate(take(doc, "coupling", list, where=where)):
            at = f"{where}coupling[{i}]"
            if not isinstance(row, list) or len(row) != 3:
                raise ConfigError(f"{at}: expected [src, dst, value], got {row!r}")
            src, dst, value = row
            edge = coerce(int, src, at), coerce(int, dst, at)
            if edge in coupling:
                raise ConfigError(f"{at}: repeats the edge {list(edge)}")
            coupling[edge] = coerce(float, value, at)
        kinds = dict(coupling=dict, decay=float_array, scale=float_array,
                     weather_decay=float_array, response=ResponseWeights, window=int, seed=int)
        params = read_fields(cls, dict(doc, coupling=coupling), kinds, where)
        for key, value in header.items():
            if value != (actual := params._header()[key]):
                raise DimensionMismatch(f"{where}{key} is {value}, the arrays give {actual}")
        return params


def float_array(value) -> np.ndarray:
    """A JSON array of numbers as float64; strings, booleans, null or ragged rows raise."""
    array = np.array(value)
    items = np.array(value, dtype=object).ravel()
    if array.dtype.kind not in "iuf" or any(isinstance(item, bool) for item in items):
        raise TypeError(f"not an array of numbers: {value!r}")
    return array.astype(np.float64)


def save_params(params: ModelParams, path: "str | Path") -> None:
    write_json(path, params.to_dict())


def load_params(path: "str | Path") -> ModelParams:
    return ModelParams.from_dict(read_json(path))


def init_params(
    graph: ServiceGraph, n_vars: int, hidden: int, window: int, seed: int
) -> ModelParams:
    """Fixed strictly-positive start for fitting: coupling 0.2, decay and scale
    0.5, weather decay 0.2, and N(0, 0.3) response weights drawn from ``seed``."""
    k = graph.n_nodes
    return ModelParams(
        coupling={edge: 0.2 for edge in graph.edge_pairs()},
        decay=np.full(k, 0.5),
        scale=np.full(k, 0.5),
        weather_decay=np.full(n_vars, 0.2),
        response=ResponseWeights.random(hidden, n_vars, np.random.default_rng(seed)),
        window=window,
        seed=seed,
    )


# --------------------------------------------------------------------------
# Forward pass
# --------------------------------------------------------------------------


def cumulative_weather(weather: np.ndarray, weather_decay, window: int, *, _with_age=False):
    """Windowed exponentially-decayed sum of recent weather, per variable.

    A zero decay rate reduces to the plain window-d moving sum; indices
    before the start of the series contribute nothing.  The gradient pass
    sets the private ``_with_age`` flag to also get the age tensor
    sum_s s * x[t-s] * exp(-rate * s), which is -d(cumulative)/d(rate).
    """
    weather = np.asarray(weather, dtype=np.float64)
    rates = np.atleast_1d(np.asarray(weather_decay, dtype=np.float64))
    if weather.ndim != 3:
        raise DimensionMismatch(f"weather must be (K, T, M), got {weather.shape}")
    k, t_total, n_vars = weather.shape
    if rates.shape != (n_vars,):
        raise DimensionMismatch(
            f"{rates.shape[0]} decay rates for {n_vars} weather variables"
        )
    if window < 1:
        raise DimensionMismatch(f"window must be >= 1, got {window}")
    out = np.empty_like(weather)
    age = np.empty_like(weather) if _with_age else None
    eff = min(window, t_total)
    ages = np.arange(eff, dtype=np.float64)
    for m in range(n_vars):
        kernel = np.exp(-rates[m] * ages)
        age_kernel = ages * kernel
        for i in range(k):
            out[i, :, m] = np.convolve(weather[i, :, m], kernel)[:t_total]
            if age is not None:
                age[i, :, m] = np.convolve(weather[i, :, m], age_kernel)[:t_total]
    return (out, age) if _with_age else out


def weather_response(v, weights: ResponseWeights):
    """Nonnegative response softplus(w_out . tanh(W_hidden v + b_hidden) + b_out).

    Accepts a single length-M vector or any (..., M) stack.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != weights.n_vars:
        raise DimensionMismatch(
            f"response expects {weights.n_vars} variables, got {v.shape[-1]}"
        )
    hidden = np.tanh(v @ weights.w_hidden.T + weights.b_hidden)
    return softplus(hidden @ weights.w_out + weights.b_out)


def excitation(counts: np.ndarray, decay, *, _with_sensitivity=False):
    """Per-node excitation series S (K, T) via the one-step recursion.

    The gradient pass sets the private ``_with_sensitivity`` flag to also
    get dS/d(decay), which obeys

        dS[j, t] = exp(-decay[j]) * (dS[j, t-1] + counts[j, t-1]) - S[j, t]

    Narrow panels (16 K < T) run each node's recursions as IIR filters in C,
    wide ones a time loop over all nodes at once; both give the same bits.
    """
    counts = np.asarray(counts, dtype=np.float64)
    decay = np.atleast_1d(np.asarray(decay, dtype=np.float64))
    k, t_total = counts.shape
    if decay.shape != (k,):
        raise DimensionMismatch(f"{decay.shape[0]} decay rates for {k} nodes")
    if not np.all(np.isfinite(decay) & (decay >= 0)):
        raise DimensionMismatch("decay must be finite and nonnegative")
    damp = np.exp(-decay)
    parts = None
    if 16 * k < t_total:
        parts = _excitation_filtered(counts, decay, damp, _with_sensitivity)
    # past an overflow the filters' extra terms give nan where the loop gives
    # inf, so a non-finite result is recomputed by the loop
    if parts is None or not all(np.isfinite(part).all() for part in parts):
        parts = _excitation_loop(counts, decay, damp, _with_sensitivity)
    return parts if _with_sensitivity else parts[0]


def _excitation_loop(counts, decay, damp, with_sensitivity) -> tuple:
    """``excitation`` as a loop over time, each step vectorised over the nodes."""
    k, t_total = counts.shape
    # Time-major rows [S | dS]. Row t starts out holding step t-1's input,
    # then two or three in-place ufunc calls finish it; each rounds exactly
    # like the (K, T) form.
    width = 2 * k if with_sensitivity else k
    state = np.zeros((t_total, width))
    np.multiply(counts.T[:-1], decay, out=state[1:, :k])
    if with_sensitivity:
        state[1:, k:] = counts.T[:-1]
        damp = np.concatenate([damp, damp])
    add, multiply, subtract = np.add, np.multiply, np.subtract
    for prev, row, excite, sens in zip(state, state[1:], state[1:, :k], state[1:, k:]):
        add(prev, row, out=row)
        multiply(row, damp, out=row)
        if with_sensitivity:
            subtract(sens, excite, out=sens)
    if with_sensitivity:
        return np.ascontiguousarray(state[:, :k].T), np.ascontiguousarray(state[:, k:].T)
    return (np.ascontiguousarray(state.T),)


def _excitation_filtered(counts, decay, damp, with_sensitivity) -> tuple:
    """``excitation`` as two ``lfilter`` calls per node (direct form II transposed).

    Each filter step multiplies only by 0, +-1 or damp and adds the damped
    term to one input, so while every value stays finite it rounds exactly
    like the loop's separate ufunc calls, fused multiply-adds or not.
    """
    from scipy.signal import lfilter  # deferred: only narrow panels load it

    k, t_total = counts.shape
    excite = np.zeros((k, t_total))
    sens = np.zeros((k, t_total)) if with_sensitivity else None
    interleaved = np.empty(2 * (t_total - 1))
    for j in range(k):
        # the loop's S[t] / damp: S[t-1] + decay * counts[t-1]
        summed = lfilter([1.0, 0.0], [1.0, -damp[j]], decay[j] * counts[j, :-1])
        np.multiply(damp[j], summed, out=excite[j, 1:])
        if with_sensitivity:
            # even outputs are dS[t] + counts[t], the value the loop damps;
            # the odd outputs form a separate chain and are discarded
            interleaved[0::2] = counts[j, :-1]
            interleaved[1::2] = excite[j, 1:]
            summed = lfilter([1.0, -1.0, 0.0], [1.0, 0.0, -damp[j]], interleaved)[0::2]
            np.subtract(damp[j] * summed, excite[j, 1:], out=sens[j, 1:])
    return (excite, sens) if with_sensitivity else (excite,)


@dataclass
class _Forward:
    """One forward pass over the n time columns ``cols`` of the panel; every
    array over time holds those columns only.  Only gradients read the fields
    that may be None; a pass without sensitivity leaves them None."""

    cols: slice  # 0-based time columns of the pass
    v: "np.ndarray | None"  # (K, n, M) cumulative weather
    v_age: "np.ndarray | None"  # (K, n, M) its age tensor
    hidden: "np.ndarray | None"  # (K, n, H) tanh activations
    excite: np.ndarray  # (K, n)
    excite_sens: "np.ndarray | None"  # (K, n)
    pre_out: "np.ndarray | None"  # (K, n) response pre-activation
    response: np.ndarray  # (K, n)
    raw_rates: np.ndarray  # (K, n) before flooring
    rates: np.ndarray  # (K, n)
    mat: np.ndarray  # (K, K) coupling matrix


def _check_dims(panel: PanelDataset, graph: ServiceGraph, params: ModelParams) -> None:
    if panel.n_nodes != graph.n_nodes:
        raise DimensionMismatch(
            f"panel has K={panel.n_nodes} but graph has K={graph.n_nodes}"
        )
    if params.n_nodes != panel.n_nodes:
        raise DimensionMismatch(
            f"params have K={params.n_nodes} but panel has K={panel.n_nodes}"
        )
    if params.n_vars != panel.n_vars:
        raise DimensionMismatch(
            f"params have M={params.n_vars} but panel has M={panel.n_vars}"
        )


def _widen(part: np.ndarray, t_total: int, start: int) -> np.ndarray:
    """``part`` placed at time columns ``start..`` of a (K, t_total, ...) zero array."""
    if part.shape[1] == t_total:
        return part
    full = np.zeros((part.shape[0], t_total) + part.shape[2:])
    full[:, start : start + part.shape[1]] = part
    return full


def _forward(panel, graph, params, time_range=None, with_sensitivity=False) -> _Forward:
    """Forward pass over the 1-based ``time_range`` (default: every step).

    Only the steps the range reads are computed: the excitation recursion
    up to the range's end, and the weather kernel over the range plus the
    window before it.  The two matrix products over time run on operands
    zero-padded to the panel's width, so they round exactly as in a pass
    over the whole panel.  Without sensitivity, each array only gradients
    read is dropped as soon as the rates no longer need it, and the hidden
    layer is activated in place.
    """
    _check_dims(panel, graph, params)
    cols = _range_slice(panel, time_range)
    t_total = panel.n_steps
    weights = params.response
    # Start the weather slice one kernel length before the range and keep it
    # at least one kernel long: np.convolve then computes every column of the
    # range from the same terms, in the same order, as on the whole series.
    eff = min(params.window, t_total)
    w_lo = max(cols.start - eff + 1, 0)
    w_hi = min(max(cols.stop, w_lo + eff), t_total)
    inner = slice(cols.start - w_lo, cols.stop - w_lo)
    weather = panel.weather[:, w_lo:w_hi]
    v_age = None
    if with_sensitivity:
        v, v_age = cumulative_weather(weather, params.weather_decay, params.window, _with_age=True)
        v_age = v_age[:, inner]
    else:
        v = cumulative_weather(weather, params.weather_decay, params.window)
    v = v[:, inner]
    hidden = _widen(v, t_total, cols.start) @ weights.w_hidden.T
    active = hidden[:, cols]
    if with_sensitivity:
        # faster than in place on a block's strided columns, which numpy buffers
        np.tanh(active + weights.b_hidden, out=active)
    else:
        v = None
        np.add(active, weights.b_hidden, out=active)
        np.tanh(active, out=active)
    pre_out = (hidden @ weights.w_out)[:, cols] + weights.b_out
    response = softplus(pre_out)
    if not with_sensitivity:
        hidden = active = pre_out = None
    counts = panel.counts[:, : cols.stop]
    excite_sens = None
    if with_sensitivity:
        excite, excite_sens = excitation(counts, params.decay, _with_sensitivity=True)
        excite_sens = excite_sens[:, cols]
    else:
        excite = excitation(counts, params.decay)
    mat = params.coupling_matrix(graph)
    raw_rates = params.scale[:, None] * response + (mat @ _widen(excite, t_total, 0))[:, cols]
    rates = np.maximum(raw_rates, INTENSITY_FLOOR)
    return _Forward(
        cols, v, v_age, active, excite[:, cols], excite_sens,
        pre_out, response, raw_rates, rates, mat,
    )


def intensity(panel: PanelDataset, graph: ServiceGraph, params: ModelParams) -> np.ndarray:
    """(K, T) one-step-ahead forecasts: floored Poisson rates given observed history.

    Counts strictly before each time step enter through the excitation
    recursion, so the forecast for time t never touches counts at t.
    """
    return _forward(panel, graph, params).rates


def _range_slice(panel: PanelDataset, time_range) -> slice:
    if time_range is None:
        return slice(0, panel.n_steps)
    lo, hi = (int(x) for x in time_range)
    if not (1 <= lo <= hi <= panel.n_steps):
        raise DimensionMismatch(
            f"time range ({lo}, {hi}) outside 1..{panel.n_steps}"
        )
    return slice(lo - 1, hi)


def log_likelihood(panel, graph, params, time_range=None) -> float:
    """Poisson log-likelihood (up to the count factorial) over a 1-based range."""
    fwd = _forward(panel, graph, params, time_range)
    rates = fwd.rates
    counts = panel.counts[:, fwd.cols]
    with np.errstate(over="ignore"):  # absurd rates legitimately drive this to -inf
        return float(-np.sum(rates - counts * np.log(rates)))


# --------------------------------------------------------------------------
# Gradient in unconstrained coordinates
# --------------------------------------------------------------------------


# The packed vector's blocks in order: name, shape over the edge count E,
# nodes K, weather variables M and hidden units H, and whether the block is a
# nonnegative ModelParams rate (packed through softplus_inv) or a
# ResponseWeights field (packed as it is).
_BLOCKS = (
    ("coupling", "E", True),
    ("decay", "K", True),
    ("scale", "K", True),
    ("weather_decay", "M", True),
    ("w_hidden", "HM", False),
    ("b_hidden", "H", False),
    ("w_out", "H", False),
    ("b_out", "", False),
)


class ParamPacker:
    """Bijection between ModelParams and a flat unconstrained vector laid out
    as ``_BLOCKS``.  Coupling follows the sorted edge list; the pinned
    self-couplings have no coordinate at all.
    """

    def __init__(self, graph: ServiceGraph, n_vars: int, hidden: int):
        self.graph = graph
        dims = {"E": len(graph.edges), "K": graph.n_nodes, "M": n_vars, "H": hidden}
        self.shapes = {key: tuple(dims[d] for d in shape) for key, shape, _ in _BLOCKS}
        bounds = np.cumsum([0] + [math.prod(shape) for shape in self.shapes.values()])
        self.slices = {
            key: slice(int(lo), int(hi)) for key, lo, hi in zip(self.shapes, bounds, bounds[1:])
        }
        self.size = int(bounds[-1])

    def _natural(self, params: ModelParams) -> dict:
        """Each block's values in ``params``, coupling in edge order and 0 where omitted."""
        values = {key: getattr(params if rate else params.response, key) for key, _, rate in _BLOCKS}
        values["coupling"] = params.coupling.on(self.graph)
        return values

    def _join(self, blocks: dict, rate_map) -> np.ndarray:
        """The packed vector of ``blocks`` by name, each rate block through
        ``rate_map(key, block)``."""
        out = np.empty(self.size)
        for key, _, rate in _BLOCKS:
            out[self.slices[key]] = rate_map(key, blocks[key]) if rate else np.ravel(blocks[key])
        return out

    def pack(self, params: ModelParams) -> np.ndarray:
        if params.response.w_hidden.shape != self.shapes["w_hidden"]:
            raise DimensionMismatch("params do not match this packer's dimensions")
        return self._join(self._natural(params), lambda key, values: softplus_inv(values))

    def unpack_preserving(
        self, raw: np.ndarray, raw_init: np.ndarray, init: ModelParams
    ) -> ModelParams:
        """Unpack, but keep the exact initial value wherever a coordinate never moved.

        This makes a zero-step fit return its init bit-for-bit and keeps
        boundary zeros (raw = -inf) pinned.
        """
        raw = np.asarray(raw, dtype=np.float64)
        moved = raw != raw_init
        start = self._natural(init)
        rates, weights = {}, {}
        for key, _, rate in _BLOCKS:
            sl = self.slices[key]
            if rate:
                rates[key] = np.where(moved[sl], softplus(raw[sl]), start[key])
            else:
                weights[key] = raw[sl].reshape(self.shapes[key])
        rates["coupling"] = Coupling(self.graph.edge_index, rates["coupling"])
        return ModelParams(
            **rates, response=ResponseWeights(**weights), window=init.window, seed=init.seed
        )


def likelihood_gradient(
    panel: PanelDataset,
    graph: ServiceGraph,
    params: ModelParams,
    time_range=None,
    packer: "ParamPacker | None" = None,
) -> np.ndarray:
    """Analytic gradient of the log-likelihood w.r.t. the packed raw coordinates.

    Cells where the rate sits on the floor contribute zero (the floor is
    flat there).  Matches central finite differences on the packed vector.
    """
    if packer is None:
        packer = ParamPacker(graph, params.n_vars, params.response.hidden_units)
    fwd = _forward(panel, graph, params, time_range, with_sensitivity=True)
    counts = panel.counts[:, fwd.cols].astype(np.float64)
    active = fwd.raw_rates > INTENSITY_FLOOR
    dll_drate = np.where(active, counts / fwd.rates - 1.0, 0.0)
    hidden = fwd.hidden
    weights = params.response

    d_scale = np.sum(dll_drate * fwd.response, axis=1)
    # coupling: cross matrix G[dst, src] = sum_t dll_drate[dst, t] * S[src, t]
    cross = dll_drate @ fwd.excite.T
    src, dst = packer.graph.edge_index.T
    d_coupling = cross[dst, src]
    # decay[j] feeds every node that pools j, weighted by the coupling
    pooled = fwd.mat.T @ dll_drate
    d_decay = np.sum(fwd.excite_sens * pooled, axis=1)

    d_resp = dll_drate * params.scale[:, None]
    sig = expit(fwd.pre_out)
    g_out = d_resp * sig
    d_w_out = np.einsum("kt,kth->h", g_out, hidden)
    d_b_out = float(np.sum(g_out))
    g_hidden = g_out[:, :, None] * weights.w_out * (1.0 - hidden**2)
    d_w_hidden = np.einsum("kth,ktm->hm", g_hidden, fwd.v)
    d_b_hidden = np.sum(g_hidden, axis=(0, 1))
    d_v = g_hidden @ weights.w_hidden
    d_weather_decay = -np.einsum("ktm,ktm->m", d_v, fwd.v_age)

    grads = dict(
        coupling=d_coupling, decay=d_decay, scale=d_scale, weather_decay=d_weather_decay,
        w_hidden=d_w_hidden, b_hidden=d_b_hidden, w_out=d_w_out, b_out=d_b_out,
    )
    # each rate's raw coordinate moves it by softplus' slope at its value
    natural = packer._natural(params)
    return packer._join(grads, lambda key, grad: grad * _rate_chain(natural[key]))


# --------------------------------------------------------------------------
# Fitting
# --------------------------------------------------------------------------


_CHECKPOINT_TOL = 1e-8
_MAX_RETREATS = 60


@dataclass
class FitConfig:
    """Mini-batch gradient-ascent settings.

    Batches are contiguous time blocks (the excitation recursion is
    sequential, so cells cannot be shuffled individually).  If an epoch
    lowers the checkpoint likelihood by more than ``_CHECKPOINT_TOL``, the
    step is rolled back and the learning rate halves; this keeps the
    recorded checkpoint sequence nondecreasing.  More than
    ``_MAX_RETREATS`` rollbacks raise NonFiniteLoss.
    """

    learning_rate: float = 1e-2
    epochs: int = 200
    batch_len: int = 64
    momentum: float = 0.0
    seed: int = 0

    def __post_init__(self):
        # a zero learning rate is allowed: the fit then returns its start
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}"
            )
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_len < 1:
            raise ConfigError(f"batch_len must be >= 1, got {self.batch_len}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")


@dataclass
class FitResult:
    params: ModelParams
    checkpoints: np.ndarray  # likelihood after each epoch, starting at init
    learning_rate_final: float
    n_retreats: int


def _time_blocks(lo: int, hi: int, batch_len: int) -> list[tuple[int, int]]:
    """Fixed partition of the 1-based inclusive range into contiguous blocks."""
    return [(start, min(start + batch_len - 1, hi)) for start in range(lo, hi + 1, batch_len)]


def fit(
    panel: PanelDataset,
    graph: ServiceGraph,
    init: ModelParams,
    config: "FitConfig | None" = None,
    time_range=None,
) -> FitResult:
    """Maximize the likelihood over the given (default: full) 1-based range.

    Returns the best parameters seen at any checkpoint, so the final
    likelihood never falls below the initial one.
    """
    config = config or FitConfig()
    sl = _range_slice(panel, time_range)
    lo, hi = sl.start + 1, sl.stop
    packer = ParamPacker(graph, init.n_vars, init.response.hidden_units)
    raw_init = packer.pack(init)
    init = packer.unpack_preserving(raw_init, raw_init, init)  # a value on every graph edge
    raw = raw_init.copy()

    def checkpoint_ll(raw_vec):
        # -inf raw coordinates are legal (they softplus to 0); NaN or +inf is divergence
        if np.any(np.isnan(raw_vec)) or np.any(np.isposinf(raw_vec)):
            return -np.inf
        params_now = packer.unpack_preserving(raw_vec, raw_init, init)
        value = log_likelihood(panel, graph, params_now, (lo, hi))
        return value if np.isfinite(value) else -np.inf

    ll_best = checkpoint_ll(raw)
    if not np.isfinite(ll_best):
        raise NonFiniteLoss("likelihood is non-finite at the initial parameters")
    best_raw = raw.copy()
    checkpoints = [ll_best]
    velocity = np.zeros_like(raw)
    lr = float(config.learning_rate)
    rng = np.random.default_rng(config.seed)
    blocks = _time_blocks(lo, hi, config.batch_len)
    retreats = 0

    for _ in range(config.epochs):
        order = rng.permutation(len(blocks))
        healthy = True
        for idx in order:
            params_now = packer.unpack_preserving(raw, raw_init, init)
            grad = likelihood_gradient(panel, graph, params_now, blocks[idx], packer)
            if not np.all(np.isfinite(grad)):
                healthy = False
                break
            velocity = config.momentum * velocity + grad
            raw = raw + lr * velocity
            if np.any(np.isnan(raw)) or np.any(np.isposinf(raw)):
                healthy = False
                break
        ll_now = checkpoint_ll(raw) if healthy else -np.inf
        if ll_now < ll_best - _CHECKPOINT_TOL:
            raw = best_raw.copy()
            velocity[:] = 0.0
            lr *= 0.5
            retreats += 1
            checkpoints.append(ll_best)
            if retreats > _MAX_RETREATS:
                raise NonFiniteLoss(
                    "step size diverged: likelihood kept degrading after "
                    f"{retreats} rollbacks"
                )
        else:
            checkpoints.append(ll_now)
            if ll_now > ll_best:
                ll_best = ll_now
                best_raw = raw.copy()

    return FitResult(
        params=replace(packer.unpack_preserving(best_raw, raw_init, init), seed=config.seed),
        checkpoints=np.array(checkpoints),
        learning_rate_final=lr,
        n_retreats=retreats,
    )
