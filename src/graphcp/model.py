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

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import expit

from .errors import ConfigError, DimensionMismatch, NonFiniteLoss
from .panel import PanelDataset, ServiceGraph

__all__ = [
    "INTENSITY_FLOOR",
    "ResponseWeights",
    "ModelParams",
    "IntensityField",
    "FitConfig",
    "FitResult",
    "ParamPacker",
    "softplus",
    "softplus_inv",
    "cumulative_weather",
    "weather_response",
    "excitation",
    "intensity",
    "intensity_field",
    "log_likelihood",
    "likelihood_gradient",
    "fit",
    "predict",
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


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


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

    @classmethod
    def zeros(cls, hidden: int, n_vars: int) -> "ResponseWeights":
        return cls(np.zeros((hidden, n_vars)), np.zeros(hidden), np.zeros(hidden), 0.0)

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

    coupling maps directed edges ``(src, dst)`` to nonnegative influence
    weights; the implicit self-coupling of every node is exactly 1 and never
    trained.  decay/scale are per node, weather_decay per weather variable,
    all nonnegative.  window is the weather lookback d.
    """

    coupling: dict
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
        coupling = {}
        for key, value in self.coupling.items():
            src, dst = (int(k) for k in key)
            if src == dst:
                raise DimensionMismatch(
                    f"self-coupling ({src}, {dst}) is implicit and fixed at 1"
                )
            value = float(value)
            if not np.isfinite(value) or value < 0:
                raise DimensionMismatch(f"coupling[{src}, {dst}] = {value!r} invalid")
            coupling[(src, dst)] = value
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
        edge_set = {(src, dst) for src, dst, _ in graph.edges}
        extra = set(self.coupling) - edge_set
        if extra:
            raise DimensionMismatch(f"coupling keys {sorted(extra)} not in the graph")
        mat = np.zeros((self.n_nodes, self.n_nodes))
        np.fill_diagonal(mat, 1.0)
        for (src, dst), value in self.coupling.items():
            mat[dst, src] = value
        return mat

    def to_dict(self) -> dict:
        return {
            "n_nodes": self.n_nodes,
            "n_vars": self.n_vars,
            "hidden": self.response.hidden_units,
            "window": self.window,
            "seed": self.seed,
            "coupling": [
                [src, dst, value] for (src, dst), value in sorted(self.coupling.items())
            ],
            "decay": self.decay.tolist(),
            "scale": self.scale.tolist(),
            "weather_decay": self.weather_decay.tolist(),
            "response": {
                "w_hidden": self.response.w_hidden.tolist(),
                "b_hidden": self.response.b_hidden.tolist(),
                "w_out": self.response.w_out.tolist(),
                "b_out": self.response.b_out,
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelParams":
        resp = doc["response"]
        return cls(
            coupling={(int(s), int(d)): float(v) for s, d, v in doc["coupling"]},
            decay=np.array(doc["decay"], dtype=np.float64),
            scale=np.array(doc["scale"], dtype=np.float64),
            weather_decay=np.array(doc["weather_decay"], dtype=np.float64),
            response=ResponseWeights(
                np.array(resp["w_hidden"], dtype=np.float64),
                np.array(resp["b_hidden"], dtype=np.float64),
                np.array(resp["w_out"], dtype=np.float64),
                float(resp["b_out"]),
            ),
            window=int(doc["window"]),
            seed=doc.get("seed"),
        )


def save_params(params: ModelParams, path: "str | Path") -> None:
    Path(path).write_text(
        json.dumps(params.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_params(path: "str | Path") -> ModelParams:
    return ModelParams.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def init_params(
    graph: ServiceGraph,
    n_vars: int,
    hidden: int = 8,
    window: int = 96,
    seed: int = 0,
    coupling_init: float = 0.2,
    decay_init: float = 0.5,
    scale_init: float = 0.5,
    weather_decay_init: float = 0.2,
    response_scale: float = 0.3,
) -> ModelParams:
    """Reasonable strictly-positive starting point for fitting."""
    rng = np.random.default_rng(seed)
    k = graph.n_nodes
    return ModelParams(
        coupling={(src, dst): coupling_init for src, dst in graph.edge_pairs()},
        decay=np.full(k, decay_init),
        scale=np.full(k, scale_init),
        weather_decay=np.full(n_vars, weather_decay_init),
        response=ResponseWeights.random(hidden, n_vars, rng, scale=response_scale),
        window=window,
        seed=seed,
    )


# --------------------------------------------------------------------------
# Forward pass
# --------------------------------------------------------------------------


def cumulative_weather(weather: np.ndarray, weather_decay, window: int) -> np.ndarray:
    """Windowed exponentially-decayed sum of recent weather, per variable.

    A zero decay rate reduces to the plain window-d moving sum; indices
    before the start of the series contribute nothing.
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
    eff = min(window, t_total)
    ages = np.arange(eff, dtype=np.float64)
    for m in range(n_vars):
        kernel = np.exp(-rates[m] * ages)
        for i in range(k):
            out[i, :, m] = np.convolve(weather[i, :, m], kernel)[:t_total]
    return out


def _cumulative_weather_age(weather: np.ndarray, weather_decay, window: int) -> np.ndarray:
    """Companion tensor sum_s s * x[t-s] * exp(-rate * s); -d(cumulative)/d(rate)."""
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


def excitation(counts: np.ndarray, decay) -> np.ndarray:
    """Per-node excitation series S (K, T) via the one-step recursion."""
    counts = np.asarray(counts, dtype=np.float64)
    decay = np.atleast_1d(np.asarray(decay, dtype=np.float64))
    k, t_total = counts.shape
    if decay.shape != (k,):
        raise DimensionMismatch(f"{decay.shape[0]} decay rates for {k} nodes")
    damp = np.exp(-decay)
    state = np.zeros((k, t_total))
    for t in range(1, t_total):
        state[:, t] = damp * (state[:, t - 1] + decay * counts[:, t - 1])
    return state


def _excitation_with_sensitivity(counts, decay):
    """Excitation S and its per-node derivative dS/d(decay)."""
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


@dataclass(frozen=True)
class IntensityField:
    """Floored rate matrix plus the excitation accumulator that produced it."""

    rates: np.ndarray  # (K, T)
    excitation: np.ndarray  # (K, T)


@dataclass
class _Forward:
    v: np.ndarray  # (K, T, M) cumulative weather
    hidden: np.ndarray  # (K, T, H) tanh activations
    pre_out: np.ndarray  # (K, T) response pre-activation
    response: np.ndarray  # (K, T)
    excite: np.ndarray  # (K, T)
    excite_sens: "np.ndarray | None"  # (K, T)
    raw_rates: np.ndarray  # (K, T) before flooring
    rates: np.ndarray  # (K, T)
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


def _forward(panel, graph, params, with_sensitivity=False) -> _Forward:
    _check_dims(panel, graph, params)
    weights = params.response
    v = cumulative_weather(panel.weather, params.weather_decay, params.window)
    hidden = np.tanh(v @ weights.w_hidden.T + weights.b_hidden)
    pre_out = hidden @ weights.w_out + weights.b_out
    response = softplus(pre_out)
    if with_sensitivity:
        excite, excite_sens = _excitation_with_sensitivity(panel.counts, params.decay)
    else:
        excite = excitation(panel.counts, params.decay)
        excite_sens = None
    mat = params.coupling_matrix(graph)
    raw_rates = params.scale[:, None] * response + mat @ excite
    rates = np.maximum(raw_rates, INTENSITY_FLOOR)
    return _Forward(v, hidden, pre_out, response, excite, excite_sens, raw_rates, rates, mat)


def intensity(
    panel: PanelDataset,
    graph: ServiceGraph,
    params: ModelParams,
    time: "int | None" = None,
):
    """Floored Poisson rates; full (K, T) matrix, or one column for 1-based time."""
    rates = _forward(panel, graph, params).rates
    if time is None:
        return rates
    return rates[:, time - 1]


def intensity_field(panel, graph, params) -> IntensityField:
    fwd = _forward(panel, graph, params)
    return IntensityField(rates=fwd.rates, excitation=fwd.excite)


def predict(panel, graph, params, time: "int | None" = None):
    """One-step-ahead point forecast: the Poisson mean given observed history.

    Counts strictly before each time step enter through the excitation
    recursion, so the forecast for time t never touches counts at t.
    """
    return intensity(panel, graph, params, time)


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
    sl = _range_slice(panel, time_range)
    rates = _forward(panel, graph, params).rates[:, sl]
    counts = panel.counts[:, sl]
    with np.errstate(over="ignore"):  # absurd rates legitimately drive this to -inf
        return float(-np.sum(rates - counts * np.log(rates)))


# --------------------------------------------------------------------------
# Gradient in unconstrained coordinates
# --------------------------------------------------------------------------


class ParamPacker:
    """Bijection between ModelParams and a flat unconstrained vector.

    Coupling (edge order is the sorted edge list), decay, scale, and
    weather_decay go through softplus; response weights are packed as-is.
    The pinned self-couplings have no coordinate at all.
    """

    def __init__(self, graph: ServiceGraph, n_vars: int, hidden: int):
        self.edge_order: list[tuple[int, int]] = graph.edge_pairs()
        self.n_nodes = graph.n_nodes
        self.n_vars = n_vars
        self.hidden = hidden
        counts = [
            len(self.edge_order),
            self.n_nodes,
            self.n_nodes,
            n_vars,
            hidden * n_vars,
            hidden,
            hidden,
            1,
        ]
        bounds = np.cumsum([0] + counts)
        keys = (
            "coupling",
            "decay",
            "scale",
            "weather_decay",
            "w_hidden",
            "b_hidden",
            "w_out",
            "b_out",
        )
        self.slices = {
            key: slice(int(bounds[i]), int(bounds[i + 1])) for i, key in enumerate(keys)
        }
        self.size = int(bounds[-1])

    def names(self) -> list[str]:
        out = [f"coupling[{src}->{dst}]" for src, dst in self.edge_order]
        out += [f"decay[{i}]" for i in range(self.n_nodes)]
        out += [f"scale[{i}]" for i in range(self.n_nodes)]
        out += [f"weather_decay[{m}]" for m in range(self.n_vars)]
        out += [
            f"w_hidden[{h},{m}]" for h in range(self.hidden) for m in range(self.n_vars)
        ]
        out += [f"b_hidden[{h}]" for h in range(self.hidden)]
        out += [f"w_out[{h}]" for h in range(self.hidden)]
        out += ["b_out"]
        return out

    def pack(self, params: ModelParams) -> np.ndarray:
        if params.response.hidden_units != self.hidden or params.n_vars != self.n_vars:
            raise DimensionMismatch("params do not match this packer's dimensions")
        raw = np.empty(self.size)
        raw[self.slices["coupling"]] = softplus_inv(
            np.array([params.coupling[e] for e in self.edge_order])
        )
        raw[self.slices["decay"]] = softplus_inv(params.decay)
        raw[self.slices["scale"]] = softplus_inv(params.scale)
        raw[self.slices["weather_decay"]] = softplus_inv(params.weather_decay)
        raw[self.slices["w_hidden"]] = params.response.w_hidden.ravel()
        raw[self.slices["b_hidden"]] = params.response.b_hidden
        raw[self.slices["w_out"]] = params.response.w_out
        raw[self.slices["b_out"]] = params.response.b_out
        return raw

    def unpack(self, raw: np.ndarray, like: ModelParams) -> ModelParams:
        raw = np.asarray(raw, dtype=np.float64)
        coupling_vals = softplus(raw[self.slices["coupling"]])
        return ModelParams(
            coupling={
                edge: float(val) for edge, val in zip(self.edge_order, coupling_vals)
            },
            decay=softplus(raw[self.slices["decay"]]),
            scale=softplus(raw[self.slices["scale"]]),
            weather_decay=softplus(raw[self.slices["weather_decay"]]),
            response=ResponseWeights(
                raw[self.slices["w_hidden"]].reshape(self.hidden, self.n_vars),
                raw[self.slices["b_hidden"]],
                raw[self.slices["w_out"]],
                float(raw[self.slices["b_out"]][0]),
            ),
            window=like.window,
            seed=like.seed,
        )

    def unpack_preserving(
        self, raw: np.ndarray, raw_init: np.ndarray, init: ModelParams
    ) -> ModelParams:
        """Unpack, but keep the exact initial value wherever a coordinate never moved.

        This makes a zero-step fit return its init bit-for-bit and keeps
        boundary zeros (raw = -inf) pinned.
        """
        raw = np.asarray(raw, dtype=np.float64)
        moved = raw != raw_init

        def rate_block(key, init_vals):
            nat = softplus(raw[self.slices[key]])
            return np.where(moved[self.slices[key]], nat, init_vals)

        coupling_init = np.array([init.coupling[e] for e in self.edge_order])
        coupling_vals = rate_block("coupling", coupling_init)
        return ModelParams(
            coupling={
                edge: float(val) for edge, val in zip(self.edge_order, coupling_vals)
            },
            decay=rate_block("decay", init.decay),
            scale=rate_block("scale", init.scale),
            weather_decay=rate_block("weather_decay", init.weather_decay),
            response=ResponseWeights(
                raw[self.slices["w_hidden"]].reshape(self.hidden, self.n_vars),
                raw[self.slices["b_hidden"]],
                raw[self.slices["w_out"]],
                float(raw[self.slices["b_out"]][0]),
            ),
            window=init.window,
            seed=init.seed,
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
    sl = _range_slice(panel, time_range)
    fwd = _forward(panel, graph, params, with_sensitivity=True)
    counts = panel.counts[:, sl].astype(np.float64)
    rates = fwd.rates[:, sl]
    active = fwd.raw_rates[:, sl] > INTENSITY_FLOOR
    dll_drate = np.where(active, counts / rates - 1.0, 0.0)

    resp = fwd.response[:, sl]
    hidden = fwd.hidden[:, sl, :]
    v = fwd.v[:, sl, :]
    excite = fwd.excite[:, sl]
    excite_sens = fwd.excite_sens[:, sl]
    weights = params.response

    d_scale = np.sum(dll_drate * resp, axis=1)
    # coupling: cross matrix G[dst, src] = sum_t dll_drate[dst, t] * S[src, t]
    cross = dll_drate @ excite.T
    d_coupling = np.array([cross[dst, src] for src, dst in packer.edge_order])
    # decay[j] feeds every node that pools j, weighted by the coupling
    pooled = fwd.mat.T @ dll_drate
    d_decay = np.sum(excite_sens * pooled, axis=1)

    d_resp = dll_drate * params.scale[:, None]
    sig = expit(fwd.pre_out[:, sl])
    g_out = d_resp * sig
    d_w_out = np.einsum("kt,kth->h", g_out, hidden)
    d_b_out = float(np.sum(g_out))
    g_hidden = g_out[:, :, None] * weights.w_out * (1.0 - hidden**2)
    d_w_hidden = np.einsum("kth,ktm->hm", g_hidden, v)
    d_b_hidden = np.sum(g_hidden, axis=(0, 1))
    d_v = g_hidden @ weights.w_hidden
    v_age = _cumulative_weather_age(panel.weather, params.weather_decay, params.window)
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


# --------------------------------------------------------------------------
# Fitting
# --------------------------------------------------------------------------


@dataclass
class FitConfig:
    """Mini-batch gradient-ascent settings.

    Batches are contiguous time blocks (the excitation recursion is
    sequential, so cells cannot be shuffled individually).  If an epoch
    lowers the checkpoint likelihood by more than ``checkpoint_tol``, the
    step is rolled back and the learning rate halves; this keeps the
    recorded checkpoint sequence nondecreasing.
    """

    learning_rate: float = 1e-2
    epochs: int = 200
    batch_len: int = 64
    momentum: float = 0.0
    seed: int = 0
    checkpoint_tol: float = 1e-8
    max_retreats: int = 60

    def __post_init__(self):
        # a zero learning rate is allowed: the fit then returns its start
        if not self.learning_rate >= 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_len < 1:
            raise ConfigError(f"batch_len must be >= 1, got {self.batch_len}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.max_retreats < 0:
            raise ConfigError(f"max_retreats must be >= 0, got {self.max_retreats}")


@dataclass
class FitResult:
    params: ModelParams
    checkpoints: np.ndarray  # likelihood after each epoch, starting at init
    learning_rate_final: float
    n_retreats: int


def _time_blocks(lo: int, hi: int, batch_len: int) -> list[tuple[int, int]]:
    """Fixed partition of the 1-based inclusive range into contiguous blocks."""
    blocks = []
    start = lo
    while start <= hi:
        blocks.append((start, min(start + batch_len - 1, hi)))
        start += batch_len
    return blocks


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
        if ll_now < ll_best - config.checkpoint_tol:
            raw = best_raw.copy()
            velocity[:] = 0.0
            lr *= 0.5
            retreats += 1
            checkpoints.append(ll_best)
            if retreats > config.max_retreats:
                raise NonFiniteLoss(
                    "step size diverged: likelihood kept degrading after "
                    f"{retreats} rollbacks"
                )
        else:
            checkpoints.append(ll_now)
            if ll_now > ll_best:
                ll_best = ll_now
                best_raw = raw.copy()

    params_out = packer.unpack_preserving(best_raw, raw_init, init)
    if config.seed is not None:
        params_out = replace(params_out, seed=config.seed)
    return FitResult(
        params=params_out,
        checkpoints=np.array(checkpoints),
        learning_rate_final=lr,
        n_retreats=retreats,
    )
