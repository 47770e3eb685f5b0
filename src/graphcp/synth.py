"""Synthetic panels from the generative model.

The panel simulator draws weather from a per-variable AR(1) process with
optional additive storm pulses, then samples counts sequentially:
``N[i, t] ~ Poisson(rate[i, t])`` where the rate is computed from the true
parameters and the already-sampled count history.  Everything is
deterministic given the scenario seed.

The AR(1)-plus-pulse weather process is a stand-in for real reanalysis
inputs; pulse timing and amplitude are configuration, not physics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, ExplosiveConfig, ListOf, field_dict, read_fields
from .model import (
    INTENSITY_FLOOR,
    ModelParams,
    cumulative_weather,
    weather_response,
)
from .panel import PanelDataset, ServiceGraph

# the largest rate numpy's Poisson sampler accepts
_POISSON_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)

__all__ = [
    "StormPulse",
    "WeatherSpec",
    "GraphSpec",
    "ScenarioConfig",
    "simulate",
]


@dataclass(frozen=True)
class StormPulse:
    """Additive weather excursion: amplitude on [start, start + duration) steps.

    ``variable=None`` hits all weather variables; ``nodes=None`` hits every
    unit, otherwise only the listed units (a regional storm).
    """

    start: int
    duration: int
    amplitude: float
    variable: "int | None" = None
    nodes: "tuple | None" = None

    def __post_init__(self):
        if self.start < 1 or self.duration < 1:
            raise DimensionMismatch(
                f"pulse start/duration must be >= 1, got ({self.start}, {self.duration})"
            )
        # [] would hit no unit, and a repeated unit is hit once
        if self.nodes is not None and (not self.nodes or len(set(self.nodes)) < len(self.nodes)):
            raise DimensionMismatch(
                f"pulse nodes must be null or distinct unit ids, got {list(self.nodes)}"
            )

    to_dict = field_dict

    @classmethod
    def from_dict(cls, doc: dict, where: str = "") -> "StormPulse":
        kinds = dict(start=int, duration=int, amplitude=float, variable=int, nodes=ListOf(int))
        return read_fields(cls, doc, kinds, where)


@dataclass(frozen=True)
class WeatherSpec:
    """Per-variable AR(1) coefficients and noise scales, plus storm pulses."""

    ar_coefs: tuple
    noise_scales: tuple
    pulses: tuple = ()

    def __post_init__(self):
        if len(self.ar_coefs) != len(self.noise_scales):
            raise DimensionMismatch("ar_coefs and noise_scales disagree on M")
        if any(abs(a) >= 1 for a in self.ar_coefs):
            raise DimensionMismatch("AR(1) coefficients must satisfy |a| < 1")
        if any(s < 0 for s in self.noise_scales):
            raise DimensionMismatch("noise scales must be nonnegative")

    @property
    def n_vars(self) -> int:
        return len(self.ar_coefs)

    to_dict = field_dict

    @classmethod
    def from_dict(cls, doc: dict, where: str = "") -> "WeatherSpec":
        kinds = dict(ar_coefs=ListOf(float), noise_scales=ListOf(float), pulses=ListOf(StormPulse))
        return read_fields(cls, doc, kinds, where)


@dataclass(frozen=True)
class GraphSpec:
    """Named topology (chain, star, grid) or an explicit edge list."""

    kind: str
    n_nodes: int
    edges: tuple = ()
    grid_rows: "int | None" = None

    def build(self) -> ServiceGraph:
        k = self.n_nodes
        if self.kind == "edges":
            return ServiceGraph.from_edges(k, self.edges)
        if self.kind == "chain":
            return ServiceGraph.from_edges(k, [(i, i + 1) for i in range(k - 1)])
        if self.kind == "star":
            # hub 0 influences every leaf
            return ServiceGraph.from_edges(k, [(0, j) for j in range(1, k)])
        if self.kind == "grid":
            rows = int(np.floor(np.sqrt(k))) if self.grid_rows is None else self.grid_rows
            if rows < 1 or k % rows != 0:
                raise DimensionMismatch(f"grid with {k} nodes and {rows} rows")
            cols = k // rows
            edges = []
            for r in range(rows):
                for c in range(cols):
                    idx = r * cols + c
                    if c > 0:
                        edges.append((idx - 1, idx))
                    if r > 0:
                        edges.append((idx - cols, idx))
            return ServiceGraph.from_edges(k, edges)
        raise DimensionMismatch(f"unknown graph kind {self.kind!r}")

    to_dict = field_dict

    @classmethod
    def from_dict(cls, doc: dict, where: str = "") -> "GraphSpec":
        kinds = dict(kind=str, n_nodes=int, edges=ListOf(ListOf(int, 2)), grid_rows=int)
        spec = read_fields(cls, doc, kinds, where)
        # ``to_dict`` writes both keys for every kind, as [] and null
        if spec.edges and spec.kind != "edges":
            raise ConfigError(f"{where}edges: a {spec.kind!r} graph reads no edge list")
        if spec.grid_rows is not None and spec.kind != "grid":
            raise ConfigError(f"{where}grid_rows: a {spec.kind!r} graph reads no grid rows")
        return spec


@dataclass(frozen=True)
class ScenarioConfig:
    graph: GraphSpec
    n_steps: int
    params: ModelParams
    weather: WeatherSpec
    seed: int = 0
    explosion_cap: float = 1e4

    def __post_init__(self):
        if self.n_steps < 1:
            raise DimensionMismatch(f"n_steps must be >= 1, got {self.n_steps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # before anything builds the graph, whose edge list grows with n_nodes
        if self.graph.n_nodes != self.params.n_nodes:
            raise DimensionMismatch(
                f"params have K={self.params.n_nodes} but graph has K={self.graph.n_nodes}"
            )
        if self.weather.n_vars != self.params.n_vars:
            raise DimensionMismatch(
                f"weather spec has M={self.weather.n_vars} but params expect "
                f"M={self.params.n_vars}"
            )
        for pulse in self.weather.pulses:
            if pulse.start > self.n_steps:
                raise DimensionMismatch(
                    f"pulse at {pulse.start} starts after T={self.n_steps}"
                )
            if pulse.variable is not None and not 0 <= pulse.variable < self.params.n_vars:
                raise DimensionMismatch(
                    f"pulse variable {pulse.variable} outside 0..{self.params.n_vars - 1}"
                )
            if pulse.nodes is not None and any(
                not 0 <= n < self.graph.n_nodes for n in pulse.nodes
            ):
                raise DimensionMismatch(
                    f"pulse nodes {pulse.nodes} outside 0..{self.graph.n_nodes - 1}"
                )

    to_dict = field_dict

    @classmethod
    def from_dict(cls, doc: dict, where: str = "scenario.") -> "ScenarioConfig":
        """Parse a scenario config; a missing, unknown or wrong-typed key raises ConfigError."""
        kinds = dict(graph=GraphSpec, n_steps=int, params=ModelParams, weather=WeatherSpec,
                     seed=int, explosion_cap=float)
        return read_fields(cls, doc, kinds, where)


def _sample_weather(config: ScenarioConfig, rng) -> np.ndarray:
    k = config.graph.n_nodes
    t_total = config.n_steps
    m_total = config.weather.n_vars
    if k * t_total * m_total * 8 >= 2**63:
        raise DimensionMismatch(f"a ({k}, {t_total}, {m_total}) weather tensor is too large")
    noise = rng.standard_normal((k, t_total, m_total))
    weather = np.empty((k, t_total, m_total))
    for m in range(m_total):
        ar = config.weather.ar_coefs[m]
        sigma = config.weather.noise_scales[m]
        stationary = sigma / np.sqrt(1.0 - ar * ar) if sigma > 0 else 0.0
        weather[:, 0, m] = stationary * noise[:, 0, m]
        for t in range(1, t_total):
            weather[:, t, m] = ar * weather[:, t - 1, m] + sigma * noise[:, t, m]
    for pulse in config.weather.pulses:
        lo = pulse.start - 1
        hi = min(lo + pulse.duration, t_total)
        units = slice(None) if pulse.nodes is None else list(pulse.nodes)
        if pulse.variable is None:
            weather[units, lo:hi, :] += pulse.amplitude
        else:
            weather[units, lo:hi, pulse.variable] += pulse.amplitude
    return weather


def simulate(config: ScenarioConfig) -> PanelDataset:
    """Draw a full panel from the model under the true parameters.

    Raises ExplosiveConfig as soon as the running mean rate passes
    ``explosion_cap`` (a supercritical excitation spectrum never settles)
    or is NaN, or a rate reaches the Poisson sampler's limit.
    """
    graph = config.graph.build()
    params = config.params
    rng = np.random.default_rng(config.seed)
    weather = _sample_weather(config, rng)
    veff = cumulative_weather(weather, params.weather_decay, params.window)
    base = params.scale[:, None] * weather_response(veff, params.response)
    mat = params.coupling_matrix(graph)
    damp = np.exp(-params.decay)

    k, t_total = graph.n_nodes, config.n_steps
    counts = np.zeros((k, t_total), dtype=np.int64)
    excite = np.zeros(k)
    rate_total = 0.0
    for t in range(t_total):
        rates = np.maximum(base[:, t] + mat @ excite, INTENSITY_FLOOR)
        rate_total += float(rates.sum())
        # checked before the draw, which raises on a NaN, overflowed or too large rate
        if not rate_total / (k * (t + 1)) <= config.explosion_cap:
            raise ExplosiveConfig(
                f"running mean rate {rate_total / (k * (t + 1)):.3g} exceeded cap "
                f"{config.explosion_cap:.3g} at step {t + 1}"
            )
        if rates.max() >= _POISSON_MAX:
            raise ExplosiveConfig(f"rate {rates.max():.3g} past the Poisson limit at step {t + 1}")
        counts[:, t] = rng.poisson(rates)
        excite = damp * (excite + params.decay * counts[:, t])
    return PanelDataset.build(weather, counts)
