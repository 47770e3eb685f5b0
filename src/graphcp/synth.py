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

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, ExplosiveConfig
from .model import (
    INTENSITY_FLOOR,
    ModelParams,
    cumulative_weather,
    weather_response,
)
from .panel import PanelDataset, ServiceGraph

__all__ = [
    "StormPulse",
    "WeatherSpec",
    "GraphSpec",
    "ScenarioConfig",
    "simulate",
]


def _integer(value, what: str) -> int:
    """A JSON integer: ``"4"``, ``2.5``, ``true`` and null raise TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"{what}: expected an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what}: expected an integer, got {value!r}") from None


def _real(value, what: str) -> float:
    """A finite JSON number: ``"1e3"`` and ``true`` raise TypeError, NaN and
    +-Infinity ValueError."""
    if isinstance(value, (str, bool)):
        raise TypeError(f"{what}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what}: expected a finite number, got {value!r}")
    return value


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
        # JSON values only: "3" or true raise TypeError, and 2.5 does for an integer
        object.__setattr__(self, "start", _integer(self.start, "pulse start"))
        object.__setattr__(self, "duration", _integer(self.duration, "pulse duration"))
        object.__setattr__(self, "amplitude", _real(self.amplitude, "pulse amplitude"))
        if self.variable is not None:
            object.__setattr__(self, "variable", _integer(self.variable, "pulse variable"))
        if self.start < 1 or self.duration < 1:
            raise DimensionMismatch(
                f"pulse start/duration must be >= 1, got ({self.start}, {self.duration})"
            )
        if self.nodes is not None:
            nodes = tuple(_integer(n, "pulse nodes") for n in self.nodes)
            object.__setattr__(self, "nodes", nodes)

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "duration": self.duration,
            "amplitude": self.amplitude,
            "variable": self.variable,
            "nodes": None if self.nodes is None else list(self.nodes),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "StormPulse":
        return cls(
            start=doc["start"],
            duration=doc["duration"],
            amplitude=doc["amplitude"],
            variable=doc.get("variable"),
            nodes=doc.get("nodes"),
        )


@dataclass(frozen=True)
class WeatherSpec:
    """Per-variable AR(1) coefficients and noise scales, plus storm pulses."""

    ar_coefs: tuple
    noise_scales: tuple
    pulses: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "ar_coefs", tuple(_real(a, "ar_coefs") for a in self.ar_coefs))
        object.__setattr__(
            self, "noise_scales", tuple(_real(s, "noise_scales") for s in self.noise_scales)
        )
        object.__setattr__(self, "pulses", tuple(self.pulses))
        if len(self.ar_coefs) != len(self.noise_scales):
            raise DimensionMismatch("ar_coefs and noise_scales disagree on M")
        if any(abs(a) >= 1 for a in self.ar_coefs):
            raise DimensionMismatch("AR(1) coefficients must satisfy |a| < 1")
        if any(s < 0 for s in self.noise_scales):
            raise DimensionMismatch("noise scales must be nonnegative")

    @property
    def n_vars(self) -> int:
        return len(self.ar_coefs)

    def to_dict(self) -> dict:
        return {
            "ar_coefs": list(self.ar_coefs),
            "noise_scales": list(self.noise_scales),
            "pulses": [p.to_dict() for p in self.pulses],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "WeatherSpec":
        return cls(
            ar_coefs=doc["ar_coefs"],
            noise_scales=doc["noise_scales"],
            pulses=tuple(StormPulse.from_dict(p) for p in doc.get("pulses", [])),
        )


@dataclass(frozen=True)
class GraphSpec:
    """Named topology (chain, star, grid) or an explicit edge list."""

    kind: str
    n_nodes: int
    edges: tuple = ()
    grid_rows: "int | None" = None

    def __post_init__(self):
        # JSON integers only: "2", 2.5, true or null raise TypeError, a ragged edge ValueError
        object.__setattr__(self, "n_nodes", _integer(self.n_nodes, "graph.n_nodes"))
        edges = tuple((_integer(src, "edge"), _integer(dst, "edge")) for src, dst in self.edges)
        object.__setattr__(self, "edges", edges)
        if self.grid_rows is not None:
            object.__setattr__(self, "grid_rows", _integer(self.grid_rows, "grid_rows"))

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
            rows = self.grid_rows or int(np.floor(np.sqrt(k)))
            if k % rows != 0:
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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_nodes": self.n_nodes,
            "edges": [list(e) for e in self.edges],
            "grid_rows": self.grid_rows,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GraphSpec":
        return cls(
            kind=doc["kind"],
            n_nodes=doc["n_nodes"],
            edges=doc.get("edges", ()),
            grid_rows=doc.get("grid_rows"),
        )


@dataclass(frozen=True)
class ScenarioConfig:
    graph: GraphSpec
    n_steps: int
    params: ModelParams
    weather: WeatherSpec
    seed: int = 0
    explosion_cap: float = 1e4

    def __post_init__(self):
        object.__setattr__(self, "n_steps", _integer(self.n_steps, "n_steps"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        object.__setattr__(self, "explosion_cap", _real(self.explosion_cap, "explosion_cap"))
        if self.n_steps < 1:
            raise DimensionMismatch(f"n_steps must be >= 1, got {self.n_steps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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
            if pulse.variable is not None and pulse.variable >= self.params.n_vars:
                raise DimensionMismatch(
                    f"pulse variable {pulse.variable} outside 0..{self.params.n_vars - 1}"
                )
            if pulse.nodes is not None and any(
                not 0 <= n < self.graph.n_nodes for n in pulse.nodes
            ):
                raise DimensionMismatch(
                    f"pulse nodes {pulse.nodes} outside 0..{self.graph.n_nodes - 1}"
                )

    def to_dict(self) -> dict:
        return {
            "graph": self.graph.to_dict(),
            "n_steps": self.n_steps,
            "params": self.params.to_dict(),
            "weather": self.weather.to_dict(),
            "seed": self.seed,
            "explosion_cap": self.explosion_cap,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        """Parse a scenario config; a missing key or a wrong-typed value raises ConfigError."""
        try:
            return cls(
                graph=GraphSpec.from_dict(doc["graph"]),
                n_steps=doc["n_steps"],
                params=ModelParams.from_dict(doc["params"]),
                weather=WeatherSpec.from_dict(doc["weather"]),
                seed=doc.get("seed", 0),
                explosion_cap=doc.get("explosion_cap", 1e4),
            )
        except KeyError as exc:
            raise ConfigError(f"scenario is missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"scenario: {exc}") from exc


def _sample_weather(config: ScenarioConfig, rng) -> np.ndarray:
    k = config.graph.n_nodes
    t_total = config.n_steps
    m_total = config.weather.n_vars
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
    ``explosion_cap`` (a supercritical excitation spectrum never settles).
    """
    graph = config.graph.build()
    params = config.params
    if params.n_nodes != graph.n_nodes:
        raise DimensionMismatch(
            f"params have K={params.n_nodes} but graph has K={graph.n_nodes}"
        )
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
        counts[:, t] = rng.poisson(rates)
        rate_total += float(rates.sum())
        if rate_total / (k * (t + 1)) > config.explosion_cap:
            raise ExplosiveConfig(
                f"running mean rate {rate_total / (k * (t + 1)):.3g} exceeded cap "
                f"{config.explosion_cap:.3g} at step {t + 1}"
            )
        excite = damp * (excite + params.decay * counts[:, t])
    return PanelDataset.build(weather, counts)
