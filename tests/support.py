"""Test-only helpers: an exchangeable i.i.d. regression sampler and the
excitation stability diagnostics.

Only tests use them, so they live here rather than in ``graphcp``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from graphcp.errors import DimensionMismatch
from graphcp.model import ModelParams
from graphcp.panel import ServiceGraph


# --------------------------------------------------------------------------
# Exchangeable i.i.d. generator
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "gaussian"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "laplace", "uniform"):
            raise DimensionMismatch(f"unknown noise kind {self.kind!r}")
        if self.scale < 0:
            raise DimensionMismatch("noise scale must be nonnegative")


def iid_mean_function(x):
    """Fixed smooth mean used by the i.i.d. sampler."""
    x = np.asarray(x, dtype=np.float64)
    return 2.0 * np.sin(2.0 * np.pi * x) + 1.5 * x


def simulate_iid(n: int, noise: "NoiseSpec | None" = None, seed: int = 0):
    """Exchangeable pairs (x, y) with y = f(x) + iid noise."""
    if n < 1:
        raise DimensionMismatch(f"n must be >= 1, got {n}")
    noise = noise or NoiseSpec()
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=n)
    if noise.scale == 0.0:
        eps = np.zeros(n)
    elif noise.kind == "gaussian":
        eps = rng.normal(0.0, noise.scale, size=n)
    elif noise.kind == "laplace":
        eps = rng.laplace(0.0, noise.scale, size=n)
    else:
        eps = rng.uniform(-noise.scale, noise.scale, size=n)
    return x, iid_mean_function(x) + eps


# --------------------------------------------------------------------------
# Stability diagnostics
# --------------------------------------------------------------------------


def excitation_mass(decay):
    """Total kernel mass sum_{s>=1} decay * exp(-decay * s); 1 in the limit decay -> 0."""
    decay = np.asarray(decay, dtype=np.float64)
    safe = np.where(decay > 0, decay, 1.0)
    mass = safe * np.exp(-safe) / (-np.expm1(-safe))
    return np.where(decay > 0, mass, 1.0)


def branching_matrix(graph: ServiceGraph, params: ModelParams) -> np.ndarray:
    """Expected offspring matrix B[dst, src] = coupling * mass(decay[src])."""
    return params.coupling_matrix(graph) * excitation_mass(params.decay)[None, :]


def spectral_radius(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))
