"""Test-only helpers: an exchangeable i.i.d. regression sampler, the
excitation stability diagnostics, a zero response network, views of a
fitted forest's trees and weights, the CSV readers' block sizes, a peak
memory probe, and a time limit for a block.

Only tests use them, so they live here rather than in ``graphcp``.
"""

from __future__ import annotations

import signal
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from graphcp import panel
from graphcp.errors import DimensionMismatch
from graphcp.model import ModelParams, ResponseWeights
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


# --------------------------------------------------------------------------
# Model and forest views
# --------------------------------------------------------------------------


def zero_response(hidden: int, n_vars: int) -> ResponseWeights:
    """A response network with every weight 0: softplus(0) = log 2 everywhere."""
    return ResponseWeights(np.zeros((hidden, n_vars)), np.zeros(hidden), np.zeros(hidden), 0.0)


def leaf_members(tree, node: int) -> np.ndarray:
    """The training rows in leaf ``node`` of a fitted forest's tree."""
    start = tree.leaf_start[node]
    return tree.members[start : start + tree.leaf_size[node]]


def forest_weights(forest, queries) -> np.ndarray:
    """(Q, n) Meinshausen weights of a (Q, p) query block; each row is
    nonnegative and sums to 1."""
    by_target = forest._weight_block(forest._leaves(np.asarray(queries, dtype=np.float64)))
    # column j of the block is the j-th row in stable target order
    weights = np.empty_like(by_target)
    weights[:, np.argsort(forest.targets, kind="stable")] = by_target
    return weights


def forest_debug_dict(forest) -> dict:
    """A fitted forest's tree structure as plain lists."""
    return {
        "n_samples": forest.n_samples,
        "n_features": forest.n_features,
        "trees": [
            {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "leaf_members": [
                    None if f >= 0 else leaf_members(tree, node).tolist()
                    for node, f in enumerate(tree.feature)
                ],
            }
            for tree in forest.trees
        ],
    }


# --------------------------------------------------------------------------
# Panel reading and memory
# --------------------------------------------------------------------------

# block sizes that put block boundaries inside small test files, then the default
BLOCK_ROWS = (1, 2, 5, panel._BLOCK_ROWS)


def each_block_size(monkeypatch):
    """Set the CSV readers' block size to each of ``BLOCK_ROWS`` in turn and
    yield it; the default is the last, and ``monkeypatch`` restores it."""
    for rows in BLOCK_ROWS:
        monkeypatch.setattr(panel, "_BLOCK_ROWS", rows)
        yield rows


def traced_peak(fn):
    """``fn()`` and the most memory it held at once beyond what was held at
    its start, as ``tracemalloc`` sees it (numpy reports its buffers there)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        value = fn()
        return value, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


# --------------------------------------------------------------------------
# Time limit
# --------------------------------------------------------------------------


@contextmanager
def time_limit(seconds):
    """Fail, rather than hang, when the block runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
