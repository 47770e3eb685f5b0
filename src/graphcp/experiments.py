"""Reusable synthetic experiments: parameter recovery and the storm benchmark.

Both are driven entirely by a seed so the test suite and the scripts in
``scripts/`` share one code path.

The storm benchmark puts both state-wide pulses inside the test third and
routes them through a thresholded response unit that stays saturated over
the whole quiet range of its weather channel.  Training data therefore
carries no information about that unit, the fitted model misjudges
storm-time rates (which also fluctuate faster than excitation feedback can
track), and the conformal layers must absorb the shift through the
residual stream.  Calibration-period storms are regional, so pooled
neighborhoods carry storm experience that half the nodes' own histories
lack; that asymmetry is where neighbor pooling pays off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, ResponseWeights, fit, init_params
from .pipeline import fit_settings, run_stages
from .synth import GraphSpec, ScenarioConfig, StormPulse, WeatherSpec, simulate

__all__ = [
    "recovery_scenario",
    "run_recovery",
    "RecoveryResult",
    "storm_scenario",
    "storm_config",
    "run_storm_benchmark",
    "StormBenchmarkResult",
]


# --------------------------------------------------------------------------
# Parameter recovery on a star graph
# --------------------------------------------------------------------------

_RECOVERY_K = 5
_RECOVERY_STEPS = 2000
_RECOVERY_HIDDEN = 4
_RECOVERY_WINDOW = 24


def _recovery_truth() -> ModelParams:
    return ModelParams(
        coupling={(0, j): 0.5 for j in range(1, _RECOVERY_K)},
        decay=np.array([0.7, 0.9, 1.1, 0.8, 1.0]),
        scale=np.ones(_RECOVERY_K),
        weather_decay=np.array([0.3, 0.8]),
        response=ResponseWeights.random(
            _RECOVERY_HIDDEN, 2, np.random.default_rng(42), scale=0.5
        ),
        window=_RECOVERY_WINDOW,
    )


def recovery_scenario(seed: int) -> ScenarioConfig:
    """Star graph, hub driving four leaves, moderate subcritical excitation."""
    return ScenarioConfig(
        graph=GraphSpec(kind="star", n_nodes=_RECOVERY_K),
        n_steps=_RECOVERY_STEPS,
        params=_recovery_truth(),
        weather=WeatherSpec(ar_coefs=(0.6, 0.6), noise_scales=(1.0, 1.0)),
        seed=seed,
    )


@dataclass
class RecoveryResult:
    seed: int
    decay_rel_err: np.ndarray
    coupling_rel_err: np.ndarray
    elapsed_s: float


def run_recovery(seed: int, epochs: int = 60) -> RecoveryResult:
    """Simulate from the known truth, refit from scratch with the pipeline's fit
    settings and seeds, report relative errors."""
    start = time.time()
    scenario = recovery_scenario(seed)
    graph = scenario.graph.build()
    panel = simulate(scenario)
    init_kwargs, fit_config = fit_settings(
        {"fit": {"hidden": _RECOVERY_HIDDEN, "window": _RECOVERY_WINDOW, "learning_rate": 2e-2,
                 "epochs": epochs, "batch_len": 128, "momentum": 0.9}},
        seed,
    )
    result = fit(panel, graph, init_params(graph, panel.n_vars, **init_kwargs), fit_config)
    truth = scenario.params
    fitted = result.params
    decay_err = np.abs(fitted.decay - truth.decay) / truth.decay
    edges = sorted(truth.coupling)
    coupling_err = np.array(
        [abs(fitted.coupling[e] - truth.coupling[e]) / truth.coupling[e] for e in edges]
    )
    return RecoveryResult(
        seed=seed,
        decay_rel_err=decay_err,
        coupling_rel_err=coupling_err,
        elapsed_s=time.time() - start,
    )


# --------------------------------------------------------------------------
# Storm benchmark on a grid
# --------------------------------------------------------------------------

_STORM_K = 20
_STORM_ROWS = 4
_STORM_STEPS = 3000
_STORM_HIDDEN = 4


def _storm_truth() -> ModelParams:
    graph = GraphSpec(kind="grid", n_nodes=_STORM_K, grid_rows=_STORM_ROWS).build()
    # Hidden unit 3 is a thresholded storm response: tanh(0.5 v2 - 6) sits
    # saturated at -1 for the whole quiet range of variable 1 (so training
    # data cannot identify it) and swings through its active region during
    # a pulse, making storm-time rates volatile step to step.  Excitation is
    # fast-fading and weak, keeping the rate weather-dominated.
    response = ResponseWeights(
        w_hidden=np.array(
            [[0.30, 0.0], [0.15, 0.0], [-0.20, 0.0], [0.0, 0.5]]
        ),
        b_hidden=np.array([0.0, 0.0, 0.0, -6.0]),
        w_out=np.array([2.0, 1.5, 1.0, 12.0]),
        b_out=12.5,
    )
    # rows 0 and 2 are the exposed rows (see storm_scenario) and also carry
    # a higher outage base, so pooling mixes residual scales
    cols = _STORM_K // _STORM_ROWS
    scale = np.where((np.arange(_STORM_K) // cols) % 2 == 0, 1.4, 0.7)
    return ModelParams(
        coupling={e: 0.2 for e in graph.edge_pairs()},
        decay=np.full(_STORM_K, 2.2),
        scale=scale,
        weather_decay=np.array([0.4, 0.9]),
        response=response,
        window=24,
    )


def storm_scenario(seed: int) -> ScenarioConfig:
    """Two state-wide test-range storms, preceded by regional
    calibration-range storms (the usual protocol calibrates on data that
    includes extreme events, and real storms have tracks).  Calibration
    storms only ever strike grid rows 0 and 2, so the other rows' own
    residual histories are storm-blind going into the test range while
    their upstream neighbors' histories are not.
    """
    cols = _STORM_K // _STORM_ROWS
    exposed = tuple(range(0, cols)) + tuple(range(2 * cols, 3 * cols))
    return ScenarioConfig(
        graph=GraphSpec(kind="grid", n_nodes=_STORM_K, grid_rows=_STORM_ROWS),
        n_steps=_STORM_STEPS,
        params=_storm_truth(),
        weather=WeatherSpec(
            ar_coefs=(0.7, 0.5),
            noise_scales=(1.0, 1.0),
            pulses=(
                StormPulse(start=1570, duration=10, amplitude=5.0, variable=1, nodes=exposed),
                StormPulse(start=1690, duration=10, amplitude=5.0, variable=1, nodes=exposed),
                StormPulse(start=1810, duration=10, amplitude=5.0, variable=1, nodes=exposed),
                StormPulse(start=1850, duration=100, amplitude=7.0, variable=1, nodes=exposed),
                StormPulse(start=2150, duration=120, amplitude=7.0, variable=1),
                StormPulse(start=2620, duration=120, amplitude=7.0, variable=1),
            ),
        ),
        seed=seed,
    )


@dataclass
class StormBenchmarkResult:
    seed: int
    reports: dict  # method -> MethodReport
    elapsed_s: float


def storm_config(seed: int, alpha: float, methods, window: int, calib_window, retrain_stride):
    """The pipeline document of one storm-benchmark seed (equal-thirds split)."""
    return {
        "seed": seed,
        "scenario": storm_scenario(seed).to_dict(),
        "fit": {"hidden": _STORM_HIDDEN, "window": 24, "learning_rate": 2e-2, "epochs": 40,
                "batch_len": 250, "momentum": 0.9},
        "conformal": {"methods": list(methods), "alpha": alpha, "window": window,
                      "calib_window": calib_window, "retrain_stride": retrain_stride,
                      "forest": {"n_trees": 15, "min_leaf": 30}},
    }


def run_storm_benchmark(
    seed: int,
    alpha: float = 0.1,
    methods=("poisson", "temporal", "graph"),
    window: int = 8,
    calib_window: int = 450,
    retrain_stride: int = 50,
) -> StormBenchmarkResult:
    """One seed of the storm comparison; returns per-method reports."""
    start = time.time()
    result = run_stages(storm_config(seed, alpha, methods, window, calib_window, retrain_stride))
    return StormBenchmarkResult(seed=seed, reports=result.reports, elapsed_s=time.time() - start)
