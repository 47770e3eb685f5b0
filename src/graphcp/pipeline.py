"""End-to-end driver: simulate -> fit -> conformal -> evaluate -> report.

One top-level seed derives every stage seed (scenario = seed, model init =
seed + 1, fit shuffling = seed + 2, forests = seed + 3), so a pipeline run
is byte-reproducible from a single integer.

This module also holds the one parser of each stage's settings and the one
writer of each stage's files.  Each parser reads its fixed section of the
top-level document (``fit``, ``conformal``, ``evaluate``), so
``run_pipeline`` and the ``graphcp`` subcommands read one layout; they pass
their own seeds and the model window's default.
``run_stages`` is the in-memory stage chain that ``run_pipeline`` and the
storm benchmark share; ``run_pipeline`` writes only after it returns, so a
run that fails in a stage leaves no files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .conformal import ForestConfig, IntervalSeries, run_conformal
from .errors import ConfigError, NoEligibleNodes, ValidationError, coerce, done, read_fields, take
from .evaluate import MethodReport, coverage_metrics, violin_export, winner_table
from .model import FitConfig, FitResult, fit, init_params, save_params
from .panel import (
    DataSplit,
    PanelDataset,
    ServiceGraph,
    read_json,
    split,
    unit_lines,
    write_csv,
    write_graph,
    write_json,
    write_panel,
)
from .synth import ScenarioConfig, simulate

__all__ = ["PipelineResult", "run_pipeline", "run_stages"]


@dataclass
class PipelineResult:
    out_dir: "Path | None"
    panel: PanelDataset
    graph: ServiceGraph
    data_split: DataSplit
    fit_result: FitResult
    series: dict  # method -> IntervalSeries
    reports: dict  # method -> MethodReport
    winner: "object | None"


# --------------------------------------------------------------------------
# Stage settings.  Each parser pops the keys it reads from the document.
# --------------------------------------------------------------------------


def read_seed(doc: dict, flag: "int | None" = None) -> int:
    """The top-level ``seed``, or ``flag`` (CLI ``--seed``) when given."""
    seed = take(doc, "seed", int, 0) if flag is None else flag
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _alpha(value: float, flag: "float | None") -> float:
    alpha = value if flag is None else flag
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def split_fractions(doc: dict) -> tuple:
    """The top-level ``split``: train, calibration and test fractions."""
    fractions = take(doc, "split", list, [1 / 3, 1 / 3, 1 / 3])
    return tuple(coerce(float, f, "split") for f in fractions)


def fit_settings(doc: dict, window: int, seeds: tuple):
    """``init_params`` keyword arguments and the FitConfig of the ``fit`` section.

    ``window`` is the model window's default and ``seeds`` the init and
    fit seeds.
    """
    section = take(doc, "fit", dict, {})
    init_kwargs = {
        "hidden": take(section, "hidden", int, 8, "fit."),
        "window": take(section, "window", int, window, "fit."),
        "seed": seeds[0],
    }
    for key, low in (("hidden", 0), ("window", 1)):
        if init_kwargs[key] < low:
            raise ConfigError(f"fit.{key} must be >= {low}, got {init_kwargs[key]}")
    kinds = dict(learning_rate=float, epochs=int, batch_len=int, momentum=float)
    return init_kwargs, replace(read_fields(FitConfig, section, kinds, "fit."), seed=seeds[1])


def conformal_settings(doc: dict, seed: int, alpha=None) -> tuple:
    """The methods and the ``run_conformal`` keyword arguments of the
    ``conformal`` section.

    ``seed`` is the forest seed; a given ``alpha`` overrides the config's.
    """
    section, at = take(doc, "conformal", dict, {}), "conformal."
    methods = take(section, "methods", list, ["poisson", "temporal", "graph"], at)
    kinds = dict(n_trees=int, max_depth=int, min_leaf=int, mtry=int, bootstrap=bool)
    forest = read_fields(ForestConfig, take(section, "forest", dict, {}, at), kinds, at + "forest.")
    kwargs = {
        "alpha": _alpha(take(section, "alpha", float, 0.1, at), alpha),
        "window": take(section, "window", int, 20, at),
        "calib_window": take(section, "calib_window", int, None, at, nullable=True),
        "retrain_stride": take(section, "retrain_stride", int, 1, at, nullable=True),
        "forest_config": replace(forest, seed=seed),
    }
    done(section, at)
    return methods, kwargs


def outage_threshold(doc: dict) -> float:
    """The ``evaluate`` section's ``outage_threshold`` (default 50)."""
    section = take(doc, "evaluate", dict, {})
    threshold = take(section, "outage_threshold", float, 50.0, "evaluate.")
    done(section, "evaluate.")
    return threshold


def read_metrics(path, alpha=None) -> tuple:
    """``alpha`` and the method reports, sorted by method, of a metrics.json."""
    doc = read_json(path)
    methods = take(doc, "methods", dict, where=f"{path}: ")
    reports = [
        MethodReport.from_dict(take(methods, m, dict, where="methods."), f"methods.{m}.")
        for m in sorted(methods)
    ]
    return _alpha(take(doc, "alpha", float, 0.1, f"{path}: "), alpha), reports


# --------------------------------------------------------------------------
# Stage outputs
# --------------------------------------------------------------------------


def write_data(out: Path, panel: PanelDataset, graph: ServiceGraph, seed: int) -> None:
    """graph.csv, weather.csv, counts.csv and meta.json of a simulated panel."""
    out.mkdir(parents=True, exist_ok=True)
    write_graph(graph, out / "graph.csv")
    write_panel(panel, out / "weather.csv", out / "counts.csv")
    write_json(
        out / "meta.json",
        {"n_nodes": panel.n_nodes, "n_steps": panel.n_steps, "n_vars": panel.n_vars, "seed": seed},
    )


def write_predictions(path, rates, lo: int, hi: int) -> None:
    """predictions.csv: every node's rate at the 1-based times ``lo..hi``, all finite."""
    written = rates[:, lo - 1 : hi]
    bad = np.argwhere(~np.isfinite(written))
    if bad.shape[0]:
        node, s = bad[0]
        raise ValidationError(
            f"predict: rate {written[node, s]} at node {node}, time {lo + s} is not finite"
        )
    times = [f"{t}," for t in range(lo, hi + 1)]
    rows = (unit_lines(node, times, written[node]) for node in range(len(rates)))
    write_csv(path, "node,time,f_hat\n", rows)


def write_metrics(path, alpha: float, reports: dict) -> None:
    methods = {m: reports[m].to_dict() for m in sorted(reports)}
    write_json(path, {"alpha": alpha, "methods": methods})


def write_winner(path, table) -> None:
    """winner.csv; a ``None`` table (no eligible node) gives the header alone."""
    fractions = {} if table is None else table.win_fractions
    rows = (
        f"{m},{fractions[m]!r},{table.wins[m]},{table.n_eligible}\n" for m in sorted(fractions)
    )
    write_csv(path, "method,win_fraction,wins,n_eligible\n", rows)


def run_stages(
    scenario: ScenarioConfig, fractions, init_kwargs: dict, fit_config, methods, run_kwargs: dict
) -> PipelineResult:
    """simulate -> split -> fit -> run_conformal and coverage_metrics per method.

    Everything stays in memory; ``out_dir`` and ``winner`` are left None.
    """
    graph = scenario.graph.build()
    panel = simulate(scenario)
    data_split = split(panel, fractions)
    init = init_params(graph, panel.n_vars, **init_kwargs)
    fit_result = fit(panel, graph, init, fit_config, time_range=data_split.train)
    series: dict[str, IntervalSeries] = {}
    reports: dict[str, MethodReport] = {}
    for method in methods:
        series[method] = run_conformal(
            panel, graph, fit_result.params, data_split, method, **run_kwargs
        )
        reports[method] = coverage_metrics(series[method], truths=panel.counts)
    return PipelineResult(None, panel, graph, data_split, fit_result, series, reports, None)


def run_pipeline(config: dict, out_dir) -> PipelineResult:
    """Run every stage described by the config dict, then write under ``out_dir``."""
    out = Path(out_dir)
    config = dict(config)
    seed = read_seed(config)
    scenario = ScenarioConfig.from_dict(dict(take(config, "scenario", dict), seed=seed))
    fractions = split_fractions(config)
    init_kwargs, fit_config = fit_settings(config, scenario.params.window, (seed + 1, seed + 2))
    methods, run_kwargs = conformal_settings(config, seed + 3)
    threshold = outage_threshold(config)
    done(config)

    result = run_stages(scenario, fractions, init_kwargs, fit_config, methods, run_kwargs)
    result.out_dir = out
    write_data(out / "data", result.panel, result.graph, seed)
    write_json(out / "data" / "scenario.json", scenario.to_dict())
    (out / "model").mkdir(parents=True, exist_ok=True)
    save_params(result.fit_result.params, out / "model" / "params.json")
    (out / "intervals").mkdir(parents=True, exist_ok=True)
    for method, one in result.series.items():
        one.to_csv(out / "intervals" / f"intervals_{method}.csv")

    reports, alpha = result.reports, run_kwargs["alpha"]
    write_metrics(out / "metrics.json", alpha, reports)
    violin_export([reports[m] for m in sorted(reports)], out / "violin.csv")
    if len(reports) >= 2:
        try:
            result.winner = winner_table(reports.values(), alpha=alpha, outage_threshold=threshold)
        except NoEligibleNodes:
            pass
        write_winner(out / "winner.csv", result.winner)
    return result
