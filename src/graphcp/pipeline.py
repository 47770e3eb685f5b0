"""End-to-end driver: simulate -> fit -> conformal -> evaluate -> report.

One top-level seed derives every stage seed (scenario = seed, model init =
seed + 1, fit shuffling = seed + 2, forests = seed + 3), so a pipeline run
is byte-reproducible from a single integer.

This module also holds the one parser of each stage's settings and the one
writer of each stage's files.  ``run_pipeline`` and the ``graphcp``
subcommands call them with their own section names, defaults and seeds.
``run_stages`` is the in-memory stage chain that ``run_pipeline`` and the
storm benchmark share; ``run_pipeline`` writes only after it returns, so a
run that fails in a stage leaves no files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conformal import ForestConfig, IntervalSeries, run_conformal
from .errors import ConfigError, NoEligibleNodes, ValidationError, coerce, done, take
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
# Stage settings.  Each parser pops the keys it reads from its section.
# --------------------------------------------------------------------------


def read_seed(doc: dict, flag: "int | None" = None) -> int:
    """The top-level ``seed``, or ``flag`` (CLI ``--seed``) when given."""
    seed = take(doc, "seed", int, 0) if flag is None else flag
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def read_alpha(doc: dict, where: str = "", flag: "float | None" = None) -> float:
    """``alpha`` (default 0.1), or ``flag`` (CLI ``--alpha``) when given."""
    alpha = take(doc, "alpha", float, 0.1, where) if flag is None else flag
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"{where}alpha must lie in (0, 1), got {alpha}")
    return alpha


def split_fractions(doc: dict) -> tuple:
    """The top-level ``split``: train, calibration and test fractions."""
    fractions = take(doc, "split", list, [1 / 3, 1 / 3, 1 / 3])
    return tuple(coerce(float, f, "split") for f in fractions)


def fit_settings(init: dict, opt: dict, where: tuple, window: int, seeds: tuple):
    """``init_params`` keyword arguments and the FitConfig.

    ``init`` holds ``hidden`` and ``window`` (default ``window``), ``opt``
    the optimizer keys; both may be one section.  ``where`` gives their
    dotted paths and ``seeds`` the init and fit seeds.
    """
    init_kwargs = {
        "hidden": take(init, "hidden", int, 8, where[0]),
        "window": take(init, "window", int, window, where[0]),
        "seed": seeds[0],
    }
    for key, low in (("hidden", 0), ("window", 1)):
        if init_kwargs[key] < low:
            raise ConfigError(f"{where[0]}{key} must be >= {low}, got {init_kwargs[key]}")
    config = FitConfig(
        learning_rate=take(opt, "learning_rate", float, 1e-2, where[1]),
        epochs=take(opt, "epochs", int, 200, where[1]),
        batch_len=take(opt, "batch_len", int, 64, where[1]),
        momentum=take(opt, "momentum", float, 0.0, where[1]),
        seed=seeds[1],
    )
    done(init, where[0])
    done(opt, where[1])
    return init_kwargs, config


def conformal_settings(doc: dict, where: str, seed: int, alpha=None) -> dict:
    """``run_conformal`` keyword arguments from ``doc`` and its ``forest`` section.

    ``seed`` is the forest seed; a given ``alpha`` overrides the config's.
    """
    forest = take(doc, "forest", dict, {}, where)
    at = where + "forest."
    kwargs = {
        "alpha": read_alpha(doc, where, alpha),
        "window": take(doc, "window", int, 20, where),
        "calib_window": take(doc, "calib_window", int, None, where, nullable=True),
        "retrain_stride": take(doc, "retrain_stride", int, 1, where, nullable=True),
        "forest_config": ForestConfig(
            n_trees=take(forest, "n_trees", int, 100, at),
            max_depth=take(forest, "max_depth", int, None, at, nullable=True),
            min_leaf=take(forest, "min_leaf", int, 5, at),
            mtry=take(forest, "mtry", int, None, at, nullable=True),
            bootstrap=take(forest, "bootstrap", bool, True, at),
            seed=seed,
        ),
    }
    done(forest, at)
    return kwargs


def outage_threshold(doc: dict, where: str = "") -> float:
    """The winner table's ``outage_threshold`` (default 50)."""
    return take(doc, "outage_threshold", float, 50.0, where)


def read_metrics(path, alpha=None) -> tuple:
    """``alpha`` and the method reports, sorted by method, of a metrics.json."""
    doc = read_json(path)
    methods = take(doc, "methods", dict, where=f"{path}: ")
    reports = [
        MethodReport.from_dict(take(methods, m, dict, where="methods."), f"methods.{m}.")
        for m in sorted(methods)
    ]
    return read_alpha(doc, flag=alpha), reports


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
    fit_doc = take(config, "fit", dict, {})
    init_kwargs, fit_config = fit_settings(
        fit_doc, fit_doc, ("fit.", "fit."), scenario.params.window, (seed + 1, seed + 2)
    )
    conf_doc = take(config, "conformal", dict, {})
    methods = take(conf_doc, "methods", list, ["poisson", "temporal", "graph"], "conformal.")
    run_kwargs = conformal_settings(conf_doc, "conformal.", seed + 3)
    eval_doc = take(config, "evaluate", dict, {})
    threshold = outage_threshold(eval_doc, "evaluate.")
    for doc, where in ((conf_doc, "conformal."), (eval_doc, "evaluate."), (config, "")):
        done(doc, where)

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
