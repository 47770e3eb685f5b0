"""End-to-end driver: simulate -> fit -> conformal -> evaluate -> report.

A pipeline document is the one input of every end-to-end run: ``run_stages``
(in memory; the storm benchmark's), ``run_pipeline`` and the ``graphcp``
subcommands read it with the parsers below, and each stage has one writer, so
the subcommand chain writes the bytes ``run_pipeline`` writes.  One top-level
seed derives every stage seed (scenario = seed, model init = seed + 1, fit
shuffling = seed + 2, forests = seed + 3).

``run_pipeline`` writes data/ while the later stages run: right after
simulate, a forked writer (or, on one CPU or under a profiler, this process
after the last stage) writes its files into a staging directory
``.graphcp-staging-<hex>`` in the first of the output directory and its
ancestors that exists, and after the last stage they are moved into
``out/data``.  The other files are written after every stage has run.  So a
run that fails in a stage leaves no file under the output directory, and a
run that returns or raises leaves no staging directory behind.
"""

from __future__ import annotations

import os
import secrets
import shutil
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .conformal import METHODS, ForestConfig, _forked, _forks, run_conformal
from .errors import (
    ConfigError, ListOf, NoEligibleNodes, ValidationError, coerce, done, read_fields, take,
)
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
    scenario: ScenarioConfig  # with the top-level seed
    alpha: float
    outage_threshold: float


# --------------------------------------------------------------------------
# Stage settings.  Each parser pops the keys it reads from the document.
# --------------------------------------------------------------------------


def read_seed(doc: dict) -> int:
    """The top-level ``seed`` (CLI ``--seed`` replaces it)."""
    seed = take(doc, "seed", int, 0)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _alpha(value: float, flag: "float | None") -> float:
    alpha = value if flag is None else flag
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    return alpha


def read_scenario(doc: dict, seed: int) -> ScenarioConfig:
    """The ``scenario``, whose own ``seed`` is type-checked, then replaced."""
    section = take(doc, "scenario", dict)
    take(section, "seed", int, 0, "scenario.")
    return ScenarioConfig.from_dict(dict(section, seed=seed))


def split_fractions(doc: dict) -> tuple:
    """The top-level ``split``: train, calibration and test fractions."""
    fractions = take(doc, "split", list, [1 / 3, 1 / 3, 1 / 3])
    return tuple(coerce(float, f, "split") for f in fractions)


def fit_settings(doc: dict, seed: int):
    """``init_params`` keyword arguments (init seed ``seed + 1``) and the
    FitConfig (fit seed ``seed + 2``) of the ``fit`` section."""
    section = take(doc, "fit", dict, {})
    init_kwargs = {
        "hidden": take(section, "hidden", int, 8, "fit."),
        "window": take(section, "window", int, 96, "fit."),
        "seed": seed + 1,
    }
    for key, low in (("hidden", 0), ("window", 1)):
        if init_kwargs[key] < low:
            raise ConfigError(f"fit.{key} must be >= {low}, got {init_kwargs[key]}")
    kinds = dict(learning_rate=float, epochs=int, batch_len=int, momentum=float)
    return init_kwargs, replace(read_fields(FitConfig, section, kinds, "fit."), seed=seed + 2)


def conformal_settings(doc: dict, seed: int, alpha=None, method=None) -> tuple:
    """The methods and ``run_conformal`` keyword arguments of the ``conformal``
    section, with forest seed ``seed + 3``; a given ``alpha`` overrides the
    config's, and a given ``method`` replaces its methods, which must be
    distinct names from ``METHODS``, at least one."""
    section, at = take(doc, "conformal", dict, {}), "conformal."
    methods = take(section, "methods", ListOf(str), ["poisson", "temporal", "graph"], at)
    methods = list(methods if method is None else [method])
    if not methods or len(set(methods)) < len(methods) or not set(methods) <= set(METHODS):
        raise ConfigError(f"{at}methods: expected distinct names from {METHODS}, got {methods}")
    kinds = dict(n_trees=int, max_depth=int, min_leaf=int, mtry=int, bootstrap=bool)
    forest = read_fields(ForestConfig, take(section, "forest", dict, {}, at), kinds, at + "forest.")
    kwargs = {
        "alpha": _alpha(take(section, "alpha", float, 0.1, at), alpha),
        "window": take(section, "window", int, 20, at),
        "calib_window": take(section, "calib_window", int, None, at, nullable=True),
        "retrain_stride": take(section, "retrain_stride", int, 1, at, nullable=True),
        "forest_config": replace(forest, seed=seed + 3),
    }
    done(section, at)
    # run_conformal checks these too, but only after simulate and fit have run
    for key, low in (("window", 1), ("calib_window", kwargs["window"] + 1), ("retrain_stride", 1)):
        if kwargs[key] is not None and kwargs[key] < low:
            raise ConfigError(f"{at}{key} must be >= {low}, got {kwargs[key]}")
    return methods, kwargs


def outage_threshold(doc: dict) -> float:
    """The ``evaluate`` section's ``outage_threshold`` (default 50), at least 0."""
    section = take(doc, "evaluate", dict, {})
    threshold = take(section, "outage_threshold", float, 50.0, "evaluate.")
    done(section, "evaluate.")
    if threshold < 0:
        raise ConfigError(f"evaluate.outage_threshold must be >= 0, got {threshold}")
    return threshold


def read_metrics(path, alpha=None) -> tuple:
    """``alpha`` and the method reports, by method, of a metrics.json."""
    doc = read_json(path)
    methods = take(doc, "methods", dict, where=f"{path}: ")
    reports = {
        m: MethodReport.from_dict(take(methods, m, dict, where="methods."), f"methods.{m}.")
        for m in sorted(methods)
    }
    return _alpha(take(doc, "alpha", float, 0.1, f"{path}: "), alpha), reports


# --------------------------------------------------------------------------
# Stage writers.  Each writes its fixed file names under a directory it makes.
# --------------------------------------------------------------------------


def _mkdir(out) -> Path:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_data(out, scenario: ScenarioConfig, panel: PanelDataset, graph: ServiceGraph) -> None:
    """graph.csv, weather.csv, counts.csv, meta.json and scenario.json of a simulated panel."""
    out = _mkdir(out)
    write_graph(graph, out / "graph.csv")
    write_panel(panel, out / "weather.csv", out / "counts.csv")
    meta = {"n_nodes": panel.n_nodes, "n_steps": panel.n_steps, "n_vars": panel.n_vars}
    write_json(out / "meta.json", dict(meta, seed=scenario.seed))
    write_json(out / "scenario.json", scenario.to_dict())


def write_params(out, params) -> None:
    save_params(params, _mkdir(out) / "params.json")


def write_predictions(out, rates, lo: int, hi: int) -> None:
    """predictions.csv: every node's rate at the 1-based times ``lo..hi``, all finite."""
    written = rates[:, lo - 1 : hi]
    bad = np.argwhere(~np.isfinite(written))
    if bad.shape[0]:
        node, s = bad[0]
        raise ValidationError(
            f"predict: rate {written[node, s]} at node {node}, time {lo + s} is not finite"
        )
    times = unit_lines([f"{t}," for t in range(lo, hi + 1)])
    rows = (times(node, written[node]) for node in range(len(rates)))
    write_csv(_mkdir(out) / "predictions.csv", "node,time,f_hat\n", rows)


def write_intervals(out, series) -> None:
    for one in series:
        one.to_csv(_mkdir(out) / f"intervals_{one.method}.csv")


def write_metrics(out, alpha: float, reports: dict) -> None:
    methods = {m: reports[m].to_dict() for m in sorted(reports)}
    write_json(_mkdir(out) / "metrics.json", {"alpha": alpha, "methods": methods})


def write_report(out, alpha: float, reports: dict, threshold: float):
    """violin.csv, and winner.csv for two or more methods (the header alone
    when no node is eligible); returns the winner table or None."""
    out = _mkdir(out)
    violin_export([reports[m] for m in sorted(reports)], out / "violin.csv")
    if len(reports) < 2:
        return None
    try:
        table = winner_table(reports.values(), alpha=alpha, outage_threshold=threshold)
    except NoEligibleNodes:
        table = None
    fractions = {} if table is None else table.win_fractions
    rows = (f"{m},{fractions[m]!r},{table.wins[m]},{table.n_eligible}\n" for m in sorted(fractions))
    write_csv(out / "winner.csv", "method,win_fraction,wins,n_eligible\n", rows)
    return table


def _stages(config: dict, beside) -> PipelineResult:
    """Parse a pipeline document, whose top level is closed, then simulate,
    and split -> fit -> run_conformal and coverage_metrics per method inside
    the context manager ``beside(scenario, panel, graph)``."""
    config = dict(config)
    seed = read_seed(config)
    scenario = read_scenario(config, seed)
    fractions = split_fractions(config)
    init_kwargs, fit_config = fit_settings(config, seed)
    methods, run_kwargs = conformal_settings(config, seed)
    threshold = outage_threshold(config)
    done(config)

    graph = scenario.graph.build()
    panel = simulate(scenario)
    with beside(scenario, panel, graph):
        data_split = split(panel, fractions)
        init = init_params(graph, panel.n_vars, **init_kwargs)
        fit_result = fit(panel, graph, init, fit_config, time_range=data_split.train)
        series, reports = {}, {}
        for method in methods:
            series[method] = run_conformal(
                panel, graph, fit_result.params, data_split, method, **run_kwargs
            )
            reports[method] = coverage_metrics(series[method], truths=panel.counts)
    return PipelineResult(
        None, panel, graph, data_split, fit_result, series, reports, None,
        scenario, run_kwargs["alpha"], threshold,
    )


def run_stages(config: dict) -> PipelineResult:
    """``_stages`` in memory: simulate -> split -> fit -> run_conformal and
    coverage_metrics per method."""
    return _stages(config, lambda scenario, panel, graph: nullcontext())


@contextmanager
def _writing_data(staging: Path, scenario, panel, graph):
    """Write data/'s files into the new directory ``staging`` during the
    block: in a forked writer where ``_forks`` allows one, otherwise in this
    process after the block.  An error in the block stops the writer, so
    it takes precedence over the writer's own."""

    def write(_):
        staging.mkdir()
        write_data(staging, scenario, panel, graph)

    steps = (write_graph, write_panel, write_json)
    with _forked(write, [None], _forks(1, steps, _WRITE_STEPS)) as collect:
        yield
        collect()


def run_pipeline(config: dict, out_dir) -> PipelineResult:
    """``run_stages`` on the config dict, then every stage's files under ``out_dir``.

    data/ is written beside the stages into a staging directory in the
    first of ``out_dir`` and its ancestors that exists, so on the filesystem
    of ``out_dir/data``, and its files are moved there after the last stage.
    """
    out = Path(out_dir)
    anchor = next((path for path in (out, *out.parents) if path.exists()), out)
    staging = anchor / f".graphcp-staging-{secrets.token_hex(8)}"
    try:
        result = _stages(config, partial(_writing_data, staging))
        data = _mkdir(out / "data")
        for path in sorted(staging.iterdir()):
            os.replace(path, data / path.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    result.out_dir = out
    write_params(out / "model", result.fit_result.params)
    write_intervals(out / "intervals", result.series.values())
    write_metrics(out, result.alpha, result.reports)
    result.winner = write_report(out, result.alpha, result.reports, result.outage_threshold)
    return result


_WRITE_STEPS = (write_graph, write_panel, write_json)
