"""End-to-end driver: simulate -> fit -> conformal -> evaluate -> report.

One top-level seed derives every stage seed (scenario = seed, model init =
seed + 1, fit shuffling = seed + 2, forests = seed + 3), so a pipeline run
is byte-reproducible from a single integer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .conformal import ForestConfig, IntervalSeries, run_conformal
from .errors import ConfigError, NoEligibleNodes, coerce, section
from .evaluate import MethodReport, coverage_metrics, violin_export, winner_table
from .model import FitConfig, FitResult, fit, init_params, save_params
from .panel import DataSplit, PanelDataset, ServiceGraph, split, write_graph, write_panel
from .synth import ScenarioConfig, simulate

__all__ = ["PipelineResult", "run_pipeline"]


@dataclass
class PipelineResult:
    out_dir: Path
    panel: PanelDataset
    graph: ServiceGraph
    data_split: DataSplit
    fit_result: FitResult
    series: dict  # method -> IntervalSeries
    reports: dict  # method -> MethodReport
    winner: "object | None"


def forest_config(doc: dict, seed: int) -> ForestConfig:
    """ForestConfig from the ``forest`` section of a pipeline or CLI config."""
    return ForestConfig(
        n_trees=coerce(int, doc.get("n_trees", 100), "forest.n_trees"),
        max_depth=doc.get("max_depth"),
        min_leaf=coerce(int, doc.get("min_leaf", 5), "forest.min_leaf"),
        mtry=doc.get("mtry"),
        bootstrap=bool(doc.get("bootstrap", True)),
        seed=seed,
    )


def run_pipeline(config: dict, out_dir) -> PipelineResult:
    """Run every stage described by the config dict under ``out_dir``."""
    out = Path(out_dir)
    seed = coerce(int, config.get("seed", 0), "seed")

    if "scenario" not in config:
        raise ConfigError("pipeline config is missing 'scenario'")
    scenario_doc = dict(section(config, "scenario"))
    scenario_doc["seed"] = seed
    scenario = ScenarioConfig.from_dict(scenario_doc)
    graph = scenario.graph.build()
    panel = simulate(scenario)

    data_dir = out / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    write_graph(graph, data_dir / "graph.csv")
    write_panel(panel, data_dir / "weather.csv", data_dir / "counts.csv")
    (data_dir / "meta.json").write_text(
        json.dumps(
            {
                "n_nodes": panel.n_nodes,
                "n_steps": panel.n_steps,
                "n_vars": panel.n_vars,
                "seed": seed,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    (data_dir / "scenario.json").write_text(
        json.dumps(scenario.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    fractions = tuple(config.get("split", (1 / 3, 1 / 3, 1 / 3)))
    data_split = split(panel, fractions)

    fit_doc = section(config, "fit")
    init = init_params(
        graph,
        panel.n_vars,
        hidden=coerce(int, fit_doc.get("hidden", 8), "fit.hidden"),
        window=coerce(int, fit_doc.get("window", scenario.params.window), "fit.window"),
        seed=seed + 1,
    )
    fit_config = FitConfig(
        learning_rate=coerce(
            float, fit_doc.get("learning_rate", 1e-2), "fit.learning_rate"
        ),
        epochs=coerce(int, fit_doc.get("epochs", 200), "fit.epochs"),
        batch_len=coerce(int, fit_doc.get("batch_len", 64), "fit.batch_len"),
        momentum=coerce(float, fit_doc.get("momentum", 0.0), "fit.momentum"),
        seed=seed + 2,
    )
    fit_result = fit(panel, graph, init, fit_config, time_range=data_split.train)
    model_dir = out / "model"
    model_dir.mkdir(parents=True, exist_ok=True)
    save_params(fit_result.params, model_dir / "params.json")

    conf_doc = section(config, "conformal")
    methods = list(conf_doc.get("methods", ("poisson", "temporal", "graph")))
    alpha = coerce(float, conf_doc.get("alpha", 0.1), "conformal.alpha")
    window = coerce(int, conf_doc.get("window", 20), "conformal.window")
    calib_window = conf_doc.get("calib_window")
    if calib_window is not None:
        calib_window = coerce(int, calib_window, "conformal.calib_window")
    stride = conf_doc.get("retrain_stride", 1)
    forests = forest_config(section(conf_doc, "forest", "conformal.forest"), seed + 3)

    intervals_dir = out / "intervals"
    intervals_dir.mkdir(parents=True, exist_ok=True)
    series: dict[str, IntervalSeries] = {}
    reports: dict[str, MethodReport] = {}
    for method in methods:
        one = run_conformal(
            panel,
            graph,
            fit_result.params,
            data_split,
            method,
            alpha=alpha,
            window=window,
            calib_window=calib_window,
            retrain_stride=stride,
            forest_config=forests,
        )
        one.to_csv(intervals_dir / f"intervals_{method}.csv")
        series[method] = one
        reports[method] = coverage_metrics(one, truths=panel.counts)

    eval_doc = section(config, "evaluate")
    metrics_doc = {
        "alpha": alpha,
        "methods": {m: reports[m].to_dict() for m in sorted(reports)},
    }
    (out / "metrics.json").write_text(
        json.dumps(metrics_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    violin_export(
        [reports[m] for m in sorted(reports)], out / "violin.csv"
    )

    winner = None
    if len(reports) >= 2:
        threshold = coerce(
            float, eval_doc.get("outage_threshold", 50.0), "evaluate.outage_threshold"
        )
        try:
            winner = winner_table(reports.values(), alpha=alpha, outage_threshold=threshold)
        except NoEligibleNodes:
            winner = None
        with (out / "winner.csv").open("w", encoding="utf-8", newline="") as handle:
            handle.write("method,win_fraction,wins,n_eligible\n")
            if winner is not None:
                for method in sorted(winner.win_fractions, key=lambda m: (m,)):
                    handle.write(
                        f"{method},{winner.win_fractions[method]!r},"
                        f"{winner.wins[method]},{winner.n_eligible}\n"
                    )

    return PipelineResult(
        out_dir=out,
        panel=panel,
        graph=graph,
        data_split=data_split,
        fit_result=fit_result,
        series=series,
        reports=reports,
        winner=winner,
    )
