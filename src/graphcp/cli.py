"""Command-line front door.

Subcommands: simulate, fit, predict, conformal, evaluate, report, pipeline.
Each reads a JSON config plus CSV inputs and writes CSV/JSON outputs.
Exit codes: 0 ok, 2 config problem, 3 I/O problem, 4 validation failure.
Set GRAPH_CP_LOG=debug|info|warning for verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .conformal import ForestConfig, read_interval_series, run_conformal
from .errors import ConfigError, GraphCPError, ValidationError
from .evaluate import MethodReport, coverage_metrics, violin_export, winner_table
from .model import FitConfig, fit, init_params, load_params, predict, save_params
from .panel import DataSplit, load_graph, load_panel, split, write_graph, write_panel
from .pipeline import run_pipeline
from .synth import ScenarioConfig, simulate

log = logging.getLogger("graphcp")

_EXIT_CONFIG = 2
_EXIT_IO = 3
_EXIT_VALIDATION = 4


def _setup_logging() -> None:
    level = os.environ.get("GRAPH_CP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        raise
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return doc


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}: missing key {key!r}")
    return doc[key]


def _read_panel_inputs(doc: dict, where: str):
    weather = _require(doc, "weather_file", where)
    counts = _require(doc, "counts_file", where)
    panel = load_panel(weather, counts)
    graph = load_graph(_require(doc, "graph_file", where), n_nodes=panel.n_nodes)
    return panel, graph


def _split_from(doc: dict, panel) -> DataSplit:
    fractions = tuple(doc.get("split", (1 / 3, 1 / 3, 1 / 3)))
    return split(panel, fractions)


def _cmd_simulate(args) -> int:
    doc = _load_config(args.config)
    scenario_doc = doc.get("scenario", doc)
    if args.seed is not None:
        scenario_doc = dict(scenario_doc)
        scenario_doc["seed"] = args.seed
    scenario = ScenarioConfig.from_dict(scenario_doc)
    panel = simulate(scenario)
    graph = scenario.graph.build()
    out = _out_dir(args)
    write_graph(graph, out / "graph.csv")
    write_panel(panel, out / "weather.csv", out / "counts.csv")
    (out / "meta.json").write_text(
        json.dumps(
            {
                "n_nodes": panel.n_nodes,
                "n_steps": panel.n_steps,
                "n_vars": panel.n_vars,
                "seed": scenario.seed,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    log.info("simulated panel K=%d T=%d M=%d", panel.n_nodes, panel.n_steps, panel.n_vars)
    return 0


def _cmd_fit(args) -> int:
    doc = _load_config(args.config)
    panel, graph = _read_panel_inputs(doc, args.config)
    data_split = _split_from(doc, panel)
    seed = args.seed if args.seed is not None else int(doc.get("seed", 0))
    init_doc = doc.get("init", {})
    init = init_params(
        graph,
        panel.n_vars,
        hidden=int(init_doc.get("hidden", 8)),
        window=int(init_doc.get("window", 96)),
        seed=seed,
    )
    opt = doc.get("optimizer", {})
    config = FitConfig(
        learning_rate=float(opt.get("learning_rate", 1e-2)),
        epochs=int(opt.get("epochs", 200)),
        batch_len=int(opt.get("batch_len", 64)),
        momentum=float(opt.get("momentum", 0.0)),
        seed=seed,
    )
    result = fit(panel, graph, init, config, time_range=data_split.train)
    out = _out_dir(args)
    save_params(result.params, out / "params.json")
    log.info(
        "fit done: ll %.6f -> %.6f", result.checkpoints[0], result.checkpoints[-1]
    )
    return 0


def _cmd_predict(args) -> int:
    doc = _load_config(args.config)
    panel, graph = _read_panel_inputs(doc, args.config)
    params = load_params(_require(doc, "params_file", args.config))
    if "range" in doc:
        lo, hi = (int(x) for x in doc["range"])
        if not 1 <= lo <= hi <= panel.n_steps:
            raise ValidationError(
                f"{args.config}: range [{lo}, {hi}] is not within 1..{panel.n_steps}"
            )
    else:
        data_split = _split_from(doc, panel)
        lo, hi = data_split.test
    rates = predict(panel, graph, params)
    out = _out_dir(args)
    with (out / "predictions.csv").open("w", encoding="utf-8", newline="") as handle:
        handle.write("node,time,f_hat\n")
        for node in range(panel.n_nodes):
            for t in range(lo, hi + 1):
                handle.write(f"{node},{t},{float(rates[node, t - 1])!r}\n")
    return 0


def _cmd_conformal(args) -> int:
    doc = _load_config(args.config)
    panel, graph = _read_panel_inputs(doc, args.config)
    params = load_params(_require(doc, "params_file", args.config))
    data_split = _split_from(doc, panel)
    method = args.method or doc.get("method")
    if method is None:
        raise ConfigError("no --method given and none in the config")
    alpha = args.alpha if args.alpha is not None else float(doc.get("alpha", 0.1))
    seed = args.seed if args.seed is not None else int(doc.get("seed", 0))
    forest = ForestConfig(
        n_trees=int(doc.get("forest", {}).get("n_trees", 100)),
        max_depth=doc.get("forest", {}).get("max_depth"),
        min_leaf=int(doc.get("forest", {}).get("min_leaf", 5)),
        mtry=doc.get("forest", {}).get("mtry"),
        bootstrap=bool(doc.get("forest", {}).get("bootstrap", True)),
        seed=seed,
    )
    series = run_conformal(
        panel,
        graph,
        params,
        data_split,
        method,
        alpha=alpha,
        window=int(doc.get("window", 20)),
        calib_window=doc.get("calib_window"),
        retrain_stride=doc.get("retrain_stride", 1),
        forest_config=forest,
    )
    out = _out_dir(args)
    series.to_csv(out / f"intervals_{method}.csv")
    return 0


def _cmd_evaluate(args) -> int:
    doc = _load_config(args.config)
    files = _require(doc, "intervals_files", args.config)
    alpha = args.alpha if args.alpha is not None else float(doc.get("alpha", 0.1))
    reports = {}
    for file in files:
        series = read_interval_series(file)
        reports[series.method] = coverage_metrics(series)
    out = _out_dir(args)
    (out / "metrics.json").write_text(
        json.dumps(
            {
                "alpha": alpha,
                "methods": {m: reports[m].to_dict() for m in sorted(reports)},
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    return 0


def _cmd_report(args) -> int:
    doc = _load_config(args.config)
    metrics = _load_config(_require(doc, "metrics_file", args.config))
    alpha = args.alpha if args.alpha is not None else float(metrics.get("alpha", 0.1))
    reports = [
        MethodReport.from_dict(rep) for _, rep in sorted(metrics["methods"].items())
    ]
    out = _out_dir(args)
    violin_export(reports, out / "violin.csv")
    table = winner_table(
        reports,
        alpha=alpha,
        outage_threshold=float(doc.get("outage_threshold", 50.0)),
    )
    with (out / "winner.csv").open("w", encoding="utf-8", newline="") as handle:
        handle.write("method,win_fraction,wins,n_eligible\n")
        for method in sorted(table.win_fractions):
            handle.write(
                f"{method},{table.win_fractions[method]!r},"
                f"{table.wins[method]},{table.n_eligible}\n"
            )
    return 0


def _cmd_pipeline(args) -> int:
    doc = _load_config(args.config)
    if args.seed is not None:
        doc = dict(doc)
        doc["seed"] = args.seed
    run_pipeline(doc, _out_dir(args))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "conformal": _cmd_conformal,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
    "pipeline": _cmd_pipeline,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcp",
        description="Outage intensity model with conformal prediction intervals",
    )
    sub = parser.add_subparsers(dest="command", metavar="|".join(_COMMANDS))
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--method", default=None, help="interval method")
        cmd.add_argument("--alpha", type=float, default=None)
        cmd.add_argument("--seed", type=int, default=None)
    return parser


def cli_main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags/subcommands, 0 on --help
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return _EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"graphcp: config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as exc:
        print(f"graphcp: i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except GraphCPError as exc:
        print(f"graphcp: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
