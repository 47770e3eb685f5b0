"""Command-line front door.

Subcommands: simulate, fit, predict, conformal, evaluate, report, pipeline.
Each reads a JSON config plus CSV inputs and writes CSV/JSON outputs.
Exit codes: 0 ok, 2 config problem, 3 I/O problem, 4 validation failure.
Set GRAPH_CP_LOG=debug|info|warning for verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .conformal import read_interval_series, run_conformal
from .errors import ConfigError, GraphCPError, ListOf, ValidationError, coerce, done, take
from .evaluate import coverage_metrics, violin_export, winner_table
from .model import fit, init_params, intensity, load_params, save_params
from .panel import load_graph, load_panel, read_json, split
from .pipeline import (
    conformal_settings,
    fit_settings,
    outage_threshold,
    read_metrics,
    read_seed,
    run_pipeline,
    split_fractions,
    write_data,
    write_metrics,
    write_predictions,
    write_winner,
)
from .synth import ScenarioConfig, simulate

log = logging.getLogger("graphcp")

_EXIT_CONFIG = 2
_EXIT_IO = 3
_EXIT_VALIDATION = 4


def _setup_logging() -> None:
    level = os.environ.get("GRAPH_CP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _path(doc: dict, key: str, where: str) -> str:
    """A required file path of a subcommand config."""
    return take(doc, key, str, where=f"{where}: ")


def _read_panel_inputs(doc: dict, where: str):
    panel = load_panel(_path(doc, "weather_file", where), _path(doc, "counts_file", where))
    graph = load_graph(_path(doc, "graph_file", where), n_nodes=panel.n_nodes)
    return panel, graph


def _cmd_simulate(args, doc: dict) -> int:
    scenario_doc = take(doc, "scenario", dict) if "scenario" in doc else doc
    if args.seed is not None:
        scenario_doc["seed"] = args.seed
    scenario = ScenarioConfig.from_dict(scenario_doc)
    panel = simulate(scenario)
    write_data(_out_dir(args), panel, scenario.graph.build(), scenario.seed)
    log.info("simulated panel K=%d T=%d M=%d", panel.n_nodes, panel.n_steps, panel.n_vars)
    return 0


def _cmd_fit(args, doc: dict) -> int:
    seed = read_seed(doc, args.seed)
    init_kwargs, config = fit_settings(doc, 96, (seed, seed))
    fractions = split_fractions(doc)
    panel, graph = _read_panel_inputs(doc, args.config)
    init = init_params(graph, panel.n_vars, **init_kwargs)
    result = fit(panel, graph, init, config, time_range=split(panel, fractions).train)
    save_params(result.params, _out_dir(args) / "params.json")
    log.info(
        "fit done: ll %.6f -> %.6f", result.checkpoints[0], result.checkpoints[-1]
    )
    return 0


def _cmd_predict(args, doc: dict) -> int:
    panel, graph = _read_panel_inputs(doc, args.config)
    params = load_params(_path(doc, "params_file", args.config))
    if "range" in doc:
        lo, hi = take(doc, "range", ListOf(int, 2))
        if not 1 <= lo <= hi <= panel.n_steps:
            raise ValidationError(
                f"{args.config}: range [{lo}, {hi}] is not within 1..{panel.n_steps}"
            )
    else:
        lo, hi = split(panel, split_fractions(doc)).test
    write_predictions(_out_dir(args) / "predictions.csv", intensity(panel, graph, params), lo, hi)
    return 0


def _cmd_conformal(args, doc: dict) -> int:
    methods, kwargs = conformal_settings(doc, read_seed(doc, args.seed), args.alpha)
    fractions = split_fractions(doc)
    panel, graph = _read_panel_inputs(doc, args.config)
    params = load_params(_path(doc, "params_file", args.config))
    data_split = split(panel, fractions)
    methods = methods if args.method is None else [args.method]
    series = [run_conformal(panel, graph, params, data_split, m, **kwargs) for m in methods]
    out = _out_dir(args)
    for one in series:
        one.to_csv(out / f"intervals_{one.method}.csv")
    return 0


def _cmd_evaluate(args, doc: dict) -> int:
    files = take(doc, "intervals_files", list, where=f"{args.config}: ")
    # alpha comes from the conformal section, read whole; no forest is grown here
    _, kwargs = conformal_settings(doc, 0, args.alpha)
    reports = {}
    for file in files:
        series = read_interval_series(coerce(str, file, "intervals_files"))
        reports[series.method] = coverage_metrics(series)
    write_metrics(_out_dir(args) / "metrics.json", kwargs["alpha"], reports)
    return 0


def _cmd_report(args, doc: dict) -> int:
    threshold = outage_threshold(doc)
    alpha, reports = read_metrics(_path(doc, "metrics_file", args.config), args.alpha)
    out = _out_dir(args)
    violin_export(reports, out / "violin.csv")
    write_winner(out / "winner.csv", winner_table(reports, alpha=alpha, outage_threshold=threshold))
    return 0


def _cmd_pipeline(args, doc: dict) -> int:
    if args.seed is not None:
        doc["seed"] = args.seed
    run_pipeline(doc, _out_dir(args))
    return 0


# each subcommand and the override flags it reads
_COMMANDS = {
    "simulate": (_cmd_simulate, ["--seed"]),
    "fit": (_cmd_fit, ["--seed"]),
    "predict": (_cmd_predict, []),
    "conformal": (_cmd_conformal, ["--method", "--alpha", "--seed"]),
    "evaluate": (_cmd_evaluate, ["--alpha"]),
    "report": (_cmd_report, ["--alpha"]),
    "pipeline": (_cmd_pipeline, ["--seed"]),
}
_FLAG_TYPES = {"--method": str, "--alpha": float, "--seed": int}

# the top-level keys of a fit, predict, conformal, evaluate or report config:
# one file can serve all five, and any other key is a config error
_KEYS = {"weather_file", "counts_file", "graph_file", "params_file", "intervals_files",
         "metrics_file", "seed", "split", "range", "scenario", "fit", "conformal", "evaluate"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphcp",
        description="Outage intensity model with conformal prediction intervals",
    )
    sub = parser.add_subparsers(dest="command", metavar="|".join(_COMMANDS))
    for name, (_, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", required=True, help="output directory")
        for flag in flags:
            cmd.add_argument(flag, type=_FLAG_TYPES[flag])
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
        # every stage checks its own outputs, so an overflow surfaces as one error line
        with np.errstate(over="ignore", invalid="ignore"):
            doc = read_json(args.config)
            if args.command not in ("simulate", "pipeline"):
                done(dict.fromkeys(doc.keys() - _KEYS))
            return _COMMANDS[args.command][0](args, doc)
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
