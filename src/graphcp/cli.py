"""Command-line front door.

Subcommands: simulate, fit, predict, conformal, evaluate, report, pipeline.
Each reads a JSON config (one pipeline document, with the file keys added,
serves them all) plus CSV inputs and writes CSV/JSON outputs.
Exit codes: 0 ok, 2 config problem, 3 I/O problem or out of memory, 4 validation
failure.
Set GRAPH_CP_LOG=debug|info|warning for verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from .conformal import read_interval_series, run_conformal
from .errors import (
    AlignmentError, ConfigError, GraphCPError, ListOf, ValidationError, coerce, done, take,
)
from .evaluate import coverage_metrics
from .model import fit, init_params, intensity, load_params
from .panel import load_graph, load_panel, read_json, split
from .pipeline import (
    conformal_settings,
    fit_settings,
    outage_threshold,
    read_metrics,
    read_scenario,
    read_seed,
    run_pipeline,
    split_fractions,
    write_data,
    write_intervals,
    write_metrics,
    write_params,
    write_predictions,
    write_report,
)
from .synth import simulate

log = logging.getLogger("graphcp")

_EXIT_CONFIG = 2
_EXIT_IO = 3
_EXIT_VALIDATION = 4


def _setup_logging() -> None:
    level = os.environ.get("GRAPH_CP_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _path(doc: dict, key: str, where: str) -> str:
    """A required file path of a subcommand config."""
    return take(doc, key, str, where=f"{where}: ")


def _read_panel_inputs(doc: dict, where: str):
    panel = load_panel(_path(doc, "weather_file", where), _path(doc, "counts_file", where))
    graph = load_graph(_path(doc, "graph_file", where), n_nodes=panel.n_nodes)
    return panel, graph


def _cmd_simulate(args, doc: dict) -> int:
    scenario = read_scenario(doc, read_seed(doc))
    panel = simulate(scenario)
    write_data(args.out, scenario, panel, scenario.graph.build())
    log.info("simulated panel K=%d T=%d M=%d", panel.n_nodes, panel.n_steps, panel.n_vars)
    return 0


def _cmd_fit(args, doc: dict) -> int:
    init_kwargs, config = fit_settings(doc, read_seed(doc))
    fractions = split_fractions(doc)
    panel, graph = _read_panel_inputs(doc, args.config)
    init = init_params(graph, panel.n_vars, **init_kwargs)
    result = fit(panel, graph, init, config, time_range=split(panel, fractions).train)
    write_params(args.out, result.params)
    log.info("fit done: ll %.6f -> %.6f, n_retreats %d, learning_rate_final %r",
             result.checkpoints[0], result.checkpoints[-1], result.n_retreats,
             result.learning_rate_final)
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
    write_predictions(args.out, intensity(panel, graph, params), lo, hi)
    return 0


def _cmd_conformal(args, doc: dict) -> int:
    methods, kwargs = conformal_settings(doc, read_seed(doc), args.alpha, args.method)
    fractions = split_fractions(doc)
    panel, graph = _read_panel_inputs(doc, args.config)
    params = load_params(_path(doc, "params_file", args.config))
    data_split = split(panel, fractions)
    series = [run_conformal(panel, graph, params, data_split, m, **kwargs) for m in methods]
    write_intervals(args.out, series)
    return 0


def _cmd_evaluate(args, doc: dict) -> int:
    files = take(doc, "intervals_files", list, where=f"{args.config}: ")
    # alpha comes from the conformal section, read whole; no forest is grown here
    _, kwargs = conformal_settings(doc, 0, args.alpha)
    reports, paths = {}, {}
    for file in files:
        path = coerce(str, file, "intervals_files")
        series = read_interval_series(path)
        if series.method in paths:
            raise AlignmentError(
                f"{path}: method {series.method!r} already read from {paths[series.method]}"
            )
        paths[series.method] = path
        reports[series.method] = coverage_metrics(series)
    write_metrics(args.out, kwargs["alpha"], reports)
    return 0


def _cmd_report(args, doc: dict) -> int:
    threshold = outage_threshold(doc)
    alpha, reports = read_metrics(_path(doc, "metrics_file", args.config), args.alpha)
    write_report(args.out, alpha, reports, threshold)
    return 0


def _cmd_pipeline(args, doc: dict) -> int:
    run_pipeline(doc, args.out)
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

# the top-level keys of every subcommand's config but pipeline's: one file
# can serve them all, and any other key is a config error
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
            if getattr(args, "seed", None) is not None:
                doc["seed"] = args.seed
            if args.command != "pipeline":
                done(dict.fromkeys(doc.keys() - _KEYS))
            return _COMMANDS[args.command][0](args, doc)
    except ConfigError as exc:
        print(f"graphcp: config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as exc:
        print(f"graphcp: i/o error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except MemoryError as exc:
        print(f"graphcp: out of memory: {exc}", file=sys.stderr)
        return _EXIT_IO
    except GraphCPError as exc:
        print(f"graphcp: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
