import copy
import hashlib
import itertools
import json
import logging
import math
import multiprocessing
import os
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphcp import conformal, pipeline
from graphcp.cli import cli_main
from graphcp.conformal import read_interval_series
from graphcp.model import ModelParams, load_params
from graphcp.pipeline import run_pipeline
from graphcp.synth import GraphSpec, ScenarioConfig, WeatherSpec
from tests.support import time_limit, zero_response


def demo_scenario_doc(seed=0, k=5, t_total=180):
    params = ModelParams(
        coupling={(0, j): 0.4 for j in range(1, k)},
        decay=np.full(k, 0.9),
        scale=np.full(k, 1.2),
        weather_decay=np.array([0.3]),
        response=zero_response(3, 1),
        window=6,
    )
    return ScenarioConfig(
        graph=GraphSpec(kind="star", n_nodes=k),
        n_steps=t_total,
        params=params,
        weather=WeatherSpec(ar_coefs=(0.5,), noise_scales=(1.0,)),
        seed=seed,
    ).to_dict()


def pipeline_doc(seed=0):
    return {
        "seed": seed,
        "scenario": demo_scenario_doc(seed),
        "split": [1 / 3, 1 / 3, 1 / 3],
        "fit": {"hidden": 3, "window": 6, "epochs": 4, "learning_rate": 0.02,
                "batch_len": 30, "momentum": 0.9},
        "conformal": {
            "methods": ["poisson", "temporal", "graph"],
            "alpha": 0.1,
            "window": 4,
            "retrain_stride": 20,
            "forest": {"n_trees": 5, "min_leaf": 5},
        },
        "evaluate": {"outage_threshold": 0.0},
    }


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# -------------------------------------------------------------- exit codes


def test_unknown_subcommand_exits_2(capsys):
    assert cli_main(["frobnicate", "--config", "x", "--out", "y"]) == 2


def test_no_subcommand_exits_2():
    assert cli_main([]) == 2


def test_missing_input_file_exits_3(tmp_path):
    code = cli_main(
        ["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
    )
    assert code == 3


def test_invalid_json_exits_2(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text("{not json")
    assert cli_main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 2


def test_validation_failure_exits_4(tmp_path):
    # counts file with a negative entry
    (tmp_path / "graph.csv").write_text("src,dst\n0,1\n")
    (tmp_path / "w.csv").write_text(
        "unit,time,variable,value\n0,1,0,0.0\n0,2,0,0.0\n1,1,0,0.0\n1,2,0,0.0\n"
    )
    (tmp_path / "c.csv").write_text("unit,time,count\n0,1,-3\n0,2,0\n1,1,0\n1,2,0\n")
    config = write_json(
        tmp_path / "fit.json",
        {
            "graph_file": str(tmp_path / "graph.csv"),
            "weather_file": str(tmp_path / "w.csv"),
            "counts_file": str(tmp_path / "c.csv"),
        },
    )
    assert cli_main(["fit", "--config", config, "--out", str(tmp_path / "out")]) == 4


def test_malformed_weather_file_exits_4(tmp_path, capsys):
    inputs = fitted_model(tmp_path)
    weather = tmp_path / "data" / "weather.csv"
    lines = weather.read_text().splitlines()
    weather.write_text("\n".join(lines[:5] + ["0,x,0,1.5"] + lines[6:]) + "\n")
    config = write_json(tmp_path / "fit2.json", inputs)
    capsys.readouterr()
    assert cli_main(["fit", "--config", config, "--out", str(tmp_path / "m2")]) == 4
    err = capsys.readouterr().err
    assert "MalformedRow" in err and "Traceback" not in err


def test_conformal_unknown_method_exits_2(tmp_path, demo_data=None):
    data_dir = tmp_path / "data"
    config = write_json(tmp_path / "sim.json", {"scenario": demo_scenario_doc()})
    assert cli_main(["simulate", "--config", config, "--out", str(data_dir)]) == 0
    fit_doc = {
        "graph_file": str(data_dir / "graph.csv"),
        "weather_file": str(data_dir / "weather.csv"),
        "counts_file": str(data_dir / "counts.csv"),
        "fit": {"epochs": 1},
    }
    fit_config = write_json(tmp_path / "fit.json", fit_doc)
    assert cli_main(["fit", "--config", fit_config, "--out", str(tmp_path / "model")]) == 0
    conf_doc = dict(fit_doc, params_file=str(tmp_path / "model" / "params.json"))
    conf_config = write_json(tmp_path / "conf.json", conf_doc)
    code = cli_main(
        ["conformal", "--config", conf_config, "--out", str(tmp_path / "iv"),
         "--method", "bogus"]
    )
    assert code == 2


# -------------------------------------------------------------- end to end


def test_cli_stage_chain(tmp_path):
    # one config file serves every subcommand but pipeline
    data_dir, iv = tmp_path / "data", tmp_path / "iv"
    config = write_json(
        tmp_path / "config.json",
        {
            "seed": 4,
            "scenario": demo_scenario_doc(),
            "graph_file": str(data_dir / "graph.csv"),
            "weather_file": str(data_dir / "weather.csv"),
            "counts_file": str(data_dir / "counts.csv"),
            "params_file": str(tmp_path / "model" / "params.json"),
            "intervals_files": [str(iv / "intervals_poisson.csv"), str(iv / "intervals_graph.csv")],
            "metrics_file": str(tmp_path / "m" / "metrics.json"),
            "split": [1 / 3, 1 / 3, 1 / 3],
            "fit": {"hidden": 3, "window": 6, "epochs": 3, "learning_rate": 0.02, "batch_len": 30},
            "conformal": {
                "methods": ["poisson", "graph"],
                "alpha": 0.1,
                "window": 4,
                "retrain_stride": 30,
                "forest": {"n_trees": 5, "min_leaf": 5},
            },
            "evaluate": {"outage_threshold": 0.0},
        },
    )
    assert cli_main(["simulate", "--config", config, "--out", str(data_dir)]) == 0
    meta = json.loads((data_dir / "meta.json").read_text())
    assert meta["n_nodes"] == 5

    assert cli_main(["fit", "--config", config, "--out", str(tmp_path / "model")]) == 0
    params = load_params(tmp_path / "model" / "params.json")
    assert params.n_nodes == 5

    assert cli_main(["predict", "--config", config, "--out", str(tmp_path / "p")]) == 0
    assert len((tmp_path / "p" / "predictions.csv").read_text().splitlines()) == 1 + 5 * 60

    # without --method, conformal runs each of conformal.methods
    assert cli_main(["conformal", "--config", config, "--out", str(iv), "--seed", "9"]) == 0
    series = read_interval_series(iv / "intervals_graph.csv")
    assert len(series) == 5 * 60
    assert sorted(p.name for p in iv.iterdir()) == ["intervals_graph.csv", "intervals_poisson.csv"]

    assert cli_main(["evaluate", "--config", config, "--out", str(tmp_path / "m")]) == 0
    metrics = json.loads((tmp_path / "m" / "metrics.json").read_text())
    assert set(metrics["methods"]) == {"poisson", "graph"}

    assert cli_main(["report", "--config", config, "--out", str(tmp_path / "r")]) == 0
    winner_lines = (tmp_path / "r" / "winner.csv").read_text().splitlines()
    assert winner_lines[0] == "method,win_fraction,wins,n_eligible"
    assert len(winner_lines) == 3
    violin_lines = (tmp_path / "r" / "violin.csv").read_text().splitlines()
    assert len(violin_lines) == 1 + 2 * 5


def digests(root):
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in root.rglob("*")
        if path.is_file()
    }


def test_cli_chain_writes_what_pipeline_writes(tmp_path):
    # the subcommands used to seed the init, the fit and the forests with
    # seed itself where pipeline adds 1, 2 and 3, and simulate read a bare
    # scenario and wrote no scenario.json
    doc = pipeline_doc(seed=3)
    methods = ["poisson", "vanilla", "temporal", "graph"]
    doc["conformal"]["methods"] = methods
    run_pipeline(doc, tmp_path / "pipeline")
    out = tmp_path / "chain"
    files = {
        "graph_file": str(out / "data" / "graph.csv"),
        "weather_file": str(out / "data" / "weather.csv"),
        "counts_file": str(out / "data" / "counts.csv"),
        "params_file": str(out / "model" / "params.json"),
        "intervals_files": [str(out / "intervals" / f"intervals_{m}.csv") for m in methods],
        "metrics_file": str(out / "metrics.json"),
    }
    config = write_json(tmp_path / "chain.json", {**doc, **files})
    stages = [("simulate", "data"), ("fit", "model"), ("conformal", "intervals"),
              ("evaluate", ""), ("report", "")]
    for command, stage in stages:
        assert cli_main([command, "--config", config, "--out", str(out / stage)]) == 0, command
    expected = digests(tmp_path / "pipeline")
    assert len(expected) == 13 and "data/scenario.json" in expected
    assert digests(out) == expected


def test_simulate_takes_the_top_level_seed(tmp_path):
    # simulate used to take its seed from the scenario document
    config = write_json(tmp_path / "sim.json", {"seed": 4, "scenario": demo_scenario_doc(seed=9)})
    for flags, seed in (([], 4), (["--seed", "5"], 5)):
        out = tmp_path / str(seed)
        assert cli_main(["simulate", "--config", config, "--out", str(out)] + flags) == 0
        assert json.loads((out / "meta.json").read_text())["seed"] == seed
        assert json.loads((out / "scenario.json").read_text())["seed"] == seed


def test_fit_logs_rollbacks_and_final_learning_rate(tmp_path, caplog):
    # a fit that rolls back every epoch used to log only its first and last
    # log-likelihood, which are then equal
    inputs = fitted_model(tmp_path)
    del inputs["params_file"]
    fit_doc = {**inputs, "fit": {"epochs": 2, "learning_rate": 1e6}}
    config = write_json(tmp_path / "fit.json", fit_doc)
    with caplog.at_level(logging.INFO, logger="graphcp"):
        assert cli_main(["fit", "--config", config, "--out", str(tmp_path / "m")]) == 0
    assert "n_retreats 2, learning_rate_final 250000.0" in caplog.text, caplog.text


def fitted_model(tmp_path):
    """Simulate demo data and fit one epoch; returns the predict config's inputs."""
    data_dir = tmp_path / "data"
    sim_config = write_json(tmp_path / "sim.json", {"seed": 6, "scenario": demo_scenario_doc()})
    assert cli_main(["simulate", "--config", sim_config, "--out", str(data_dir)]) == 0
    inputs = {
        "graph_file": str(data_dir / "graph.csv"),
        "weather_file": str(data_dir / "weather.csv"),
        "counts_file": str(data_dir / "counts.csv"),
    }
    fit_config = write_json(tmp_path / "fit.json", {**inputs, "fit": {"epochs": 1}})
    assert cli_main(["fit", "--config", fit_config, "--out", str(tmp_path / "model")]) == 0
    return {**inputs, "params_file": str(tmp_path / "model" / "params.json")}


def test_predict_subcommand(tmp_path):
    predict_config = write_json(
        tmp_path / "predict.json", {**fitted_model(tmp_path), "range": [5, 8]}
    )
    assert cli_main(["predict", "--config", predict_config, "--out", str(tmp_path / "p")]) == 0
    lines = (tmp_path / "p" / "predictions.csv").read_text().splitlines()
    assert lines[0] == "node,time,f_hat"
    assert len(lines) == 1 + 5 * 4


def test_predict_range_outside_panel_exits_4(tmp_path):
    # T = 180: time 0 used to wrap to the last step's forecast, and a range
    # past T used to end in an IndexError
    inputs = fitted_model(tmp_path)
    for bad in ([0, 2], [179, 181], [8, 5]):
        config = write_json(tmp_path / "predict.json", {**inputs, "range": bad})
        out = tmp_path / f"p{bad[0]}"
        assert cli_main(["predict", "--config", config, "--out", str(out)]) == 4, bad
        assert not (out / "predictions.csv").exists()


def test_predict_on_a_weighted_edge_list_exits_4(tmp_path, capsys):
    # a third column used to be read as an edge weight that no algorithm used:
    # weight 5.0 exited 0 with the forecasts of weight 1.0
    inputs = fitted_model(tmp_path)
    graph_file = tmp_path / "weighted.csv"
    graph_file.write_text("src,dst,weight\n" + "".join(f"0,{j},5.0\n" for j in range(1, 5)))
    config = write_json(
        tmp_path / "predict.json", {**inputs, "graph_file": str(graph_file), "range": [5, 8]}
    )
    capsys.readouterr()
    assert cli_main(["predict", "--config", config, "--out", str(tmp_path / "p")]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "header ['src', 'dst', 'weight']" in err[0], err
    assert not (tmp_path / "p" / "predictions.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_predict_nonfinite_rate_exits_4(tmp_path, capsys):
    # decay 1e308 overflows the excitation recursion: inf * exp(-1e308) = nan;
    # numpy's overflow warnings used to print before the one error line
    edit = edited_params(lambda p: p["decay"].__setitem__(0, 1e308))
    code, err = nonfinite_run(tmp_path, capsys, "predict", edit)
    assert code == 4
    assert "ValidationError" in err[0] and len(err) == 1, err
    assert not (tmp_path / "o" / "predictions.csv").exists()


def huge_rate(params):
    """Node 0's rate about 1.31e308: scale 1e308 times softplus(1), whatever the fit."""
    params["scale"][0] = 1e308
    params["response"].update(w_out=[0.0] * len(params["response"]["w_out"]), b_out=1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["poisson", "vanilla", "temporal", "graph"])
def test_conformal_nonfinite_bounds_exit_4(tmp_path, capsys, method):
    # a rate near 1e308 is finite, but its Poisson quantiles are nan,
    # vanilla's point + half-width overflows to inf, and the forests'
    # residual targets are too large to score splits on
    def bad(doc, tmp):
        return {**edited_params(huge_rate)(doc, tmp), "conformal": {"methods": [method]}}

    code, err = nonfinite_run(tmp_path, capsys, "conformal", bad)
    assert code == 4
    error = "DegenerateData" if method in ("temporal", "graph") else "ValidationError"
    assert error in err[0] and len(err) == 1, err
    assert not (tmp_path / "o" / f"intervals_{method}.csv").exists()


def test_fit_zero_batch_len_exits_2(tmp_path):
    inputs = fitted_model(tmp_path)
    del inputs["params_file"]
    config = write_json(tmp_path / "fit0.json", {**inputs, "fit": {"batch_len": 0}})
    assert cli_main(["fit", "--config", config, "--out", str(tmp_path / "m0")]) == 2


def edited_params(edit):
    """An override pointing ``params_file`` at a copy of the fitted params with ``edit`` applied."""

    def override(doc, tmp_path):
        params = json.loads(Path(doc["params_file"]).read_text())
        edit(params)
        return {"params_file": write_json(tmp_path / "edited_params.json", params)}

    return override


def metrics_file(edit):
    """An override pointing ``metrics_file`` at a two-method metrics document with ``edit`` applied."""
    from tests.test_evaluate import report_from

    def override(doc, tmp_path):
        reports = [report_from(m, {0: 0.9}, {0: 2.0}) for m in ("poisson", "graph")]
        metrics = {"alpha": 0.1, "methods": {r.method: r.to_dict() for r in reports}}
        edit(metrics)
        return {"metrics_file": write_json(tmp_path / "metrics.json", metrics)}

    return override


def bad_config(tmp_path, command, bad):
    if command == "pipeline":
        doc = pipeline_doc(seed=1)
    elif command == "simulate":
        doc = {}
    else:
        doc = fitted_model(tmp_path)
    return write_json(tmp_path / "bad.json", {**doc, **(bad(doc, tmp_path) if callable(bad) else bad)})


@pytest.mark.parametrize(
    "command, bad",
    [
        ("fit", {"fit": {"epochs": "ten"}}),
        ("conformal", {"conformal": {"methods": ["poisson"], "window": "x"}}),
        ("predict", {"range": ["five", 8]}),
        ("pipeline", {"fit": {"epochs": "ten"}}),
        ("conformal", {"conformal": {"methods": ["poisson"], "calib_window": "x"}}),
        ("conformal", {"conformal": {"methods": ["poisson"], "retrain_stride": "x"}}),
        ("conformal", {"conformal": {"methods": ["poisson"], "forest": {"max_depth": "x"}}}),
        ("conformal", {"conformal": {"methods": ["poisson"], "forest": {"mtry": "x"}}}),
        ("conformal", {"conformal": {"methods": ["poisson"], "forest": {"bootstrap": "false"}}}),
        ("fit", {"split": 5}),
        ("fit", {"split": ["a", 0.5, 0.25]}),
        ("evaluate", {"intervals_files": 5}),
        ("evaluate", {"intervals_files": [5]}),
        ("pipeline", {"conformal": {"methods": 5}}),
        ("fit", {"weather_file": 5}),
        ("report", {"metrics_file": None}),
        ("predict", edited_params(lambda p: p.update(decay="x"))),
        ("predict", edited_params(lambda p: p["response"].update(b_out=[1.0]))),
        ("report", metrics_file(lambda m: m["methods"]["graph"].update(coverage="x"))),
        ("report", metrics_file(lambda m: m["methods"]["graph"]["per_node"]["0"].update(n_cells=[]))),
        ("evaluate", {"intervals_files": [], "conformal": {"alpha": 1.5}}),
        # params rows and arrays: int() truncated 1.9 to node 1, float() and
        # np.array read numeric strings, and booleans read as 1 and 0
        ("predict", edited_params(lambda p: p.update(coupling=[[0.0, 1.9, 0.2]]))),
        ("predict", edited_params(lambda p: p.update(coupling=[["0", "1", 0.2]]))),
        ("predict", edited_params(lambda p: p.update(decay=[str(d) for d in p["decay"]]))),
        ("predict", edited_params(lambda p: p["response"].update(w_out=[True, False] * 4))),
        ("predict", edited_params(lambda p: p.update(seed="1"))),
        # a boolean among numbers read as 1.0
        ("predict", edited_params(lambda p: p["response"]["w_out"].__setitem__(0, True))),
    ],
)
def test_wrong_typed_config_value_exits_2(tmp_path, capsys, command, bad):
    # int("ten") used to escape cli_main as a ValueError (exit 1, traceback);
    # bool("false") read as True, and a path of 5 or None as a TypeError
    config = bad_config(tmp_path, command, bad)
    capsys.readouterr()
    assert cli_main([command, "--config", config, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


def scenario_without(key):
    doc = demo_scenario_doc()
    del doc[key]
    return doc


def scenario_with_graph(**graph):
    """A four-node scenario without coupling on the graph ``graph``."""
    doc = demo_scenario_doc(k=4)
    doc["graph"] = dict(doc["graph"], **graph)
    doc["params"]["coupling"] = []
    return {"scenario": doc}


BAD_GRAPHS = [
    scenario_with_graph(kind="grid", grid_rows="2"),
    scenario_with_graph(kind="edges", edges=[[0, "x"]]),
    scenario_with_graph(kind="edges", edges=[[0, None]]),
]


def scenario_edited(edit):
    """The demo scenario with one storm pulse, after ``edit`` has changed one value."""
    doc = demo_scenario_doc()
    doc["weather"]["pulses"] = [
        {"start": 3, "duration": 2, "amplitude": 1000.0, "variable": 0, "nodes": [1]}
    ]
    edit(doc)
    return {"scenario": doc}


def pulse(**values):
    return lambda doc: doc["weather"]["pulses"][0].update(values)


# scenario numbers that int() and float() accept but that are not JSON
# integers or numbers
BAD_NUMBERS = [
    lambda doc: doc.update(n_steps="180"),
    lambda doc: doc["graph"].update(n_nodes=5.9),
    lambda doc: doc.update(explosion_cap="1e4"),
    lambda doc: doc["weather"].update(ar_coefs=["0.5"]),
    lambda doc: doc["weather"].update(noise_scales=[True]),
    pulse(start="3"),
    pulse(duration=2.5),
    pulse(amplitude="1e3"),
    pulse(variable=False),
    pulse(nodes=["1"]),
]


# stage-section numbers that int() and float() accept but that are not JSON
# integers or numbers; a fraction used to be truncated (1.9 epochs ran 1)
STAGE_NUMBERS = [
    ("fit", {"fit": {"epochs": "10"}}),
    ("fit", {"fit": {"epochs": 1.9}}),
    ("fit", {"fit": {"learning_rate": "0.01"}}),
    ("fit", {"fit": {"hidden": 2.0}}),
    ("fit", {"seed": True}),
    ("fit", {"split": ["0.4", 0.3, 0.3]}),
    ("pipeline", {"seed": "4"}),
    ("pipeline", {"seed": True}),
    ("conformal", {"conformal": {"methods": ["poisson"], "alpha": "0.1"}}),
    ("conformal", {"conformal": {"methods": ["poisson"], "window": 4.5}}),
    ("conformal", {"conformal": {"methods": ["poisson"], "forest": {"n_trees": True}}}),
    ("predict", {"range": [5.0, 8]}),
    ("predict", edited_params(lambda p: p.update(window=6.5))),
    ("predict", edited_params(lambda p: p["response"].update(b_out="0.1"))),
    ("report", metrics_file(lambda m: m["methods"]["graph"].update(n_infinite_width=True))),
    ("report", metrics_file(lambda m: m["methods"]["graph"].update(coverage="0.9"))),
]


# unknown keys at each level of the scenario document were ignored
UNKNOWN_SCENARIO_KEYS = [
    lambda doc: doc.update(n_step=180),
    lambda doc: doc["graph"].update(rows=2),
    lambda doc: doc["weather"].update(pulse=[]),
    pulse(node=[1]),
]


@pytest.mark.parametrize(
    "command, bad",
    [
        ("fit", {"fit": 5}),
        ("fit", {"fit": [1]}),
        ("simulate", {"scenario": scenario_without("n_steps")}),
        ("pipeline", {"fit": 5}),
        ("pipeline", {"conformal": [1]}),
        ("fit", {"fit": {"epoch": 1}}),
        ("fit", {"fit": {"hiden": 3}}),
        ("conformal", {"conformal": {"methods": ["poisson"], "forest": {"n_tree": 5}}}),
        ("pipeline", {"fit": {"epoch": 1}}),
        ("pipeline", {"conformal": {"method": ["graph"]}}),
        ("pipeline", {"conformal": {"forest": {"bootstrap": True, "depth": 3}}}),
        ("pipeline", {"evaluate": {"threshold": 0.0}}),
        ("pipeline", {"sede": 3}),
        ("predict", edited_params(lambda p: p.pop("decay"))),
        ("predict", edited_params(lambda p: p["response"].pop("w_out"))),
        ("report", metrics_file(lambda m: m.pop("methods"))),
        ("report", metrics_file(lambda m: m["methods"]["poisson"].pop("per_node"))),
    ]
    + [(command, bad) for command in ("simulate", "pipeline") for bad in BAD_GRAPHS]
    + [("simulate", scenario_edited(lambda doc: doc.update(seed="4")))]
    + [
        (command, scenario_edited(edit))
        for command in ("simulate", "pipeline")
        for edit in BAD_NUMBERS
    ]
    + STAGE_NUMBERS
    + [
        (command, scenario_edited(edit))
        for command in ("simulate", "pipeline")
        for edit in UNKNOWN_SCENARIO_KEYS
    ]
    + [
        ("report", metrics_file(lambda m: m["methods"]["graph"].update(widths=[]))),
        ("report", metrics_file(lambda m: m["methods"]["graph"]["per_node"]["0"].update(y=[]))),
        # the stage seeds come from the top level, never from a section
        ("fit", {"fit": {"epochs": 1, "seed": 1}}),
        ("evaluate", {"intervals_files": [], "conformal": {"forest": {"seed": 1}}}),
        # the top-level seed replaces the scenario's after a type check,
        # which pipeline used to skip
        ("pipeline", scenario_edited(lambda doc: doc.update(seed="4"))),
        # no method ran every stage and then exited 4; a repeated one ran twice
        ("pipeline", {"conformal": {"methods": []}}),
        ("pipeline", {"conformal": {"methods": ["poisson", "poisson"]}}),
        ("conformal", {"conformal": {"methods": []}}),
        ("conformal", {"conformal": {"methods": ["poisson", "poisson"]}}),
        # a NaN width used to win the winner table
        ("report", metrics_file(lambda m: m["methods"]["graph"].update(mean_width=math.nan))),
    ]
    # run_conformal rejected these ranges, with exit 4, after simulate and fit had run
    + [
        (command, {"conformal": {"methods": ["poisson"], **bad}})
        for command in ("conformal", "pipeline")
        for bad in ({"retrain_stride": 0}, {"window": 0}, {"window": 4, "calib_window": 4})
    ]
    # a negative threshold exited 4 from winner_table after pipeline had
    # written every stage's files, and report violin.csv
    + [
        ("pipeline", {"evaluate": {"outage_threshold": -1.0}}),
        ("report", lambda doc, tmp: {**metrics_file(lambda m: None)(doc, tmp),
                                     "evaluate": {"outage_threshold": -1.0}}),
    ],
)
def test_malformed_config_section_exits_2(tmp_path, capsys, command, bad):
    # a section that is not a JSON object, a scenario, params or metrics
    # document without a required key, an unknown key in a stage section, or
    # a graph value that is not an integer used to escape cli_main as
    # AttributeError, TypeError, ValueError or KeyError, or to be ignored;
    # a scenario number given as a string, a bool or a fraction was converted
    config = bad_config(tmp_path, command, bad)
    capsys.readouterr()
    assert cli_main([command, "--config", config, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("column", ["lower", "upper", "y_true"])
def test_evaluate_nan_interval_exits_4(tmp_path, capsys, column):
    # a NaN truth used to be written into metrics.json as NaN, and a NaN
    # bound counted as an infinite width
    row = {"method": "poisson", "node": 0, "time": 1, "point": 1.0, "lower": 0.0,
           "upper": 3.0, "y_true": 1.0, column: math.nan}
    intervals = tmp_path / "intervals_poisson.csv"
    intervals.write_text(",".join(row) + "\n" + ",".join(map(str, row.values())) + "\n")
    config = write_json(tmp_path / "eval.json", {"intervals_files": [str(intervals)]})
    capsys.readouterr()
    code = cli_main(["evaluate", "--config", config, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == 4 and len(err) == 1 and "DimensionMismatch" in err[0], err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "rows",
    [
        ["poisson,-1,-1,1.0,0.0,3.0,1.0"],
        ["poisson,0,1,1.0,0.0,3.0,1.0", "poisson,0,1,1.0,0.0,3.0,2.0"],
        ["poisson,0,1,1.0,0.0,3.0,-2.5"],
    ],
    ids=["negative_id", "repeated_cell", "negative_truth"],
)
def test_evaluate_rows_not_one_count_per_cell_exit_4(tmp_path, capsys, rows):
    # each used to evaluate with exit 0: a node -1 wrote a per_node key
    # that report rejects, and a repeated cell was counted twice
    intervals = tmp_path / "intervals_poisson.csv"
    intervals.write_text("\n".join(["method,node,time,point,lower,upper,y_true"] + rows) + "\n")
    config = write_json(tmp_path / "eval.json", {"intervals_files": [str(intervals)]})
    capsys.readouterr()
    code = cli_main(["evaluate", "--config", config, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == 4 and len(err) == 1 and "DimensionMismatch" in err[0], err
    assert not (tmp_path / "o").exists()


def test_evaluate_repeated_method_exits_4(tmp_path, capsys):
    # the reports were keyed by method, so the second file of a method
    # replaced the first: exit 0 with n_cells 1 and its coverage alone
    files = []
    for time in (1, 2):
        path = tmp_path / f"intervals_{time}.csv"
        path.write_text(
            f"method,node,time,point,lower,upper,y_true\npoisson,0,{time},1.0,0.0,3.0,1.0\n"
        )
        files.append(str(path))
    config = write_json(tmp_path / "eval.json", {"intervals_files": files})
    capsys.readouterr()
    code = cli_main(["evaluate", "--config", config, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.splitlines()
    assert code == 4 and len(err) == 1 and "AlignmentError" in err[0], err
    assert files[0] in err[0] and files[1] in err[0], err
    assert not (tmp_path / "o").exists()


def test_out_of_memory_exits_3(tmp_path, capsys):
    # numpy's MemoryError used to escape cli_main with a traceback; 2**58
    # hidden units ask for 2 EiB, more than any address space, so the
    # allocation fails at once
    code, err = nonfinite_run(tmp_path, capsys, "pipeline", {"fit": {"hidden": 2**58}})
    assert code == 3 and len(err) == 1 and "out of memory" in err[0], err
    assert not (tmp_path / "o").exists()


# the subcommands' own layouts (``init`` and ``optimizer``, top-level
# conformal keys and ``method``, a top-level ``outage_threshold``) and
# misspelled top-level keys used to run, the misspellings on defaults
@pytest.mark.parametrize(
    "command, flags, bad, key",
    [
        pytest.param("fit", [], {"optimizer": {"epochs": 1}}, "optimizer", id="fit-optimizer"),
        pytest.param("fit", [], {"init": {"hidden": 2}}, "init", id="fit-init"),
        pytest.param("fit", [], {"optimiser": {"epochs": 1}}, "optimiser", id="fit-optimiser"),
        pytest.param("conformal", [], {"method": "poisson"}, "method", id="conformal-method"),
        pytest.param("conformal", ["--method", "poisson"], {"window": 4}, "window",
                     id="conformal-window"),
        pytest.param("conformal", ["--method", "poisson"], {"forest": {"n_trees": 5}}, "forest",
                     id="conformal-forest"),
        pytest.param("conformal", ["--method", "poisson"], {"alpha": 0.2}, "alpha",
                     id="conformal-alpha"),
        pytest.param("conformal", ["--method", "poisson"], {"calib_windw": 30}, "calib_windw",
                     id="conformal-calib_windw"),
        pytest.param("predict", [], {"rnage": [5, 8]}, "rnage", id="predict-rnage"),
        pytest.param("evaluate", [], {"intervals_files": [], "alpha": 0.2}, "alpha",
                     id="evaluate-alpha"),
        pytest.param(
            "report",
            [],
            lambda doc, tmp: {**metrics_file(lambda m: None)(doc, tmp), "outage_threshold": 0.0},
            "outage_threshold",
            id="report-outage_threshold",
        ),
    ],
)
def test_unknown_top_level_key_exits_2(tmp_path, capsys, command, flags, bad, key):
    config = bad_config(tmp_path, command, bad)
    capsys.readouterr()
    code = cli_main([command, "--config", config, "--out", str(tmp_path / "o")] + flags)
    err = capsys.readouterr().err.splitlines()
    assert code == 2 and len(err) == 1 and f"unknown key(s) ['{key}']" in err[0], err
    assert not (tmp_path / "o").exists()


def scenario_params(edit):
    """A scenario override whose ``params`` document ``edit`` has changed."""
    return scenario_edited(lambda doc: edit(doc["params"]))


# each edit of a params document, the exit code it gives, and its stderr
# text with {at} the document's path
PARAMS_EDITS = {
    "unknown": (lambda p: p.update(bogus=1), 2, "unknown key(s) ['{at}bogus']"),
    "unknown_response": (lambda p: p["response"].update(bogus=1), 2,
                         "unknown key(s) ['{at}response.bogus']"),
    "string_header": (lambda p: p.update(n_nodes=99, hidden=-7, n_vars="x", bogus=1), 2,
                      "{at}n_vars: expected int"),
    "float_header": (lambda p: p.update(hidden=3.0), 2, "{at}hidden: expected int"),
    "null_header": (lambda p: p.update(n_nodes=None), 2, "{at}n_nodes: expected int"),
    "wrong_n_nodes": (lambda p: p.update(n_nodes=99), 4, "{at}n_nodes is 99, the arrays give 5"),
    "wrong_hidden": (lambda p: p.update(hidden=-7), 4, "{at}hidden is -7, the arrays give"),
    "wrong_n_vars": (lambda p: p.update(n_vars=2), 4, "{at}n_vars is 2, the arrays give 1"),
    # the last row of an edge used to replace the earlier ones
    "repeated_coupling": (lambda p: p["coupling"].append([0, 1, 0.9]), 2,
                          "{at}coupling[4]: repeats the edge [0, 1]"),
}


# the params document, alone or as a scenario's ``params``, ignored unknown
# keys at every level and never read its header: a scenario with "n_nodes"
# 99 for five nodes ran, and its scenario.json wrote 5
@pytest.mark.parametrize("command", ["predict", "simulate", "pipeline"])
@pytest.mark.parametrize("case", sorted(PARAMS_EDITS))
def test_params_document_is_closed_and_its_header_checked(tmp_path, capsys, command, case):
    edit, code, message = PARAMS_EDITS[case]
    if command == "predict":
        bad, at = edited_params(edit), "params."
    else:
        bad, at = scenario_params(edit), "scenario.params."
    got, err = nonfinite_run(tmp_path, capsys, command, bad)
    assert got == code and len(err) == 1 and message.format(at=at) in err[0], err
    assert not list((tmp_path / "o").rglob("*.*"))


# every subcommand used to accept --method, --alpha and --seed and ignore
# those it does not read
@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("simulate", "--alpha", "0.5"),
        ("simulate", "--method", "bogus"),
        ("fit", "--alpha", "0.5"),
        ("predict", "--method", "graph"),
        ("evaluate", "--seed", "3"),
        ("report", "--method", "graph"),
        ("pipeline", "--alpha", "0.5"),
    ],
)
def test_unread_flag_exits_2(tmp_path, capsys, command, flag, value):
    extra = {
        "simulate": {"scenario": demo_scenario_doc()},
        "evaluate": {"intervals_files": []},
        "report": metrics_file(lambda m: None),
    }
    config = bad_config(tmp_path, command, extra.get(command, {}))
    capsys.readouterr()
    code = cli_main([command, "--config", config, "--out", str(tmp_path / "o"), flag, value])
    assert code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def nonfinite_run(tmp_path, capsys, command, bad):
    """Exit code and stderr lines of ``command`` on ``bad_config``."""
    config = bad_config(tmp_path, command, bad)
    capsys.readouterr()
    code = cli_main([command, "--config", config, "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err.splitlines()


# JSON reads NaN, Infinity and -Infinity; a NaN AR coefficient or noise scale
# used to crash simulate with a traceback (rng.poisson's "lam value too
# large"), and a NaN explosion cap to switch its guard off
@pytest.mark.parametrize("command", ["simulate", "pipeline"])
@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["weather"].update(ar_coefs=[math.nan]),
        lambda doc: doc["weather"].update(noise_scales=[math.nan]),
        lambda doc: doc["weather"].update(noise_scales=[math.inf]),
        lambda doc: doc.update(explosion_cap=math.nan),
        lambda doc: doc.update(explosion_cap=math.inf),
        pulse(amplitude=math.inf),
        pulse(amplitude=-math.inf),
    ],
    ids=["ar_nan", "noise_nan", "noise_inf", "cap_nan", "cap_inf", "amplitude_inf",
         "amplitude_-inf"],
)
def test_nonfinite_weather_spec_exits_2(tmp_path, capsys, command, edit):
    code, err = nonfinite_run(tmp_path, capsys, command, scenario_edited(edit))
    assert code == 2 and len(err) == 1 and "config error" in err[0], err


def huge_rates(doc):
    doc["explosion_cap"] = 1e300
    doc["params"]["scale"] = [1e30] * len(doc["params"]["scale"])


def negative_grid_rows(doc):
    doc["graph"] = {"kind": "grid", "n_nodes": 5, "grid_rows": -5}
    doc["params"]["coupling"] = []


# a five-step pulse of amplitude 1e308 overflows the cumulative weather to
# inf, which the demo's zero response weights turn into a NaN rate:
# rng.poisson raised ValueError out of cli_main; a pulse variable of -1 hit
# variable M - 1 and exited 0; rates above the Poisson sampler's limit
# (about 9.2e18) under a large cap raised "lam value too large", a
# weather tensor of 2^63 bytes or more "array is too big", and a negative
# grid_rows built a grid without edges and exited 0
@pytest.mark.parametrize("command", ["simulate", "pipeline"])
@pytest.mark.parametrize(
    "edit, error",
    [
        (pulse(amplitude=1e308, duration=5), "ExplosiveConfig"),
        (pulse(variable=-1), "DimensionMismatch"),
        (huge_rates, "ExplosiveConfig"),
        (lambda doc: doc.update(n_steps=2**62), "DimensionMismatch"),
        (negative_grid_rows, "DimensionMismatch"),
        (pulse(nodes=[]), "DimensionMismatch"),
        (pulse(nodes=[0, 0]), "DimensionMismatch"),
    ],
    ids=["nan_rate", "negative_variable", "poisson_limit", "huge_weather", "negative_grid_rows",
         "empty_pulse_nodes", "repeated_pulse_nodes"],
)
def test_invalid_scenario_exits_4(tmp_path, capsys, command, edit, error):
    code, err = nonfinite_run(tmp_path, capsys, command, scenario_edited(edit))
    assert code == 4 and len(err) == 1 and error in err[0], err
    assert not list((tmp_path / "o").rglob("*.csv"))


# the graph kind reads only its own keys: these ran on the star's (or the
# edge list's) graph, and scenario.json recorded the ignored value
@pytest.mark.parametrize(
    "graph, key",
    [
        ({"kind": "star", "n_nodes": 5, "edges": [[1, 2]]}, "edges"),
        ({"kind": "star", "n_nodes": 5, "grid_rows": 7}, "grid_rows"),
        ({"kind": "edges", "n_nodes": 5, "edges": [[0, j] for j in range(1, 5)],
          "grid_rows": 9}, "grid_rows"),
    ],
    ids=["star_edges", "star_grid_rows", "edges_grid_rows"],
)
def test_graph_key_the_kind_does_not_read_exits_2(tmp_path, capsys, graph, key):
    code, err = nonfinite_run(tmp_path, capsys, "simulate",
                              scenario_edited(lambda doc: doc.update(graph=graph)))
    assert code == 2 and len(err) == 1 and f"scenario.graph.{key}:" in err[0], err
    assert not (tmp_path / "o").exists()


# a NaN threshold used to make every node ineligible: pipeline wrote a
# header-only winner table and exited 0
@pytest.mark.parametrize(
    "command, bad",
    [
        ("pipeline", {"evaluate": {"outage_threshold": math.nan}}),
        ("pipeline", {"evaluate": {"outage_threshold": math.inf}}),
        ("report", lambda doc, tmp: {**metrics_file(lambda m: None)(doc, tmp),
                                     "evaluate": {"outage_threshold": math.nan}}),
    ],
)
def test_nonfinite_outage_threshold_exits_2(tmp_path, capsys, command, bad):
    code, err = nonfinite_run(tmp_path, capsys, command, bad)
    assert code == 2 and len(err) == 1 and "config error" in err[0], err
    assert not (tmp_path / "o" / "winner.csv").exists()


# an infinite learning rate used to roll back every epoch and return the
# initial parameters with exit 0
@pytest.mark.parametrize(
    "command, bad",
    [
        ("fit", {"fit": {"epochs": 1, "learning_rate": math.inf}}),
        ("pipeline", {"fit": dict(pipeline_doc()["fit"], learning_rate=math.inf)}),
    ],
)
def test_infinite_learning_rate_exits_2(tmp_path, capsys, command, bad):
    code, err = nonfinite_run(tmp_path, capsys, command, bad)
    assert code == 2 and len(err) == 1 and "config error" in err[0], err
    assert not (tmp_path / "o" / "model" / "params.json").exists()
    assert not (tmp_path / "o" / "params.json").exists()


@pytest.mark.parametrize(
    "edit, threshold, winner",
    [
        (lambda m: m["methods"].pop("graph"), 0.0, None),
        (lambda m: None, 500.0, ["method,win_fraction,wins,n_eligible"]),
    ],
    ids=["one_method", "no_eligible_node"],
)
def test_report_writes_winner_as_pipeline_does(tmp_path, edit, threshold, winner):
    # report used to exit 4 in both cases, where pipeline writes no
    # winner.csv for one method and the header alone when no node is eligible
    doc = {**metrics_file(edit)({}, tmp_path), "evaluate": {"outage_threshold": threshold}}
    config = write_json(tmp_path / "report.json", doc)
    assert cli_main(["report", "--config", config, "--out", str(tmp_path / "r")]) == 0
    assert (tmp_path / "r" / "violin.csv").exists()
    path = tmp_path / "r" / "winner.csv"
    assert (path.read_text().splitlines() if path.exists() else None) == winner


@pytest.mark.parametrize("alpha", [1e-300, 5e-324])
def test_tiny_alpha_gives_infinite_upper_bounds(tmp_path, alpha):
    # 1 - alpha / 2 rounds to 1, where the Poisson quantile is inf: the
    # poisson upper bound used to be nan, and the run exited 4
    doc = pipeline_doc(seed=1)
    doc["conformal"].update(methods=["poisson", "vanilla"], alpha=alpha)
    config = write_json(tmp_path / "pipe.json", doc)
    assert cli_main(["pipeline", "--config", config, "--out", str(tmp_path / "o")]) == 0
    metrics = json.loads((tmp_path / "o" / "metrics.json").read_text())
    for method in ("poisson", "vanilla"):
        series = read_interval_series(tmp_path / "o" / "intervals" / f"intervals_{method}.csv")
        assert np.all(series.upper == math.inf)
        assert metrics["methods"][method]["n_infinite_width"] == len(series) == 5 * 60
    poisson = read_interval_series(tmp_path / "o" / "intervals" / "intervals_poisson.csv")
    assert np.all(np.isfinite(poisson.lower))


# -------------------------------------------------------------- pipeline


def test_pipeline_runs_and_is_reproducible(tmp_path):
    doc = pipeline_doc(seed=3)
    result_a = run_pipeline(doc, tmp_path / "a")
    result_b = run_pipeline(doc, tmp_path / "b")
    csvs_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.csv"))
    csvs_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.csv"))
    assert csvs_a == csvs_b and csvs_a
    for rel in csvs_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel
    assert set(result_a.reports) == {"poisson", "temporal", "graph"}
    assert (tmp_path / "a" / "metrics.json").exists()


def test_pipeline_cli_smoke(tmp_path):
    config = write_json(tmp_path / "pipe.json", pipeline_doc(seed=5))
    assert cli_main(["pipeline", "--config", config, "--out", str(tmp_path / "out")]) == 0
    series = read_interval_series(tmp_path / "out" / "intervals" / "intervals_graph.csv")
    assert series.method == "graph"
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["alpha"] == 0.1


# the data files are written beside the stages: by a forked writer where
# the process may use two CPUs, otherwise here after the last stage


def writer_cpus(monkeypatch, cpus):
    """Let the pipeline see ``cpus`` usable CPUs, so it forks its data writer or not."""
    monkeypatch.setattr(conformal, "_worker_count", lambda n_tasks: min(cpus, n_tasks))


def record_writer_pid(monkeypatch, path):
    """Have ``write_data`` note the id of the process it runs in, in ``path``."""
    write_data = pipeline.write_data

    def noting(*args):
        write_data(*args)
        path.write_text(str(os.getpid()))

    monkeypatch.setattr(pipeline, "write_data", noting)


def test_forked_and_in_process_writers_write_the_same_bytes(tmp_path, monkeypatch):
    doc = pipeline_doc(seed=3)
    doc["conformal"]["methods"] = ["poisson", "vanilla", "temporal", "graph"]
    outputs, pids = [], []
    for cpus in (2, 1):
        writer_cpus(monkeypatch, cpus)
        record_writer_pid(monkeypatch, tmp_path / "pid")
        run_pipeline(doc, tmp_path / f"cpus{cpus}")
        outputs.append(digests(tmp_path / f"cpus{cpus}"))
        pids.append(int((tmp_path / "pid").read_text()))
        assert multiprocessing.active_children() == []
    assert pids[0] != os.getpid() and pids[1] == os.getpid()
    assert len(outputs[0]) == 13 and outputs[0] == outputs[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cpus1", "cpus2", "pid"]


@pytest.mark.parametrize("cpus", [2, 1])
@pytest.mark.parametrize(
    "bad, exit_code, error",
    [
        ({"fit": {"hidden": 2**58}}, 3, "out of memory"),
        ({"fit": {"learning_rate": 1e300, "epochs": 62}}, 4, "NonFiniteLoss"),
    ],
    ids=["out_of_memory", "nonfinite_loss"],
)
def test_a_stage_failure_leaves_no_output_and_no_staging(tmp_path, capsys, monkeypatch,
                                                         bad, exit_code, error, cpus):
    # the writer starts right after simulate, so it has written or is
    # writing when the stage fails; the stage's error is the one reported
    writer_cpus(monkeypatch, cpus)
    code, err = nonfinite_run(tmp_path, capsys, "pipeline", bad)
    assert code == exit_code and len(err) == 1 and error in err[0], err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [2, 1])
@pytest.mark.parametrize(
    "fit, exit_code, error",
    [({}, 3, "i/o error"), ({"learning_rate": 1e300, "epochs": 62}, 4, "NonFiniteLoss")],
    ids=["stages_pass", "stage_fails"],
)
def test_unwritable_out_exits_3_and_leaves_no_staging(tmp_path, capsys, monkeypatch,
                                                      fit, exit_code, error, cpus):
    # the writer fails at once; a stage that fails too is the error reported
    writer_cpus(monkeypatch, cpus)
    (tmp_path / "file").write_text("")
    doc = pipeline_doc(seed=2)
    doc["fit"].update(fit)
    config = write_json(tmp_path / "pipe.json", doc)
    capsys.readouterr()
    out = tmp_path / "file" / "o"
    assert cli_main(["pipeline", "--config", config, "--out", str(out)]) == exit_code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and error in err[0], err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "pipe.json"]
    assert (tmp_path / "file").read_text() == ""


def test_a_spied_write_step_runs_in_this_process(tmp_path, monkeypatch):
    # a profiler or a spy that wraps write_panel records calls in the caller
    # only, so the data files are written here
    writer_cpus(monkeypatch, 2)
    calls = []
    write_panel = pipeline.write_panel

    def spy(*args):
        calls.append(os.getpid())
        return write_panel(*args)

    monkeypatch.setattr(pipeline, "write_panel", spy)
    run_pipeline(pipeline_doc(seed=4), tmp_path / "o")
    assert calls == [os.getpid()]
    assert sorted(p.name for p in (tmp_path / "o" / "data").iterdir()) == [
        "counts.csv", "graph.csv", "meta.json", "scenario.json", "weather.csv"
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["o"]


def test_coverage_metrics_recomputed_from_csv_bit_exact(tmp_path):
    from graphcp.evaluate import coverage_metrics

    result = run_pipeline(pipeline_doc(seed=7), tmp_path / "run")
    for method, series in result.series.items():
        in_memory = coverage_metrics(series)
        from_csv = coverage_metrics(
            read_interval_series(tmp_path / "run" / "intervals" / f"intervals_{method}.csv")
        )
        assert in_memory.coverage == from_csv.coverage
        assert in_memory.nonzero_coverage == from_csv.nonzero_coverage
        assert in_memory.mean_width == from_csv.mean_width
        assert in_memory.per_node == from_csv.per_node


# -------------------------------------------------------------- mutated configs

# JSON writes the non-finite floats as NaN, Infinity and -Infinity, which
# graphcp's reader accepts; no mutant is an integer that could size an
# allocation or a loop
MUTANTS = ["x", -1, 1.5, [], {}, None, True, math.nan, math.inf, -math.inf, 1e308, -0.0, 5e-324]
# well-typed scenario values that the demo's star graph or its pulse must
# reject: an edge list and grid rows, which a star does not read, and a
# pulse that names one node twice ([] is in MUTANTS)
SCENARIO_MUTANTS = {"edges": [[[1, 2]]], "grid_rows": [7], "nodes": [[0, 0]]}


@pytest.fixture(scope="module")
def valid_configs(tmp_path_factory):
    """One valid, quick config per subcommand, with the input files they name."""
    tmp = tmp_path_factory.mktemp("valid")
    inputs = fitted_model(tmp)
    # the params document itself, which the test writes out after mutating it
    params = json.loads(Path(inputs["params_file"]).read_text())
    data = {k: v for k, v in inputs.items() if k != "params_file"}
    split = {"split": [0.4, 0.3, 0.3], "seed": 2}
    conformal = {
        **inputs,
        **split,
        "conformal": {
            "methods": ["poisson", "vanilla"],
            "alpha": 0.1,
            "window": 4,
            "calib_window": 30,
            "retrain_stride": 20,
            "forest": {"n_trees": 2, "max_depth": 3, "min_leaf": 5, "mtry": 1, "bootstrap": True},
        },
    }
    config = write_json(tmp / "conf.json", conformal)
    assert cli_main(["conformal", "--config", config, "--out", str(tmp / "iv")]) == 0
    files = [str(tmp / "iv" / f"intervals_{m}.csv") for m in ("poisson", "vanilla")]
    evaluate = {"intervals_files": files, "conformal": {"alpha": 0.1}}
    config = write_json(tmp / "eval.json", evaluate)
    assert cli_main(["evaluate", "--config", config, "--out", str(tmp / "m")]) == 0
    conformal["conformal"]["methods"] = ["vanilla"]
    pipeline = pipeline_doc(seed=2)
    pipeline["fit"]["epochs"] = 1
    pipeline["conformal"]["methods"] = ["poisson", "vanilla"]
    pipeline["conformal"]["forest"] = {"n_trees": 2, "max_depth": 3, "mtry": 1, "bootstrap": False}
    return {
        # the scenario is mutated here only: pipeline reads it through the
        # same read_scenario
        "simulate": {"seed": 2, **scenario_edited(lambda doc: None)},
        "fit": {
            **data,
            **split,
            "fit": {"hidden": 2, "window": 6, "epochs": 1, "learning_rate": 0.01,
                    "batch_len": 30, "momentum": 0.5},
        },
        "predict": {**inputs, **split, "range": [5, 8], "params_file": params},
        "conformal": {**conformal, "params_file": params},
        "evaluate": evaluate,
        "report": {"metrics_file": str(tmp / "m" / "metrics.json"),
                   "evaluate": {"outage_threshold": 0.0}},
        "pipeline": pipeline,
    }


def sections(doc, skip=(), path=()):
    """The path of every JSON object in ``doc``, in lists too, except under
    the keys in ``skip``."""
    yield path
    for key, value in doc.items():
        if isinstance(value, dict) and key not in skip:
            yield from sections(value, skip, path + (key,))
        for i, item in enumerate(value if isinstance(value, list) else []):
            if isinstance(item, dict):
                yield from sections(item, skip, path + (key, i))


# the cases number about 1,970, so hypothesis runs out of new ones and stops
# after trying each
@settings(
    max_examples=2000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_config_exits_cleanly(valid_configs, tmp_path_factory, capsys, data):
    # swap one top-level, section, scenario or params value for a
    # wrong-typed or out-of-range one, or add an unknown key; every outcome
    # is a documented exit code
    command = data.draw(st.sampled_from(sorted(valid_configs)))
    doc = copy.deepcopy(valid_configs[command])
    skip = ("scenario",) if command == "pipeline" else ()
    path = data.draw(st.sampled_from(list(sections(doc, skip))))
    section = doc
    for key in path:
        section = section[key]
    key = data.draw(st.sampled_from(sorted(section) + ["unknown_key"]))
    # an emptied section falls back to every default, like dropped keys
    # (200 epochs, or a forest refit at every step), so a section stays filled
    mutants = [m for m in MUTANTS if not (m == {} and isinstance(section.get(key), dict))]
    if path[:1] == ("scenario",):
        mutants += SCENARIO_MUTANTS.get(key, [])
    section[key] = data.draw(st.sampled_from(mutants))
    tmp = tmp_path_factory.mktemp("mutant")
    if isinstance(doc.get("params_file"), dict):
        doc["params_file"] = write_json(tmp / "params.json", doc["params_file"])
    config = write_json(tmp / "config.json", doc)
    capsys.readouterr()
    code = cli_main([command, "--config", config, "--out", str(tmp / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (command, path, key, section.get(key))
    assert "Traceback" not in err
    assert len(err.splitlines()) == (code != 0), (command, path, key, section.get(key), err)
    assert not written_nan(tmp / "out"), (command, path, key, section.get(key))


def written_nan(out: Path) -> list:
    """The CSV and JSON files under ``out`` that hold a NaN."""
    return [
        file for file in out.rglob("*")
        if file.suffix in (".csv", ".json") and re.search(r"\bnan\b", file.read_text(), re.I)
    ]


# -------------------------------------------------------------- mutated data files

# the input files of each subcommand that reads data, by config key
DATA_FILES = [
    (command, key)
    for command in ("predict", "conformal")
    for key in ("weather_file", "counts_file", "graph_file")
] + [("evaluate", "intervals_files"), ("report", "metrics_file")]
# the new text of a mutated cell; a metrics.json value becomes the number
# Python reads from it, or else the string
CELLS = ["nan", "inf", "-inf", "-1", "1.5", "x", "", "1e308", "-0.0", "5e-324"]


def json_value(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def leaves(doc, path=()):
    """The path of every value in the JSON object ``doc`` that is not an object."""
    for key, value in doc.items():
        yield from leaves(value, path + (key,)) if isinstance(value, dict) else [path + (key,)]


def places(source: Path) -> list:
    """The JSON value paths of a JSON ``source``, else its CSV column indices."""
    if source.suffix == ".json":
        return list(leaves(json.loads(source.read_text())))
    return list(range(len(source.read_text().splitlines()[0].split(","))))


def mutated_rows(source: Path) -> list:
    """An intervals file with its first data row repeated, and with that row
    moved to node -1, time -1: neither has one row per cell."""
    header, first, *rest = source.read_text().splitlines()
    method, _, _, *values = first.split(",")
    negative = ",".join([method, "-1", "-1", *values])
    return ["\n".join(lines) + "\n" for lines in ([header, first, *rest, first],
                                                   [header, negative, *rest])]


def mutated_cell(source: Path, place, text: str, rng) -> str:
    """``source`` with the JSON value at ``place``, or the column ``place`` of
    a data row drawn from ``rng``, set to ``text``."""
    if source.suffix == ".json":
        doc = json.loads(source.read_text())
        *path, key = place
        section = doc
        for part in path:
            section = section[part]
        section[key] = json_value(text)
        return json.dumps(doc)
    lines = source.read_text().splitlines()
    row = rng.randrange(1, len(lines))
    cells = lines[row].split(",")
    cells[place] = text
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command, key", DATA_FILES)
def test_mutated_data_file_exits_cleanly(valid_configs, tmp_path, capsys, command, key):
    # set one cell of a data, intervals or metrics file, in every column or
    # at every JSON value in turn, to a NaN, an infinity, an out-of-range
    # number or a non-number; a NaN truth used to be written into metrics.json.
    # An intervals file also gets a repeated row and a negative id, which
    # used to evaluate with exit 0 and must exit 4
    doc = copy.deepcopy(valid_configs[command])
    if isinstance(doc.get("params_file"), dict):
        doc["params_file"] = write_json(tmp_path / "params.json", doc["params_file"])
    files = doc[key] if key == "intervals_files" else [doc[key]]
    source = Path(files[0])
    rng = random.Random(key)
    cases = [(mutated_cell(source, place, text, rng), (place, text), (0, 2, 3, 4))
             for place, text in itertools.product(places(source), CELLS)]
    if key == "intervals_files":
        cases += [(text, ("rows", i), (4,)) for i, text in enumerate(mutated_rows(source))]
    for n, (text, mutant, codes) in enumerate(cases):
        case = tmp_path / str(n)
        case.mkdir()
        (case / source.name).write_text(text)
        mutated = [str(case / source.name)] + files[1:]
        config = write_json(case / "config.json",
                            {**doc, key: mutated if key == "intervals_files" else mutated[0]})
        capsys.readouterr()
        with time_limit(10):
            code = cli_main([command, "--config", config, "--out", str(case / "out")])
        err = capsys.readouterr().err
        assert code in codes, (command, key, mutant)
        assert len(err.splitlines()) == (code != 0), (command, key, mutant, err)
        assert not written_nan(case / "out"), (command, key, mutant)
