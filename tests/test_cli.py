import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphcp.cli import cli_main
from graphcp.conformal import read_interval_series
from graphcp.model import ModelParams, ResponseWeights, load_params
from graphcp.pipeline import run_pipeline
from graphcp.synth import GraphSpec, ScenarioConfig, WeatherSpec


def demo_scenario_doc(seed=0, k=5, t_total=180):
    params = ModelParams(
        coupling={(0, j): 0.4 for j in range(1, k)},
        decay=np.full(k, 0.9),
        scale=np.full(k, 1.2),
        weather_decay=np.array([0.3]),
        response=ResponseWeights.zeros(3, 1),
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
    (tmp_path / "graph.csv").write_text("src,dst,weight\n0,1,1.0\n")
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
    config = write_json(tmp_path / "sim.json", demo_scenario_doc())
    assert cli_main(["simulate", "--config", config, "--out", str(data_dir)]) == 0
    fit_doc = {
        "graph_file": str(data_dir / "graph.csv"),
        "weather_file": str(data_dir / "weather.csv"),
        "counts_file": str(data_dir / "counts.csv"),
        "optimizer": {"epochs": 1},
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
    data_dir = tmp_path / "data"
    sim_config = write_json(tmp_path / "sim.json", demo_scenario_doc(seed=4))
    assert cli_main(["simulate", "--config", sim_config, "--out", str(data_dir)]) == 0
    meta = json.loads((data_dir / "meta.json").read_text())
    assert meta["n_nodes"] == 5

    io_doc = {
        "graph_file": str(data_dir / "graph.csv"),
        "weather_file": str(data_dir / "weather.csv"),
        "counts_file": str(data_dir / "counts.csv"),
        "split": [1 / 3, 1 / 3, 1 / 3],
    }
    fit_config = write_json(
        tmp_path / "fit.json",
        dict(io_doc, init={"hidden": 3, "window": 6},
             optimizer={"epochs": 3, "learning_rate": 0.02, "batch_len": 30}),
    )
    assert cli_main(["fit", "--config", fit_config, "--out", str(tmp_path / "model")]) == 0
    params = load_params(tmp_path / "model" / "params.json")
    assert params.n_nodes == 5

    conf_doc = dict(
        io_doc,
        params_file=str(tmp_path / "model" / "params.json"),
        window=4,
        retrain_stride=30,
        forest={"n_trees": 5, "min_leaf": 5},
    )
    conf_config = write_json(tmp_path / "conf.json", conf_doc)
    for method in ("poisson", "graph"):
        code = cli_main(
            ["conformal", "--config", conf_config, "--out", str(tmp_path / "iv"),
             "--method", method, "--seed", "9"]
        )
        assert code == 0
    series = read_interval_series(tmp_path / "iv" / "intervals_graph.csv")
    assert len(series) == 5 * 60

    eval_config = write_json(
        tmp_path / "eval.json",
        {
            "intervals_files": [
                str(tmp_path / "iv" / "intervals_poisson.csv"),
                str(tmp_path / "iv" / "intervals_graph.csv"),
            ],
            "alpha": 0.1,
        },
    )
    assert cli_main(["evaluate", "--config", eval_config, "--out", str(tmp_path / "m")]) == 0
    metrics = json.loads((tmp_path / "m" / "metrics.json").read_text())
    assert set(metrics["methods"]) == {"poisson", "graph"}

    report_config = write_json(
        tmp_path / "report.json",
        {"metrics_file": str(tmp_path / "m" / "metrics.json"), "outage_threshold": 0.0},
    )
    assert cli_main(["report", "--config", report_config, "--out", str(tmp_path / "r")]) == 0
    winner_lines = (tmp_path / "r" / "winner.csv").read_text().splitlines()
    assert winner_lines[0] == "method,win_fraction,wins,n_eligible"
    assert len(winner_lines) == 3
    violin_lines = (tmp_path / "r" / "violin.csv").read_text().splitlines()
    assert len(violin_lines) == 1 + 2 * 5


def fitted_model(tmp_path):
    """Simulate demo data and fit one epoch; returns the predict config's inputs."""
    data_dir = tmp_path / "data"
    sim_config = write_json(tmp_path / "sim.json", demo_scenario_doc(seed=6))
    cli_main(["simulate", "--config", sim_config, "--out", str(data_dir)])
    inputs = {
        "graph_file": str(data_dir / "graph.csv"),
        "weather_file": str(data_dir / "weather.csv"),
        "counts_file": str(data_dir / "counts.csv"),
    }
    fit_config = write_json(tmp_path / "fit.json", {**inputs, "optimizer": {"epochs": 1}})
    cli_main(["fit", "--config", fit_config, "--out", str(tmp_path / "model")])
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


def edited_run(tmp_path, capsys, command, key, value, method=None):
    """Exit code and stderr of ``command`` on the fitted params with ``key[0] = value``."""
    inputs = fitted_model(tmp_path)
    params = json.loads(Path(inputs["params_file"]).read_text())
    params[key][0] = value
    doc = {**inputs, "params_file": write_json(tmp_path / "edited.json", params)}
    argv = [command, "--config", write_json(tmp_path / "run.json", doc)]
    argv += ["--out", str(tmp_path / "out")] + (["--method", method] if method else [])
    capsys.readouterr()
    code = cli_main(argv)
    return code, capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_predict_nonfinite_rate_exits_4(tmp_path, capsys):
    # decay 1e308 overflows the excitation recursion: inf * exp(-1e308) = nan;
    # numpy's overflow warnings used to print before the one error line
    code, err = edited_run(tmp_path, capsys, "predict", "decay", 1e308)
    assert code == 4
    assert "ValidationError" in err and len(err.splitlines()) == 1, err
    assert not (tmp_path / "out" / "predictions.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method", ["poisson", "vanilla", "temporal", "graph"])
def test_conformal_nonfinite_bounds_exit_4(tmp_path, capsys, method):
    # scale 1e308 keeps the rates finite, but Poisson quantiles of such a
    # rate are nan, vanilla's point + half-width overflows to inf, and the
    # forests' residual targets are too large to score splits on
    code, err = edited_run(tmp_path, capsys, "conformal", "scale", 1e308, method)
    assert code == 4
    error = "DegenerateData" if method in ("temporal", "graph") else "ValidationError"
    assert error in err and len(err.splitlines()) == 1, err
    assert not (tmp_path / "out" / f"intervals_{method}.csv").exists()


def test_fit_zero_batch_len_exits_2(tmp_path):
    inputs = fitted_model(tmp_path)
    del inputs["params_file"]
    config = write_json(tmp_path / "fit0.json", {**inputs, "optimizer": {"batch_len": 0}})
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
        ("fit", {"optimizer": {"epochs": "ten"}}),
        ("conformal", {"method": "poisson", "window": "x"}),
        ("predict", {"range": ["five", 8]}),
        ("pipeline", {"fit": {"epochs": "ten"}}),
        ("conformal", {"method": "poisson", "calib_window": "x"}),
        ("conformal", {"method": "poisson", "retrain_stride": "x"}),
        ("conformal", {"method": "poisson", "forest": {"max_depth": "x"}}),
        ("conformal", {"method": "poisson", "forest": {"mtry": "x"}}),
        ("conformal", {"method": "poisson", "forest": {"bootstrap": "false"}}),
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
        ("evaluate", {"intervals_files": [], "alpha": 1.5}),
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


@pytest.mark.parametrize(
    "command, bad",
    [
        ("fit", {"optimizer": 5}),
        ("fit", {"init": [1]}),
        ("simulate", {"scenario": scenario_without("n_steps")}),
        ("pipeline", {"fit": 5}),
        ("pipeline", {"conformal": [1]}),
        ("fit", {"optimizer": {"epoch": 1}}),
        ("fit", {"init": {"hiden": 3}}),
        ("conformal", {"method": "poisson", "forest": {"n_tree": 5}}),
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
    + [(command, bad) for command in ("simulate", "pipeline") for bad in BAD_GRAPHS],
)
def test_malformed_config_section_exits_2(tmp_path, capsys, command, bad):
    # a section that is not a JSON object, a scenario, params or metrics
    # document without a required key, an unknown key in a stage section, or
    # a graph value that is not an integer used to escape cli_main as
    # AttributeError, TypeError, ValueError or KeyError, or to be ignored
    config = bad_config(tmp_path, command, bad)
    capsys.readouterr()
    assert cli_main([command, "--config", config, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


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

MUTANTS = ["x", -1, 1.5, [], {}, None, True]


@pytest.fixture(scope="module")
def valid_configs(tmp_path_factory):
    """One valid, quick config per subcommand, with the input files they name."""
    tmp = tmp_path_factory.mktemp("valid")
    inputs = fitted_model(tmp)
    data = {k: v for k, v in inputs.items() if k != "params_file"}
    split = {"split": [0.4, 0.3, 0.3], "seed": 2}
    conformal = {
        **inputs,
        **split,
        "method": "vanilla",
        "alpha": 0.1,
        "window": 4,
        "calib_window": 30,
        "retrain_stride": 20,
        "forest": {"n_trees": 2, "max_depth": 3, "min_leaf": 5, "mtry": 1, "bootstrap": True},
    }
    files = []
    for method in ("poisson", "vanilla"):
        out = tmp / "iv"
        config = write_json(tmp / "conf.json", dict(conformal, method=method))
        assert cli_main(["conformal", "--config", config, "--out", str(out)]) == 0
        files.append(str(out / f"intervals_{method}.csv"))
    evaluate = {"intervals_files": files, "alpha": 0.1}
    config = write_json(tmp / "eval.json", evaluate)
    assert cli_main(["evaluate", "--config", config, "--out", str(tmp / "m")]) == 0
    pipeline = pipeline_doc(seed=2)
    pipeline["fit"]["epochs"] = 1
    pipeline["conformal"]["methods"] = ["poisson", "vanilla"]
    pipeline["conformal"]["forest"] = {"n_trees": 2, "max_depth": 3, "mtry": 1, "bootstrap": False}
    return {
        "simulate": {"scenario": demo_scenario_doc()},
        "fit": {
            **data,
            **split,
            "init": {"hidden": 2, "window": 6},
            "optimizer": {"epochs": 1, "learning_rate": 0.01, "batch_len": 30, "momentum": 0.5},
        },
        "predict": {**inputs, **split, "range": [5, 8]},
        "conformal": conformal,
        "evaluate": evaluate,
        "report": {"metrics_file": str(tmp / "m" / "metrics.json"), "outage_threshold": 0.0},
        "pipeline": pipeline,
    }


def sections(doc, path=()):
    """The path of every JSON object in ``doc`` except the scenario document."""
    yield path
    for key, value in doc.items():
        if isinstance(value, dict) and key != "scenario":
            yield from sections(value, path + (key,))


# the cases number about 540, so hypothesis runs out of new ones and stops
# after trying each (about 5 s)
@settings(
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_config_exits_cleanly(valid_configs, tmp_path_factory, capsys, data):
    # swap one top-level or section value for a wrong-typed or out-of-range
    # one, or add an unknown key; every outcome is a documented exit code
    command = data.draw(st.sampled_from(sorted(valid_configs)))
    doc = copy.deepcopy(valid_configs[command])
    path = data.draw(st.sampled_from(list(sections(doc))))
    section = doc
    for key in path:
        section = section[key]
    key = data.draw(st.sampled_from(sorted(section) + ["unknown_key"]))
    # an emptied section falls back to every default, like dropped keys
    # (200 epochs, or a forest refit at every step), so a section stays filled
    mutants = [m for m in MUTANTS if not (m == {} and isinstance(section.get(key), dict))]
    section[key] = data.draw(st.sampled_from(mutants))
    tmp = tmp_path_factory.mktemp("mutant")
    config = write_json(tmp / "config.json", doc)
    capsys.readouterr()
    code = cli_main([command, "--config", config, "--out", str(tmp / "out")])
    assert code in (0, 2, 3, 4), (command, path, key, section.get(key))
    assert "Traceback" not in capsys.readouterr().err
