import json

import numpy as np

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


def test_fit_zero_batch_len_exits_2(tmp_path):
    inputs = fitted_model(tmp_path)
    del inputs["params_file"]
    config = write_json(tmp_path / "fit0.json", {**inputs, "optimizer": {"batch_len": 0}})
    assert cli_main(["fit", "--config", config, "--out", str(tmp_path / "m0")]) == 2


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
