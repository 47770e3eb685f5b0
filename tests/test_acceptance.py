"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The storm benchmark and
recovery experiments dominate the runtime (several minutes each).
"""

import time

import numpy as np
import pytest

import graphcp as g
from graphcp.experiments import run_recovery, run_storm_benchmark
from graphcp.model import ParamPacker, likelihood_gradient
from tests.support import NoiseSpec, iid_mean_function, simulate_iid, zero_response
from tests.test_model import brute_excitation, fd_gradient, rand_instance


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_c1_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(2024)
    graph, panel, _ = rand_instance(0, k=4, t_total=20, m_total=2, hidden=3)
    packer = ParamPacker(graph, 2, 3)
    worst = 0.0
    for point in range(20):
        _, _, params = rand_instance(point + 1, k=4, t_total=20, m_total=2, hidden=3)
        ana = likelihood_gradient(panel, graph, params, packer=packer)
        fd = fd_gradient(panel, graph, params, packer, step=1e-5)
        rel = np.linalg.norm(ana - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    report(1, "gradient-vs-finite-differences", ok,
           f"worst rel err {worst:.3e} <= 1e-4, {elapsed:.1f}s < 10s")


def test_c2_excitation_recursion_vs_double_sum():
    start = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        k = int(rng.integers(1, 6))
        t_total = int(rng.integers(10, 101))
        counts = rng.poisson(2.0, size=(k, t_total))
        decay = rng.uniform(0.05, 2.5, size=k)
        fast = g.excitation(counts, decay)
        slow = brute_excitation(counts, decay)
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(2, "excitation-recursion-vs-brute-force", ok,
           f"max abs diff {worst:.2e} <= 1e-10, {elapsed:.1f}s < 5s")


def test_c3_parameter_recovery():
    start = time.time()
    decay_errs, coupling_errs = [], []
    for seed in (11, 22, 33):
        result = run_recovery(seed)
        decay_errs.append(float(result.decay_rel_err.max()))
        coupling_errs.append(float(result.coupling_rel_err.max()))
    mean_decay = float(np.mean(decay_errs))
    mean_coupling = float(np.mean(coupling_errs))
    elapsed = time.time() - start
    ok = mean_decay <= 0.20 and mean_coupling <= 0.30 and elapsed < 300.0
    report(3, "parameter-recovery", ok,
           f"decay rel err {mean_decay:.3f} <= 0.20, coupling rel err "
           f"{mean_coupling:.3f} <= 0.30 (3-seed means of per-seed maxima), "
           f"{elapsed:.0f}s < 300s")


def test_c4_vanilla_cp_marginal_validity():
    start = time.time()
    coverages = []
    for seed in (0, 2, 3):
        x, y = simulate_iid(6000, NoiseSpec("gaussian", 1.0), seed=seed)
        resid = y - iid_mean_function(x)
        lower, upper = g.vanilla_cp(resid[:1000], 0.1, 0.0)
        coverages.append(float(np.mean((resid[1000:] >= lower) & (resid[1000:] <= upper))))
    elapsed = time.time() - start
    ok = all(0.88 <= c <= 0.92 for c in coverages) and elapsed < 30.0
    report(4, "vanilla-cp-marginal-validity", ok,
           f"coverages {[round(c, 4) for c in coverages]} all in [0.88, 0.92], "
           f"{elapsed:.1f}s < 30s")


def test_c5_qrf_sort_oracle_equivalence():
    from tests.test_qrf import empirical_lower_quantile

    rng = np.random.default_rng(99)
    mismatches = 0
    for trial in range(50):
        n = int(rng.integers(1, 120))
        targets = rng.normal(0.0, 4.0, size=n)
        forest = g.fit_forest(
            rng.normal(size=(n, 2)),
            targets,
            g.ForestConfig(n_trees=1, max_depth=0, bootstrap=False, seed=trial),
        )
        query = rng.normal(size=(1, 2))
        for p in (0.05, 0.25, 0.5, 0.75, 0.95):
            if forest.quantile(query, [p])[0, 0] != empirical_lower_quantile(targets, p):
                mismatches += 1
    report(5, "qrf-depth0-sort-oracle", mismatches == 0,
           f"{mismatches} mismatches over 50 target sets x 5 levels")


def test_c6_storm_benchmark_qualitative_ordering():
    start = time.time()
    seeds = (101, 202, 303, 404, 505)
    results = [run_storm_benchmark(seed) for seed in seeds]
    cov = {
        m: float(np.mean([r.reports[m].coverage for r in results]))
        for m in ("poisson", "temporal", "graph")
    }
    width = {
        m: float(np.mean([r.reports[m].mean_width for r in results]))
        for m in ("poisson", "temporal", "graph")
    }
    elapsed = time.time() - start
    ok = (
        cov["graph"] >= cov["temporal"] >= cov["poisson"]
        and cov["graph"] >= 0.87
        and width["poisson"] <= width["temporal"] <= width["graph"]
        and elapsed < 900.0
    )
    report(6, "storm-benchmark-ordering", ok,
           f"coverage p/t/g = {cov['poisson']:.3f}/{cov['temporal']:.3f}/"
           f"{cov['graph']:.3f}, width = {width['poisson']:.2f}/"
           f"{width['temporal']:.2f}/{width['graph']:.2f}, {elapsed:.0f}s < 900s")


def _edgeless_pipeline_doc(seed):
    k = 4
    params = g.ModelParams(
        coupling={},
        decay=np.full(k, 0.8),
        scale=np.full(k, 1.5),
        weather_decay=np.array([0.3]),
        response=zero_response(3, 1),
        window=6,
    )
    scenario = g.ScenarioConfig(
        graph=g.GraphSpec(kind="edges", n_nodes=k),
        n_steps=180,
        params=params,
        weather=g.WeatherSpec(ar_coefs=(0.5,), noise_scales=(1.0,)),
        seed=seed,
    )
    return {
        "seed": seed,
        "scenario": scenario.to_dict(),
        "split": [1 / 3, 1 / 3, 1 / 3],
        "fit": {"hidden": 3, "window": 6, "epochs": 4, "learning_rate": 0.02,
                "batch_len": 30, "momentum": 0.9},
        "conformal": {
            "methods": ["temporal", "graph"],
            "alpha": 0.1,
            "window": 4,
            "retrain_stride": 15,
            "forest": {"n_trees": 6, "min_leaf": 5},
        },
        "evaluate": {"outage_threshold": 0.0},
    }


def test_c7_edgeless_graph_equals_temporal(tmp_path):
    result = g.run_pipeline(_edgeless_pipeline_doc(17), tmp_path / "run")
    temporal = result.series["temporal"]
    graph_series = result.series["graph"]
    same = (
        np.array_equal(temporal.point, graph_series.point)
        and np.array_equal(temporal.lower, graph_series.lower)
        and np.array_equal(temporal.upper, graph_series.upper)
        and np.array_equal(temporal.y_true, graph_series.y_true)
    )
    # the emitted CSVs agree byte for byte once the method tag is dropped
    strip = lambda name: [
        line.split(",", 1)[1]
        for line in (tmp_path / "run" / "intervals" / name).read_text().splitlines()[1:]
    ]
    same_csv = strip("intervals_temporal.csv") == strip("intervals_graph.csv")
    report(7, "edgeless-equals-temporal", same and same_csv,
           "interval arrays and csv bodies bit-identical")


def test_c8_winner_table_rule():
    from tests.test_evaluate import report_from

    case1 = g.winner_table(
        [
            report_from("A", {0: 0.91}, {0: 5.0}),
            report_from("B", {0: 0.85}, {0: 4.0}),
            report_from("C", {0: 0.80}, {0: 3.0}),
        ],
        alpha=0.1,
        outage_threshold=50.0,
    )
    case2 = g.winner_table(
        [
            report_from("A", {0: 0.92}, {0: 10.0}),
            report_from("B", {0: 0.91}, {0: 8.0}),
        ],
        alpha=0.1,
        outage_threshold=50.0,
    )
    case3 = g.winner_table(
        [
            report_from("A", {0: 0.70}, {0: 2.0}),
            report_from("B", {0: 0.85}, {0: 9.0}),
        ],
        alpha=0.1,
        outage_threshold=50.0,
    )
    ok = (
        case1.win_fractions["A"] == 1.0
        and case2.win_fractions["B"] == 1.0
        and case3.win_fractions["B"] == 1.0
        and all(
            sum(case.win_fractions.values()) == pytest.approx(1.0)
            for case in (case1, case2, case3)
        )
    )
    report(8, "winner-table-rule", ok,
           "sole achiever, narrowest achiever, highest coverage; fractions sum to 1")


def test_c9_pipeline_reproducibility(tmp_path):
    from tests.test_cli import pipeline_doc

    doc = pipeline_doc(seed=23)
    g.run_pipeline(doc, tmp_path / "a")
    g.run_pipeline(doc, tmp_path / "b")
    rels = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.csv"))
    identical = bool(rels) and all(
        (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
        for rel in rels
    )
    report(9, "pipeline-byte-reproducibility", identical,
           f"{len(rels)} csv files byte-identical across two seeded runs")
