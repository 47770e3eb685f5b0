"""The benchmark's workloads: how each builds its inputs, runs, and is checked.

Every workload calls graphcp only through module attributes looked up at
call time (``experiments.run_storm_benchmark``, ``graphcp.run_pipeline``),
so the tracer's patches in ``tracing.py`` see every call.

Shapes are scaled from the paper-sized runs so that a whole benchmark run
(several repetitions plus five process start-ups) takes about 30 s;
``record.json`` lists the full-size shapes next to these ones.

Checks come in two kinds.  Invariants and independent oracles hold for
every seed.  Reference values (``references.json``, keyed by seed) pin the
exact numbers for the default and held-out seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

import graphcp
from graphcp import experiments

REFERENCES = Path(__file__).resolve().parent / "references.json"

# relative tolerance when comparing with stored references: results are
# bit-reproducible on one machine, but another CPU's BLAS kernels may
# round the last digits differently
REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def compare_reference(fingerprint: dict, reference: dict, prefix: str = "") -> list:
    """Problems found comparing a fingerprint with its stored reference."""
    problems = []
    if sorted(fingerprint) != sorted(reference):
        return [f"{prefix}keys {sorted(fingerprint)} != reference {sorted(reference)}"]
    for key, want in reference.items():
        got = fingerprint[key]
        where = f"{prefix}{key}"
        if isinstance(want, dict):
            problems += compare_reference(got, want, where + ".")
        elif isinstance(want, list):
            if len(got) != len(want) or not all(_close(g, w) for g, w in zip(got, want)):
                problems.append(f"{where} = {got} != reference {want}")
        elif isinstance(want, bool) or isinstance(want, str):
            if got != want:
                problems.append(f"{where} = {got!r} != reference {want!r}")
        elif not _close(float(got), float(want)):
            problems.append(f"{where} = {got!r} != reference {want!r}")
    return problems


def load_reference(workload: str, seed: int) -> "dict | None":
    doc = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return doc.get(workload, {}).get(str(seed))


def _report_problems(name: str, report, n_nodes: int, n_cells: int) -> list:
    """Invariants every MethodReport over a full (node, time) grid satisfies."""
    problems = []
    per_node = report.per_node
    if sorted(per_node) != list(range(n_nodes)):
        problems.append(f"{name}: report covers nodes {sorted(per_node)[:5]}...")
        return problems
    if any(m.n_cells != n_cells for m in per_node.values()):
        problems.append(f"{name}: a node has other than {n_cells} cells")
    if not 0.0 <= report.coverage <= 1.0:
        problems.append(f"{name}: coverage {report.coverage} outside [0, 1]")
    node_cov = float(np.mean([m.coverage for m in per_node.values()]))
    if not math.isclose(node_cov, report.coverage, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"{name}: coverage {report.coverage} != node mean {node_cov}")
    if report.n_infinite_width == 0:
        node_width = float(np.mean([m.mean_width for m in per_node.values()]))
        if not (math.isfinite(report.mean_width) and report.mean_width > 0):
            problems.append(f"{name}: mean width {report.mean_width} not positive")
        elif not math.isclose(node_width, report.mean_width, rel_tol=1e-9):
            problems.append(
                f"{name}: mean width {report.mean_width} != node mean {node_width}"
            )
    return problems


def _report_fingerprint(report) -> dict:
    return {
        "coverage": report.coverage,
        "nonzero_coverage": report.nonzero_coverage,
        "mean_width": report.mean_width,
        "n_infinite_width": report.n_infinite_width,
    }


# --------------------------------------------------------------------------
# storm: the paper's experiment, forest-dominated
# --------------------------------------------------------------------------

# Two refit rounds (steps 0 and 500 of the 1000 test steps) instead of the
# default 20 keep one repetition near 20 s on 2 CPUs while still running
# the refit path; everything else is run_storm_benchmark's default.
STORM_RETRAIN_STRIDE = 500
STORM_METHODS = ("poisson", "temporal", "graph")


class Storm:
    name = "storm"
    seeds = (101, 202)  # default, held out

    def __init__(self, seed: int):
        self.seed = seed
        self.kwargs = {"seed": seed, "retrain_stride": STORM_RETRAIN_STRIDE}
        scenario = experiments.storm_scenario(seed)
        self.n_nodes = scenario.graph.n_nodes
        self.n_test = scenario.n_steps - 2 * (scenario.n_steps // 3)

    def run(self, work_dir: Path):
        return experiments.run_storm_benchmark(**self.kwargs)

    def fingerprint(self, output) -> dict:
        return {m: _report_fingerprint(output.reports[m]) for m in STORM_METHODS}

    def full_state(self, output):
        return {m: r.to_dict() for m, r in sorted(output.reports.items())}

    def check(self, output) -> list:
        if tuple(output.reports) != STORM_METHODS:
            return [f"storm: methods {tuple(output.reports)} != {STORM_METHODS}"]
        problems = []
        for method in STORM_METHODS:
            report = output.reports[method]
            problems += _report_problems(method, report, self.n_nodes, self.n_test)
            if report.n_infinite_width:
                problems.append(f"{method}: {report.n_infinite_width} infinite widths")
        return problems

    def check_reference(self, fingerprint: dict, reference: dict) -> list:
        problems = compare_reference(fingerprint, reference)
        cov = {m: fingerprint[m]["coverage"] for m in STORM_METHODS}
        width = {m: fingerprint[m]["mean_width"] for m in STORM_METHODS}
        # criterion c6's ordering, applied to the one seed
        if not cov["graph"] >= cov["temporal"] >= cov["poisson"]:
            problems.append(f"storm: coverage ordering broken: {cov}")
        if not width["poisson"] <= width["temporal"] <= width["graph"]:
            problems.append(f"storm: width ordering broken: {width}")
        return problems


# --------------------------------------------------------------------------
# recovery: model layer only, tiny K
# --------------------------------------------------------------------------

# 10 of the default 60 epochs (16 blocks each) keep one repetition near 3 s,
# so that a run repeats it about ten times.
RECOVERY_EPOCHS = 10
# criterion c3's bounds on the maximum relative errors
C3_DECAY, C3_COUPLING = 0.20, 0.30


class Recovery:
    name = "recovery"
    seeds = (11, 22)  # default, held out

    def __init__(self, seed: int):
        self.seed = seed
        self.kwargs = {"seed": seed, "epochs": RECOVERY_EPOCHS}
        truth = experiments.recovery_scenario(seed).params
        self.n_decay = truth.decay.shape[0]
        self.n_coupling = len(truth.coupling)

    def run(self, work_dir: Path):
        return experiments.run_recovery(**self.kwargs)

    def fingerprint(self, output) -> dict:
        return {
            "decay_rel_err": output.decay_rel_err.tolist(),
            "coupling_rel_err": output.coupling_rel_err.tolist(),
        }

    def full_state(self, output):
        return self.fingerprint(output)

    def check(self, output) -> list:
        problems = []
        for name, errs, size in (
            ("decay", output.decay_rel_err, self.n_decay),
            ("coupling", output.coupling_rel_err, self.n_coupling),
        ):
            if errs.shape != (size,):
                problems.append(f"recovery: {name} errors have shape {errs.shape}")
            # a fitted rate more than twice the truth or at zero means the
            # fit failed, whatever the seed
            elif not np.all((errs >= 0) & (errs < 1)):
                problems.append(f"recovery: {name} relative errors {errs} not in [0, 1)")
        return problems

    def check_reference(self, fingerprint: dict, reference: dict) -> list:
        problems = compare_reference(fingerprint, reference)
        decay = max(fingerprint["decay_rel_err"])
        coupling = max(fingerprint["coupling_rel_err"])
        if decay > C3_DECAY or coupling > C3_COUPLING:
            problems.append(
                f"recovery: max errors {decay:.4f}/{coupling:.4f} exceed c3's "
                f"{C3_DECAY}/{C3_COUPLING}"
            )
        return problems


# --------------------------------------------------------------------------
# grid400: model at large K, the per-cell interval driver, panel I/O
# --------------------------------------------------------------------------

GRID_K = 400
GRID_ROWS = 20
# T=500 instead of 2000 keeps one repetition at 6-9 s on 2 CPUs; the test
# range is the last 50 steps, 20,000 interval cells per method
GRID_STEPS = 500
GRID_SPLIT = (0.5, 0.4, 0.1)
GRID_METHODS = ("poisson", "vanilla")
GRID_ALPHA = 0.1
GRID_CALIB_WINDOW = 200
# cells per method checked against the independent interval oracles
ORACLE_CELLS = 200


def grid400_config(seed: int) -> dict:
    """run_pipeline config: the storm response network on a 20x20 grid."""
    storm = experiments.storm_scenario(seed).params
    graph_spec = graphcp.GraphSpec(kind="grid", n_nodes=GRID_K, grid_rows=GRID_ROWS)
    cols = GRID_K // GRID_ROWS
    params = graphcp.ModelParams(
        coupling={e: 0.2 for e in graph_spec.build().edge_pairs()},
        decay=np.full(GRID_K, 2.2),
        scale=np.where((np.arange(GRID_K) // cols) % 2 == 0, 1.4, 0.7),
        weather_decay=storm.weather_decay,
        response=storm.response,
        window=storm.window,
    )
    # one state-wide pulse in the calibration range, one in the test range
    pulses = (
        graphcp.StormPulse(start=300, duration=40, amplitude=7.0, variable=1),
        graphcp.StormPulse(start=460, duration=30, amplitude=7.0, variable=1),
    )
    scenario = graphcp.ScenarioConfig(
        graph=graph_spec,
        n_steps=GRID_STEPS,
        params=params,
        weather=graphcp.WeatherSpec(
            ar_coefs=(0.7, 0.5), noise_scales=(1.0, 1.0), pulses=pulses
        ),
    )
    return {
        "seed": seed,
        "scenario": scenario.to_dict(),
        "split": list(GRID_SPLIT),
        "fit": {
            "hidden": 4,
            "window": 24,
            "epochs": 5,
            # at K=400 a block's gradient sums 400 nodes; 0.02 rolls most
            # epochs back, 0.001 accepts most of them
            "learning_rate": 0.001,
            "batch_len": 125,
            "momentum": 0.9,
        },
        "conformal": {
            "methods": list(GRID_METHODS),
            "alpha": GRID_ALPHA,
            "window": 8,
            "calib_window": GRID_CALIB_WINDOW,
        },
        "evaluate": {"outage_threshold": 0.0},
    }


@dataclass
class GridOutput:
    result: object  # PipelineResult
    graph: object  # ServiceGraph read back
    panel: object  # PanelDataset read back
    series: dict  # method -> IntervalSeries read back
    reports: dict  # method -> MethodReport of the read-back series


class Grid400:
    name = "grid400"
    seeds = (0, 1)  # default, held out

    def __init__(self, seed: int):
        self.seed = seed
        self.config = grid400_config(seed)

    def run(self, work_dir: Path) -> GridOutput:
        result = graphcp.run_pipeline(self.config, work_dir)
        data = work_dir / "data"
        graph = graphcp.load_graph(data / "graph.csv", n_nodes=GRID_K)
        panel = graphcp.load_panel(data / "weather.csv", data / "counts.csv")
        series = {
            m: graphcp.read_interval_series(work_dir / "intervals" / f"intervals_{m}.csv")
            for m in GRID_METHODS
        }
        reports = {m: graphcp.coverage_metrics(s, truths=panel.counts) for m, s in series.items()}
        return GridOutput(result, graph, panel, series, reports)

    def fingerprint(self, output: GridOutput) -> dict:
        fit_result = output.result.fit_result
        doc = {m: _report_fingerprint(output.result.reports[m]) for m in GRID_METHODS}
        doc["fit"] = {
            "final_log_likelihood": float(fit_result.checkpoints[-1]),
            "n_retreats": fit_result.n_retreats,
        }
        doc["total_count"] = int(output.result.panel.counts.sum())
        return doc

    def full_state(self, output: GridOutput):
        result = output.result
        state = {m: r.to_dict() for m, r in sorted(result.reports.items())}
        state["checkpoints"] = result.fit_result.checkpoints.tolist()
        state["params"] = result.fit_result.params.to_dict()
        return state

    def check(self, output: GridOutput) -> list:
        result = output.result
        problems = []
        if not np.array_equal(output.panel.weather, result.panel.weather):
            problems.append("grid400: weather read back differs from the simulated panel")
        if not np.array_equal(output.panel.counts, result.panel.counts):
            problems.append("grid400: counts read back differ from the simulated panel")
        if sorted(output.graph.edges) != sorted(result.graph.edges):
            problems.append("grid400: graph read back differs from the built graph")
        if np.any(np.diff(result.fit_result.checkpoints) < 0):
            problems.append("grid400: the fit's checkpoint likelihoods decrease")
        test_lo, test_hi = result.data_split.test
        n_test = test_hi - test_lo + 1
        rates = graphcp.intensity(result.panel, result.graph, result.fit_result.params)
        counts = result.panel.counts
        for method in GRID_METHODS:
            mem = result.series[method]
            disk = output.series[method]
            if disk.method != method or any(
                not np.array_equal(getattr(mem, col), getattr(disk, col))
                for col in ("node", "time", "point", "lower", "upper", "y_true")
            ):
                problems.append(f"{method}: intervals read back differ from the run's")
            if output.reports[method] != result.reports[method]:
                problems.append(f"{method}: report of the read-back series differs")
            problems += _report_problems(method, result.reports[method], GRID_K, n_test)
            problems += self._oracle_problems(
                method, mem, result.reports[method].coverage, rates, counts
            )
        return problems

    def _oracle_problems(self, method, series, coverage, rates, counts) -> list:
        """Recompute sampled cells from their definitions, not graphcp's code."""
        problems = []
        if not np.array_equal(series.point, rates[series.node, series.time - 1]):
            problems.append(f"{method}: point forecasts are not the model's rates")
            return problems
        covered = (series.lower <= series.y_true) & (series.y_true <= series.upper)
        if float(np.mean(covered)) != coverage:
            problems.append(f"{method}: coverage disagrees with the cells")
        rng = np.random.default_rng([self.seed, len(series)])
        for i in rng.choice(len(series), size=ORACLE_CELLS, replace=False):
            node, t = int(series.node[i]), int(series.time[i])
            point, lower, upper = series.point[i], series.lower[i], series.upper[i]
            if method == "poisson":
                # equal-tail quantiles: smallest k whose CDF reaches the level
                for level, k in ((GRID_ALPHA / 2, lower), (1 - GRID_ALPHA / 2, upper)):
                    cdf = stats.poisson.cdf([k - 1, k], point)
                    if not (k >= 0 and cdf[1] >= level and (k == 0 or cdf[0] < level)):
                        problems.append(f"poisson: cell ({node}, {t}) bound {k} wrong")
            else:
                # the residuals of the calib_window steps before t
                steps = np.arange(t - GRID_CALIB_WINDOW, t) - 1
                resid = np.sort(np.abs(counts[node, steps] - rates[node, steps]))
                n = resid.shape[0]
                rank = math.ceil((1 - GRID_ALPHA) * (n + 1) - 1e-9)
                half = resid[rank - 1] if rank <= n else math.inf
                if lower != point - half or upper != point + half:
                    problems.append(f"vanilla: cell ({node}, {t}) half-width != {half}")
            if len(problems) > 5:
                break
        return problems

    def check_reference(self, fingerprint: dict, reference: dict) -> list:
        return compare_reference(fingerprint, reference)


WORKLOADS = {w.name: w for w in (Storm, Recovery, Grid400)}
