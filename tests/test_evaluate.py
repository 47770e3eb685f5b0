import math

import numpy as np
import pytest

from graphcp.conformal import IntervalSeries
from graphcp.errors import AlignmentError, NoEligibleNodes
from graphcp.evaluate import (
    MethodReport,
    NodeMetrics,
    coverage_metrics,
    violin_export,
    winner_table,
)


def make_series(method="m", nodes=(0, 0, 0, 1, 1), times=(1, 2, 3, 1, 2),
                points=None, lowers=None, uppers=None, ys=(1, 0, 2, 5, 3)):
    n = len(nodes)
    return IntervalSeries(
        method=method,
        node=np.array(nodes, dtype=np.int64),
        time=np.array(times, dtype=np.int64),
        point=np.array(points if points is not None else [1.0] * n),
        lower=np.array(lowers if lowers is not None else [0.0] * n),
        upper=np.array(uppers if uppers is not None else [10.0] * n),
        y_true=np.array(ys, dtype=np.float64),
    )


def report_from(method, node_cov, node_width, mean_y=100.0):
    per_node = {
        node: NodeMetrics(
            coverage=node_cov[node],
            nonzero_coverage=0.0,
            mean_width=node_width[node],
            n_infinite_width=0,
            mean_y=mean_y,
            n_cells=10,
        )
        for node in node_cov
    }
    return MethodReport(
        method=method,
        coverage=float(np.mean(list(node_cov.values()))),
        nonzero_coverage=0.0,
        mean_width=float(np.mean(list(node_width.values()))),
        n_infinite_width=0,
        per_node=per_node,
    )


# ------------------------------------------------------------ coverage


def test_coverage_fraction():
    ys = tuple(range(10))
    uppers = [10.0] * 10
    uppers[3] = 1.0  # make one miss: y=3 > 1
    series = make_series(nodes=(0,) * 10, times=tuple(range(1, 11)), ys=ys, uppers=uppers)
    report = coverage_metrics(series)
    assert report.coverage == pytest.approx(0.9)


def test_nonzero_coverage_counts_positive_and_covered_over_all_cells():
    # all y = 0 and all covered: the nonzero-coverage definition gives 0
    series = make_series(ys=(0, 0, 0, 0, 0))
    report = coverage_metrics(series)
    assert report.coverage == 1.0
    assert report.nonzero_coverage == 0.0
    # half the cells nonzero and covered -> 0.5
    series2 = make_series(nodes=(0, 0, 0, 0), times=(1, 2, 3, 4), ys=(0, 0, 2, 3))
    assert coverage_metrics(series2).nonzero_coverage == pytest.approx(0.5)


def test_constant_width():
    series = make_series(lowers=[1.0] * 5, uppers=[6.0] * 5)
    assert coverage_metrics(series).mean_width == pytest.approx(5.0)


def test_infinite_widths_flagged_and_excluded():
    series = make_series(
        lowers=[0.0, 0.0, -math.inf, 0.0, 0.0],
        uppers=[4.0, 4.0, math.inf, 4.0, 4.0],
    )
    report = coverage_metrics(series)
    assert report.n_infinite_width == 1
    assert report.mean_width == pytest.approx(4.0)


def test_truth_matrix_alignment_checked():
    series = make_series()
    truths = np.zeros((2, 3), dtype=int)
    with pytest.raises(AlignmentError):
        coverage_metrics(series, truths=truths)  # y_true disagrees
    bad_time = make_series(times=(1, 2, 99, 1, 2))
    with pytest.raises(AlignmentError):
        coverage_metrics(bad_time, truths=truths)


def test_per_node_matches_overall():
    series = make_series()
    report = coverage_metrics(series)
    weights = [report.per_node[n].n_cells for n in sorted(report.per_node)]
    covs = [report.per_node[n].coverage for n in sorted(report.per_node)]
    overall = np.average(covs, weights=weights)
    assert overall == pytest.approx(report.coverage)


def masked_per_node(series):
    """Per-node metrics from one boolean mask per node, cell order kept."""
    y = series.y_true
    covered = (series.lower <= y) & (y <= series.upper)
    widths = series.upper - series.lower
    per_node = {}
    for node in np.unique(series.node):
        mask = series.node == node
        finite = widths[mask][np.isfinite(widths[mask])]
        per_node[int(node)] = NodeMetrics(
            coverage=float(np.mean(covered[mask])),
            nonzero_coverage=float(np.mean(covered[mask] & (y[mask] > 0))),
            mean_width=float(np.mean(finite)) if finite.shape[0] else math.inf,
            n_infinite_width=int(np.sum(mask) - finite.shape[0]),
            mean_y=float(np.mean(y[mask])),
            n_cells=int(np.sum(mask)),
        )
    return per_node


@pytest.mark.parametrize("seed", range(6))
def test_per_node_slices_match_masks_bit_for_bit(seed):
    # nodes in random order, some with over 128 cells so that the pairwise
    # sums block, fractional widths and a few infinite ones
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 2000))
    nodes = rng.integers(0, int(rng.integers(1, 12)), size=n)
    lowers = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e6], size=n)
    uppers = lowers + rng.exponential(size=n) * rng.choice([1e-3, 1.0, 1e6], size=n)
    uppers[rng.random(n) < 0.02] = math.inf
    ys = rng.poisson(rng.choice([0.2, 3.0, 1e4], size=n)).astype(float)
    series = make_series(nodes=nodes, times=np.arange(1, n + 1), lowers=lowers,
                         uppers=uppers, ys=ys)
    report = coverage_metrics(series)
    expected = masked_per_node(series)
    assert list(report.per_node) == list(expected)
    for node, metrics in expected.items():
        assert report.per_node[node] == metrics, node


# ------------------------------------------------------------ winner


def test_winner_sole_achiever():
    reports = [
        report_from("A", {0: 0.91}, {0: 5.0}),
        report_from("B", {0: 0.85}, {0: 4.0}),
        report_from("C", {0: 0.80}, {0: 3.0}),
    ]
    table = winner_table(reports, alpha=0.1, outage_threshold=50.0)
    assert table.win_fractions["A"] == 1.0
    assert sum(table.win_fractions.values()) == pytest.approx(1.0)


def test_winner_narrowest_among_achievers():
    reports = [
        report_from("A", {0: 0.92}, {0: 10.0}),
        report_from("B", {0: 0.91}, {0: 8.0}),
    ]
    table = winner_table(reports, alpha=0.1, outage_threshold=50.0)
    assert table.win_fractions["B"] == 1.0


def test_winner_highest_coverage_when_none_achieve():
    reports = [
        report_from("A", {0: 0.70}, {0: 2.0}),
        report_from("B", {0: 0.85}, {0: 9.0}),
    ]
    table = winner_table(reports, alpha=0.1, outage_threshold=50.0)
    assert table.win_fractions["B"] == 1.0


def test_winner_fractions_sum_to_one_multi_node():
    rng = np.random.default_rng(3)
    nodes = range(7)
    reports = [
        report_from(m, {n: float(rng.uniform(0.7, 1.0)) for n in nodes},
                    {n: float(rng.uniform(2, 12)) for n in nodes})
        for m in ("poisson", "temporal", "graph")
    ]
    table = winner_table(reports, alpha=0.1, outage_threshold=50.0)
    assert sum(table.win_fractions.values()) == pytest.approx(1.0)
    assert table.n_eligible == 7


def test_winner_order_invariance():
    rng = np.random.default_rng(4)
    nodes = range(5)
    reports = [
        report_from(m, {n: float(rng.uniform(0.7, 1.0)) for n in nodes},
                    {n: float(rng.uniform(2, 12)) for n in nodes})
        for m in ("poisson", "temporal", "graph")
    ]
    a = winner_table(reports, alpha=0.1, outage_threshold=50.0)
    b = winner_table(list(reversed(reports)), alpha=0.1, outage_threshold=50.0)
    assert a.win_fractions == b.win_fractions


def test_winner_tie_breaks_by_method_order():
    # both achieve with identical widths: canonical order poisson < graph wins
    reports = [
        report_from("graph", {0: 0.95}, {0: 5.0}),
        report_from("poisson", {0: 0.95}, {0: 5.0}),
    ]
    table = winner_table(reports, alpha=0.1, outage_threshold=50.0)
    assert table.win_fractions["poisson"] == 1.0


def test_winner_eligibility_threshold():
    reports = [
        report_from("A", {0: 0.95, 1: 0.95}, {0: 5.0, 1: 5.0}, mean_y=10.0),
        report_from("B", {0: 0.80, 1: 0.99}, {0: 5.0, 1: 4.0}, mean_y=10.0),
    ]
    with pytest.raises(NoEligibleNodes):
        winner_table(reports, alpha=0.1, outage_threshold=50.0)
    table = winner_table(reports, alpha=0.1, outage_threshold=5.0)
    assert table.n_eligible == 2


# ------------------------------------------------------------ violin


def test_violin_rows_and_csv(tmp_path):
    rng = np.random.default_rng(5)
    nodes = range(10)
    reports = [
        report_from(m, {n: float(rng.uniform(0, 1)) for n in nodes},
                    {n: 1.0 for n in nodes})
        for m in ("poisson", "temporal", "graph")
    ]
    assert violin_export(reports, tmp_path / "violin.csv") is None
    text = (tmp_path / "violin.csv").read_text().splitlines()
    assert text[0] == "method,node,coverage"
    assert len(text) == 31
    # values echo the per-node metrics exactly
    for line in text[1:]:
        method, node, coverage = line.split(",")
        report = next(r for r in reports if r.method == method)
        assert float(coverage) == report.per_node[int(node)].coverage


def test_violin_empty_is_error(tmp_path):
    with pytest.raises(NoEligibleNodes):
        violin_export([], tmp_path / "violin.csv")
    assert not (tmp_path / "violin.csv").exists()
