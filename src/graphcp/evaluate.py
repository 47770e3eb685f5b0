"""Coverage, width, winner-rate metrics, and plot-ready exports.

``nonzero_coverage`` is the fraction of ALL evaluated cells whose truth is
positive and covered, not a conditional rate among positive cells.  With
mostly-zero outage panels this stays deliberately small; it measures how
much of the interesting (nonzero) mass the intervals actually catch.

Infinite-width intervals (the vanilla rank overflow) are excluded from the
mean width and surfaced through ``n_infinite_width`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, NoEligibleNodes, coerce, take
from .conformal import METHODS, IntervalSeries
from .panel import write_csv

__all__ = [
    "NodeMetrics",
    "MethodReport",
    "WinnerTable",
    "coverage_metrics",
    "winner_table",
    "violin_export",
]

@dataclass(frozen=True)
class NodeMetrics:
    coverage: float
    nonzero_coverage: float
    mean_width: float
    n_infinite_width: int
    mean_y: float
    n_cells: int


@dataclass(frozen=True)
class MethodReport:
    method: str
    coverage: float
    nonzero_coverage: float
    mean_width: float
    n_infinite_width: int
    per_node: dict  # node id -> NodeMetrics

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "coverage": self.coverage,
            "nonzero_coverage": self.nonzero_coverage,
            "mean_width": self.mean_width,
            "n_infinite_width": self.n_infinite_width,
            "per_node": {
                str(node): vars(metrics) for node, metrics in sorted(self.per_node.items())
            },
        }

    @classmethod
    def from_dict(cls, doc: dict, where: str = "") -> "MethodReport":
        """Parse ``to_dict`` output; a missing key or a wrong-typed value raises
        ConfigError naming the key, prefixed by ``where``."""
        doc = dict(doc)
        per_node = {}
        for node, metrics in take(doc, "per_node", dict, where=where).items():
            at = f"{where}per_node.{node}"
            metrics = _fields(coerce(dict, metrics, at), _NODE_FIELDS, at + ".")
            per_node[coerce(int, node, at)] = NodeMetrics(**metrics)
        return cls(
            method=take(doc, "method", str, where=where),
            per_node=per_node,
            **_fields(doc, _REPORT_FIELDS, where),
        )


_REPORT_FIELDS = dict(coverage=float, nonzero_coverage=float, mean_width=float, n_infinite_width=int)
_NODE_FIELDS = dict(_REPORT_FIELDS, mean_y=float, n_cells=int)


def _fields(doc: dict, kinds: dict, where: str) -> dict:
    return {key: take(doc, key, kind, where=where) for key, kind in kinds.items()}


@dataclass(frozen=True)
class WinnerTable:
    win_fractions: dict  # method -> fraction over eligible nodes
    wins: dict  # method -> count
    n_eligible: int


def _mean_width(widths: np.ndarray) -> tuple:
    finite = widths[np.isfinite(widths)]
    n_inf = int(widths.shape[0] - finite.shape[0])
    mean = float(np.mean(finite)) if finite.shape[0] else math.inf
    return mean, n_inf


def coverage_metrics(series: IntervalSeries, truths=None) -> MethodReport:
    """Aggregate and per-node coverage/width for one interval series.

    ``truths`` may be a (K, T) count matrix to check the stored y_true
    against; mismatches or out-of-range (node, time) raise AlignmentError.
    """
    if len(series) == 0:
        raise AlignmentError("empty interval series")
    y = series.y_true
    if truths is not None:
        truths = np.asarray(truths)
        if (
            np.any(series.node < 0)
            or np.any(series.node >= truths.shape[0])
            or np.any(series.time < 1)
            or np.any(series.time > truths.shape[1])
        ):
            raise AlignmentError("interval records reference cells outside the truth matrix")
        aligned = truths[series.node, series.time - 1].astype(np.float64)
        if not np.array_equal(aligned, y):
            raise AlignmentError("stored y_true disagrees with the truth matrix")
        y = aligned

    covered = (series.lower <= y) & (y <= series.upper)
    widths = series.upper - series.lower
    mean_w, n_inf = _mean_width(widths)
    per_node = {}
    for node in np.unique(series.node):
        mask = series.node == node
        node_mean_w, node_inf = _mean_width(widths[mask])
        per_node[int(node)] = NodeMetrics(
            coverage=float(np.mean(covered[mask])),
            nonzero_coverage=float(np.mean(covered[mask] & (y[mask] > 0))),
            mean_width=node_mean_w,
            n_infinite_width=node_inf,
            mean_y=float(np.mean(y[mask])),
            n_cells=int(np.sum(mask)),
        )
    return MethodReport(
        method=series.method,
        coverage=float(np.mean(covered)),
        nonzero_coverage=float(np.mean(covered & (y > 0))),
        mean_width=mean_w,
        n_infinite_width=n_inf,
        per_node=per_node,
    )


def _method_rank(name: str):
    """Tie-break order: ``METHODS``, then any other name alphabetically."""
    return (0, METHODS.index(name)) if name in METHODS else (1, name)


def winner_table(
    reports,
    alpha: float = 0.1,
    outage_threshold: float = 50.0,
) -> WinnerTable:
    """Per-node three-stage winner rule, aggregated over eligible nodes.

    Eligible nodes have mean outage above ``outage_threshold``.  Per node:
    a sole method reaching coverage 1 - alpha wins; among several
    achievers the narrowest interval wins; with no achiever the highest
    coverage wins.  Remaining ties go to the narrower width, then to the
    fixed method order.
    """
    reports = list(reports)
    if len(reports) < 2:
        raise AlignmentError(f"winner table needs >= 2 methods, got {len(reports)}")
    if outage_threshold < 0:
        raise AlignmentError("outage threshold must be nonnegative")
    names = [r.method for r in reports]
    if len(set(names)) != len(names):
        raise AlignmentError(f"duplicate method names in {names}")
    node_sets = [set(r.per_node) for r in reports]
    if any(s != node_sets[0] for s in node_sets[1:]):
        raise AlignmentError("method reports cover different node sets")

    target = 1.0 - alpha
    reports = sorted(reports, key=lambda r: _method_rank(r.method))
    eligible = sorted(
        node
        for node in node_sets[0]
        if reports[0].per_node[node].mean_y > outage_threshold
    )
    if not eligible:
        raise NoEligibleNodes(
            f"no node has mean outage above {outage_threshold}"
        )

    wins = {r.method: 0 for r in reports}
    for node in eligible:
        entries = [
            (r.method, r.per_node[node].coverage, r.per_node[node].mean_width)
            for r in reports
        ]
        achievers = [e for e in entries if e[1] >= target]
        if len(achievers) == 1:
            winner = achievers[0][0]
        elif achievers:
            # narrowest among achievers; ties fall through to method order
            winner = min(achievers, key=lambda e: e[2])[0]
        else:
            top = max(e[1] for e in entries)
            tied = [e for e in entries if e[1] == top]
            winner = min(tied, key=lambda e: e[2])[0]
        wins[winner] += 1

    n_eligible = len(eligible)
    return WinnerTable(
        win_fractions={m: wins[m] / n_eligible for m in wins},
        wins=dict(wins),
        n_eligible=n_eligible,
    )


def violin_export(reports, path=None):
    """Long-format per-node coverage rows ``(method, node, coverage)``.

    Returns the rows; also writes them as CSV when ``path`` is given.
    """
    reports = list(reports)
    rows = []
    for report in reports:
        for node in sorted(report.per_node):
            rows.append((report.method, node, report.per_node[node].coverage))
    if not rows:
        raise NoEligibleNodes("no per-node coverage values to export")
    if path is not None:
        lines = (f"{method},{node},{coverage!r}\n" for method, node, coverage in rows)
        write_csv(path, "method,node,coverage\n", lines)
    return rows
