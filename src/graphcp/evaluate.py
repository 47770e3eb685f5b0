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

from .errors import (
    AlignmentError,
    ConfigError,
    NoEligibleNodes,
    coerce,
    field_dict,
    read_fields,
    take,
)
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

    to_dict = field_dict

    @classmethod
    def from_dict(cls, doc: dict, where: str = "") -> "NodeMetrics":
        kinds = dict(coverage=float, nonzero_coverage=float, mean_width=number,
                     n_infinite_width=int, mean_y=float, n_cells=int)
        return read_fields(cls, doc, kinds, where)


@dataclass(frozen=True)
class MethodReport:
    method: str
    coverage: float
    nonzero_coverage: float
    mean_width: float
    n_infinite_width: int
    per_node: dict  # node id -> NodeMetrics

    def to_dict(self) -> dict:
        # string node ids, which write_json sorts as text: "10" before "2"
        per_node = {str(node): metrics.to_dict() for node, metrics in sorted(self.per_node.items())}
        return dict(field_dict(self), per_node=per_node)

    @classmethod
    def from_dict(cls, doc: dict, where: str = "") -> "MethodReport":
        """Parse ``to_dict`` output; a missing, unknown or wrong-typed key raises
        ConfigError naming the key, prefixed by ``where``."""
        per_node = {}
        for node, metrics in take(dict(doc), "per_node", dict, where=where).items():
            at = f"{where}per_node.{node}"
            if not node.isdecimal():
                raise ConfigError(f"{at}: expected a node id, got {node!r}")
            per_node[int(node)] = coerce(NodeMetrics, metrics, at)
        kinds = dict(method=str, coverage=float, nonzero_coverage=float, mean_width=number,
                     n_infinite_width=int, per_node=dict)
        return read_fields(cls, dict(doc, per_node=per_node), kinds, where)


def number(value) -> float:
    """A JSON number, infinite or not but never NaN: ``mean_width`` is inf
    when every width is."""
    if isinstance(value, (str, bool)) or math.isnan(value):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


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
    return MethodReport(
        method=series.method,
        coverage=float(np.mean(covered)),
        nonzero_coverage=float(np.mean(covered & (y > 0))),
        mean_width=mean_w,
        n_infinite_width=n_inf,
        per_node=_per_node(series.node, covered, widths, y),
    )


def _per_node(node, covered, widths, y) -> dict:
    """NodeMetrics by node id, from per-cell arrays.

    A stable sort by node makes each node's cells one slice, in their own
    order, so each node's sums run as over its own cells alone.
    """
    order = np.argsort(node, kind="stable")
    covered, widths, y = covered[order], widths[order], y[order]
    ids, counts = np.unique(node, return_counts=True)
    per_node = {}
    for node_id, end, count in zip(ids.tolist(), np.cumsum(counts).tolist(), counts.tolist()):
        cells = slice(end - count, end)
        node_mean_w, node_inf = _mean_width(widths[cells])
        per_node[node_id] = NodeMetrics(
            coverage=float(np.mean(covered[cells])),
            nonzero_coverage=float(np.mean(covered[cells] & (y[cells] > 0))),
            mean_width=node_mean_w,
            n_infinite_width=node_inf,
            mean_y=float(np.mean(y[cells])),
            n_cells=count,
        )
    return per_node


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


def violin_export(reports, path) -> None:
    """Write long-format per-node coverage rows ``method,node,coverage`` to ``path``."""
    rows = [
        f"{report.method},{node},{report.per_node[node].coverage!r}\n"
        for report in reports
        for node in sorted(report.per_node)
    ]
    if not rows:
        raise NoEligibleNodes("no per-node coverage values to export")
    write_csv(path, "method,node,coverage\n", rows)
