"""Service-area graph, spatio-temporal panel, and validated CSV ingestion.

Conventions used throughout the package:

* Node ids are the integers ``0 .. K-1``.
* A directed edge ``(src, dst)`` means outages at ``src`` excite the
  intensity at ``dst``.  The influence sources of node ``i`` are
  ``sources(i) = {src : (src, i) in E}`` and the pooling neighborhood is
  ``N(i) = sources(i) | {i}`` (a node always pools with itself).
* Time indices in files and in ``DataSplit`` are 1-based and contiguous;
  in-memory arrays are 0-based, so time ``t`` lives at column ``t - 1``.

File formats (UTF-8, comma separated, decimal points, one header row):

* edge list:   ``src,dst[,weight]``
* weather:     ``unit,time,variable,value``  (long format, dense)
* counts:      ``unit,time,count``
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BadFractions,
    ConfigError,
    DimensionMismatch,
    DuplicateEdge,
    MalformedRow,
    MissingCell,
    NegativeCount,
    NonIntegerCount,
    SymmetricEdgePair,
    UnknownNodeReference,
)

__all__ = [
    "ServiceGraph",
    "PanelDataset",
    "DataSplit",
    "load_graph",
    "write_graph",
    "load_panel",
    "write_panel",
    "split",
]


def _readonly(arr, dtype=np.float64) -> np.ndarray:
    arr = np.asarray(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ServiceGraph:
    """Directed influence graph over K geographical units.

    ``edges`` holds ``(src, dst, weight)`` triples.  Weights are parsed and
    stored but unused by the core algorithms (reserved for weighted-edge
    extensions); they default to 1.0.
    """

    node_ids: tuple[int, ...]
    edges: tuple[tuple[int, int, float], ...]
    neighbors: tuple[frozenset[int], ...] = field(repr=False)

    @classmethod
    def from_edges(
        cls,
        n_nodes: int,
        edges: "list[tuple] | tuple[tuple, ...]" = (),
    ) -> "ServiceGraph":
        """Validate an edge list and build neighbor sets.

        Raises DuplicateEdge, SymmetricEdgePair, UnknownNodeReference, or
        MalformedRow on contract violations.
        """
        if n_nodes < 1:
            raise MalformedRow(f"need at least one node, got {n_nodes}")
        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int, float]] = []
        for edge in edges:
            if len(edge) == 2:
                src, dst = edge
                weight = 1.0
            elif len(edge) == 3:
                src, dst, weight = edge
            else:
                raise MalformedRow(f"edge {edge!r} is not (src, dst[, weight])")
            src, dst = int(src), int(dst)
            weight = float(weight)
            if not (0 <= src < n_nodes) or not (0 <= dst < n_nodes):
                raise UnknownNodeReference(
                    f"edge ({src}, {dst}) references a node outside 0..{n_nodes - 1}"
                )
            if src == dst:
                raise MalformedRow(
                    f"explicit self-loop ({src}, {dst}); self-influence is implicit"
                )
            if not math.isfinite(weight) or weight < 0:
                raise MalformedRow(f"edge ({src}, {dst}) has bad weight {weight!r}")
            if (src, dst) in seen:
                raise DuplicateEdge(f"edge ({src}, {dst}) appears twice")
            if (dst, src) in seen:
                raise SymmetricEdgePair(
                    f"both ({src}, {dst}) and ({dst}, {src}) present"
                )
            seen.add((src, dst))
            norm.append((src, dst, weight))
        nbrs = [{i} for i in range(n_nodes)]
        for src, dst, _ in norm:
            nbrs[dst].add(src)
        return cls(
            node_ids=tuple(range(n_nodes)),
            edges=tuple(norm),
            neighbors=tuple(frozenset(s) for s in nbrs),
        )

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighborhood(self, node: int) -> frozenset[int]:
        """N(node): influence sources plus the node itself."""
        return self.neighbors[node]

    def edge_pairs(self) -> list[tuple[int, int]]:
        """Sorted (src, dst) pairs; the canonical coupling-parameter order."""
        return sorted((src, dst) for src, dst, _ in self.edges)


@dataclass(frozen=True)
class PanelDataset:
    """Aligned weather tensor (K, T, M) and outage-count matrix (K, T)."""

    weather: np.ndarray
    counts: np.ndarray

    @classmethod
    def build(cls, weather: np.ndarray, counts: np.ndarray) -> "PanelDataset":
        weather = np.asarray(weather, dtype=np.float64)
        counts_arr = np.asarray(counts)
        if weather.ndim != 3:
            raise DimensionMismatch(f"weather must be (K, T, M), got {weather.shape}")
        if counts_arr.ndim != 2:
            raise DimensionMismatch(f"counts must be (K, T), got {counts_arr.shape}")
        if weather.shape[:2] != counts_arr.shape:
            raise DimensionMismatch(
                f"weather {weather.shape[:2]} and counts {counts_arr.shape} "
                "disagree on (K, T)"
            )
        if not np.all(np.isfinite(weather)):
            raise MissingCell("weather tensor contains NaN or Inf")
        if np.issubdtype(counts_arr.dtype, np.floating):
            if not np.all(np.isfinite(counts_arr)):
                raise NonIntegerCount("counts contain NaN or Inf")
            rounded = np.rint(counts_arr)
            if not np.array_equal(rounded, counts_arr):
                raise NonIntegerCount("counts contain non-integral values")
            counts_arr = rounded.astype(np.int64)
        else:
            counts_arr = counts_arr.astype(np.int64)
        if np.any(counts_arr < 0):
            raise NegativeCount("counts contain negative values")
        return cls(
            weather=_readonly(weather.copy()),
            counts=_readonly(counts_arr.copy(), np.int64),
        )

    @property
    def n_nodes(self) -> int:
        return self.counts.shape[0]

    @property
    def n_steps(self) -> int:
        return self.counts.shape[1]

    @property
    def n_vars(self) -> int:
        return self.weather.shape[2]


@dataclass(frozen=True)
class DataSplit:
    """Disjoint contiguous 1-based inclusive time ranges: train < calibration < test."""

    train: tuple[int, int]
    calibration: tuple[int, int]
    test: tuple[int, int]

    def __post_init__(self) -> None:
        lo_t, hi_t = self.train
        lo_c, hi_c = self.calibration
        lo_s, hi_s = self.test
        ok = (
            1 <= lo_t <= hi_t
            and hi_t + 1 == lo_c <= hi_c
            and hi_c + 1 == lo_s <= hi_s
        )
        if not ok:
            raise BadFractions(
                f"ranges {self.train}, {self.calibration}, {self.test} are not "
                "ordered, contiguous, 1-based"
            )

def split(panel: PanelDataset, fractions: "tuple[float, float, float]") -> DataSplit:
    """Partition 1..T into train/calibration/test by rounded fractions.

    Train and calibration lengths are the half-up-rounded fractions of T;
    the remainder goes to the test range.
    """
    if len(fractions) != 3:
        raise BadFractions(f"need three fractions, got {len(fractions)}")
    f_train, f_cal, f_test = (float(f) for f in fractions)
    if min(f_train, f_cal, f_test) <= 0:
        raise BadFractions("fractions must all be positive")
    if abs(f_train + f_cal + f_test - 1.0) > 1e-9:
        raise BadFractions(f"fractions sum to {f_train + f_cal + f_test}, not 1")
    t_total = panel.n_steps
    n_train = int(math.floor(f_train * t_total + 0.5))
    n_cal = int(math.floor(f_cal * t_total + 0.5))
    n_test = t_total - n_train - n_cal
    if min(n_train, n_cal, n_test) < 1:
        raise BadFractions(
            f"T={t_total} with fractions {fractions} leaves an empty range"
        )
    return DataSplit(
        train=(1, n_train),
        calibration=(n_train + 1, n_train + n_cal),
        test=(n_train + n_cal + 1, t_total),
    )


# --------------------------------------------------------------------------
# CSV ingestion
# --------------------------------------------------------------------------

_EDGE_ROW = np.dtype([("src", np.int64), ("dst", np.int64), ("weight", np.float64)])
_WEATHER_ROW = np.dtype(
    [("unit", np.int64), ("time", np.int64), ("variable", np.int64), ("value", np.float64)]
)
# counts parse as floats, so "3.0" reads as 3 and "2.5" is a non-integer count
_COUNTS_ROW = np.dtype([("unit", np.int64), ("time", np.int64), ("count", np.float64)])


def _check_header(path, header, expected, optional_last=False, error=MalformedRow):
    header = [h.strip() for h in header]
    short = expected[:-1] if optional_last else expected
    if header != expected and header != short:
        raise error(
            f"{path}: header {header} does not match {expected}"
            + (f" or {short}" if optional_last else "")
        )


def read_table(
    path: "str | Path",
    row_dtype: np.dtype,
    error=MalformedRow,
    optional_last: bool = False,
    empty_ok: bool = False,
) -> np.ndarray:
    """The data rows of a CSV whose header names ``row_dtype``'s fields.

    One ``np.loadtxt`` pass parses every row into a structured array.  Fields
    may be quoted or padded with spaces, and blank lines are skipped.  An
    empty file, a wrong header, a row with the wrong number of fields, a
    token that does not parse as its field's type, and (unless ``empty_ok``)
    a file without data rows raise ``error``.  With ``optional_last`` the
    header may omit the last field, and then every row must omit it too.
    """
    path = Path(path)
    names = list(row_dtype.names)
    with path.open("r", encoding="utf-8", newline="") as handle:
        try:
            line = handle.readline()
            if not line:
                raise error(f"{path}: empty file, expected header row")
            header = next(csv.reader([line]), [])
            _check_header(path, header, names, optional_last, error)
            if len(header) < len(names):
                row_dtype = row_dtype[names[:-1]]
            with warnings.catch_warnings():
                # a header-only file is reported below instead
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning
                )
                rows = np.loadtxt(
                    handle,
                    dtype=row_dtype,
                    delimiter=",",
                    quotechar='"',
                    comments=None,
                    ndmin=1,
                )
        except ValueError as exc:
            raise error(f"{path}: {exc}") from None
    if rows.size == 0 and not empty_ok:
        raise error(f"{path}: no data rows")
    return rows


def write_csv(path: "str | Path", header: str, blocks) -> None:
    """Write ``header``, then each string of ``blocks`` with one write call."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        handle.write(header)
        for block in blocks:
            handle.write(block)


def write_json(path: "str | Path", doc) -> None:
    """``doc`` as JSON with indent 2, sorted keys and a trailing newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_json(path: "str | Path") -> dict:
    """The JSON object in ``path``; invalid JSON or another value raises ConfigError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return doc


def _reject(path, rows: np.ndarray, bad: np.ndarray, error, what: str) -> None:
    if bad.any():
        raise error(f"{path}: {what} in row {rows[np.argmax(bad)].tolist()}")


def _cell_index(path, rows: np.ndarray) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The grid shape the rows imply, each row's C-order cell index, and the
    indices sorted.

    Ids out of domain and a cell named twice raise MalformedRow.  Repeats
    are found by sorting rather than by ``np.bincount``, so a mistyped id
    that implies a huge grid costs memory per row, not per cell.
    """
    # every field but the last is a coordinate; time is 1-based in files
    names = rows.dtype.names[:-1]
    keys = [rows[n] - 1 if n == "time" else rows[n] for n in names]
    _reject(
        path,
        rows,
        np.logical_or.reduce([key < 0 for key in keys]),
        MalformedRow,
        f"{'/'.join(names)} out of domain",
    )
    shape = tuple(int(key.max()) + 1 for key in keys)
    if math.prod(shape) >= 2**63:
        raise MalformedRow(f"{path}: ids imply a {shape} grid, too large to index")
    cells = np.ravel_multi_index(keys, shape)
    ordered = np.sort(cells)
    repeats = np.flatnonzero(ordered[1:] == ordered[:-1])
    if repeats.size:
        row = np.flatnonzero(cells == ordered[repeats[0]])[1]
        raise MalformedRow(f"{path}: duplicate cell in row {rows[row].tolist()}")
    return shape, cells, ordered


def _dense(path, rows, shape, cells, ordered, values: np.ndarray) -> np.ndarray:
    """``values`` placed on the grid; raises MissingCell unless every cell has a row."""
    if ordered.size < math.prod(shape):
        # the sorted indices are distinct, so the first gap is the first missing cell
        gaps = np.flatnonzero(ordered != np.arange(ordered.size))
        first = np.unravel_index(gaps[0] if gaps.size else ordered.size, shape)
        where = ", ".join(
            f"{name}={int(i) + 1 if name == 'time' else int(i)}"
            for name, i in zip(rows.dtype.names, first)
        )
        raise MissingCell(f"{path}: cell ({where}) missing")
    dense = np.empty(ordered.size, dtype=values.dtype)
    dense[cells] = values
    return dense.reshape(shape)


def load_graph(edge_file: "str | Path", n_nodes: "int | None" = None) -> ServiceGraph:
    """Read an edge-list CSV (header ``src,dst[,weight]``) into a ServiceGraph.

    The file carries no node universe of its own: pass ``n_nodes`` to allow
    isolated nodes and a file without edges; otherwise K is inferred as
    ``max node index + 1``.  Without a weight column every weight is 1.0.
    """
    rows = read_table(edge_file, _EDGE_ROW, optional_last=True, empty_ok=n_nodes is not None)
    src, dst = rows["src"].tolist(), rows["dst"].tolist()
    weights = rows["weight"].tolist() if "weight" in rows.dtype.names else [1.0] * len(src)
    if n_nodes is None:
        n_nodes = 1 + max(max(src), max(dst))
    return ServiceGraph.from_edges(n_nodes, list(zip(src, dst, weights)))


def write_graph(graph: ServiceGraph, edge_file: "str | Path") -> None:
    rows = (f"{src},{dst},{weight!r}\n" for src, dst, weight in sorted(graph.edges))
    write_csv(edge_file, "src,dst,weight\n", rows)


def load_panel(weather_file: "str | Path", counts_file: "str | Path") -> PanelDataset:
    """Read long-format weather and counts CSVs into dense validated arrays.

    Units must be 0..K-1 and times 1..T with every cell present; any gap
    raises MissingCell.
    """
    weather_rows = read_table(weather_file, _WEATHER_ROW)
    values = weather_rows["value"]
    _reject(weather_file, weather_rows, ~np.isfinite(values), MalformedRow, "non-finite value")
    weather_grid = _cell_index(weather_file, weather_rows)

    count_rows = read_table(counts_file, _COUNTS_ROW)
    raw = count_rows["count"]
    _reject(
        counts_file,
        count_rows,
        ~np.isfinite(raw) | (raw != np.floor(raw)),
        NonIntegerCount,
        "count is not an integer",
    )
    _reject(counts_file, count_rows, raw < 0, NegativeCount, "negative count")
    _reject(counts_file, count_rows, raw >= 2.0**63, MalformedRow, "count beyond int64")
    counts_grid = _cell_index(counts_file, count_rows)

    (k_w, t_w, _), (k_c, t_c) = weather_grid[0], counts_grid[0]
    if (k_w, t_w) != (k_c, t_c):
        raise DimensionMismatch(
            f"weather implies (K={k_w}, T={t_w}) but counts imply (K={k_c}, T={t_c})"
        )
    weather = _dense(weather_file, weather_rows, *weather_grid, values)
    counts = _dense(counts_file, count_rows, *counts_grid, raw.astype(np.int64))
    return PanelDataset.build(weather, counts)


def unit_lines(unit: int, tails: list[str], values: np.ndarray) -> str:
    """The lines ``f"{unit},{tail}{value!r}"`` for each (tail, value), as one string.

    ``repr`` of a list formats every number in one C loop, and no int or
    float repr contains ", ", so splitting it yields each value's repr.
    """
    if not tails:
        return ""
    reprs = repr(values.tolist())[1:-1].split(", ")
    return f"{unit}," + f"\n{unit},".join(map(str.__add__, tails, reprs)) + "\n"


def write_panel(
    panel: PanelDataset,
    weather_file: "str | Path",
    counts_file: "str | Path",
) -> None:
    """Write the canonical long-format CSVs (rows sorted by unit, time, variable).

    Floats are emitted via repr, so write -> load -> write is a byte-level
    fixpoint.  Each unit's rows go out in one write call.
    """
    cells = [f"{t},{v}," for t in range(1, panel.n_steps + 1) for v in range(panel.n_vars)]
    steps = [f"{t}," for t in range(1, panel.n_steps + 1)]
    write_csv(
        weather_file,
        "unit,time,variable,value\n",
        (unit_lines(u, cells, panel.weather[u].ravel()) for u in range(panel.n_nodes)),
    )
    write_csv(
        counts_file,
        "unit,time,count\n",
        (unit_lines(u, steps, panel.counts[u]) for u in range(panel.n_nodes)),
    )
