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

* edge list:   ``src,dst``
* weather:     ``unit,time,variable,value``  (long format, dense)
* counts:      ``unit,time,count``
"""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property
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
    """A read-only copy of ``arr``, so freezing never reaches the caller's array."""
    arr = np.array(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ServiceGraph:
    """Directed influence graph over K geographical units.

    ``edges`` holds the ``(src, dst)`` pairs in sorted order, the order of
    the coupling parameters; ``edge_index`` is the same list as a read-only
    (E, 2) array, built on first use.
    """

    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    neighbors: tuple[frozenset[int], ...] = field(repr=False)

    @classmethod
    def from_edges(
        cls,
        n_nodes: int,
        edges: "list[tuple] | tuple[tuple, ...]" = (),
    ) -> "ServiceGraph":
        """Validate a list of (src, dst) pairs and build neighbor sets.

        Raises DuplicateEdge, SymmetricEdgePair, UnknownNodeReference, or
        MalformedRow on contract violations.
        """
        if n_nodes < 1:
            raise MalformedRow(f"need at least one node, got {n_nodes}")
        seen: set[tuple[int, int]] = set()
        for edge in edges:
            if len(edge) != 2:
                raise MalformedRow(f"edge {edge!r} is not (src, dst)")
            src, dst = int(edge[0]), int(edge[1])
            if not (0 <= src < n_nodes) or not (0 <= dst < n_nodes):
                raise UnknownNodeReference(
                    f"edge ({src}, {dst}) references a node outside 0..{n_nodes - 1}"
                )
            if src == dst:
                raise MalformedRow(
                    f"explicit self-loop ({src}, {dst}); self-influence is implicit"
                )
            if (src, dst) in seen:
                raise DuplicateEdge(f"edge ({src}, {dst}) appears twice")
            if (dst, src) in seen:
                raise SymmetricEdgePair(
                    f"both ({src}, {dst}) and ({dst}, {src}) present"
                )
            seen.add((src, dst))
        nbrs = [{i} for i in range(n_nodes)]
        for src, dst in seen:
            nbrs[dst].add(src)
        return cls(
            n_nodes=n_nodes,
            edges=tuple(sorted(seen)),
            neighbors=tuple(frozenset(s) for s in nbrs),
        )

    def neighborhood(self, node: int) -> frozenset[int]:
        """N(node): influence sources plus the node itself."""
        return self.neighbors[node]

    def edge_pairs(self) -> list[tuple[int, int]]:
        """Sorted (src, dst) pairs; the canonical coupling-parameter order."""
        return list(self.edges)

    @cached_property
    def edge_index(self) -> np.ndarray:
        return _readonly(np.array(self.edges, dtype=np.intp).reshape(-1, 2), np.intp)


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
            counts_arr = counts_arr.astype(np.int64, copy=False)
        if np.any(counts_arr < 0):
            raise NegativeCount("counts contain negative values")
        return cls(weather=_readonly(weather), counts=_readonly(counts_arr, np.int64))

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

_EDGE_ROW = np.dtype([("src", np.int64), ("dst", np.int64)])
_WEATHER_ROW = np.dtype(
    [("unit", np.int64), ("time", np.int64), ("variable", np.int64), ("value", np.float64)]
)
# counts parse as floats, so "3.0" reads as 3 and "2.5" is a non-integer count
_COUNTS_ROW = np.dtype([("unit", np.int64), ("time", np.int64), ("count", np.float64)])
# data rows per np.loadtxt call: a block of weather rows takes 2 MiB
_BLOCK_ROWS = 65_536


def _read_blocks(path: "str | Path", row_dtype: np.dtype, error=MalformedRow, empty_ok=False):
    """The data rows of a CSV whose header names ``row_dtype``'s fields, as
    structured arrays of at most ``_BLOCK_ROWS`` rows.

    Each block is one ``np.loadtxt`` call on the open file, which resumes
    after the rows the last call consumed, so no whole-file array is made.
    Fields may be quoted or padded with spaces, and blank lines are skipped.
    An empty file, a wrong header, a row with the wrong number of fields, a
    token that does not parse as its field's type, and (unless ``empty_ok``)
    a file without data rows raise ``error``; a parse error names the row
    as it counts among the file's data rows.
    """
    path = Path(path)
    names = list(row_dtype.names)
    with path.open("r", encoding="utf-8", newline="") as handle:
        done = 0
        try:
            line = handle.readline()
            if not line:
                raise error(f"{path}: empty file, expected header row")
            header = [h.strip() for h in next(csv.reader([line]), [])]
            if header != names:
                raise error(f"{path}: header {header} does not match {names}")
            while True:
                with warnings.catch_warnings():
                    # the last call finds no rows (a header-only file is reported
                    # below), and blank lines are skipped rather than counted
                    for message in ("loadtxt: input contained no data", "Input line"):
                        warnings.filterwarnings("ignore", message, UserWarning)
                    block = np.loadtxt(
                        handle,
                        dtype=row_dtype,
                        delimiter=",",
                        quotechar='"',
                        comments=None,
                        ndmin=1,
                        max_rows=_BLOCK_ROWS,
                    )
                last = block.size < _BLOCK_ROWS
                if last and not (done or block.size or empty_ok):
                    raise error(f"{path}: no data rows")
                yield block
                if last:
                    return
                done += block.size
        except ValueError as exc:
            # loadtxt counts rows from the start of its own call
            message = re.sub(r"at row (\d+)", lambda m: f"at row {int(m[1]) + done}", str(exc))
            raise error(f"{path}: {message}") from None


def read_table(
    path: "str | Path",
    row_dtype: np.dtype,
    error=MalformedRow,
    empty_ok: bool = False,
) -> np.ndarray:
    """``_read_blocks``' blocks joined into one structured array."""
    return np.concatenate(list(_read_blocks(path, row_dtype, error, empty_ok)))


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


def _read_grid(path, row_dtype: np.dtype, value_dtype, value_checks):
    """Read a long-format panel file into the grid its ids imply.

    Returns the grid shape, the values as ``value_dtype`` placed on it in C
    order (flat), and the first cell no row names (None when every cell has
    a row; the values are then None too).

    The file is read in ``_read_blocks``' blocks.  Between blocks only each
    row's ids (time 0-based), in the narrowest unsigned dtype that holds
    them, and its value are kept.  ``value_checks`` are ``(test, error,
    what)`` triples, ``test`` marking bad values; after the last block the
    first offending row of the first check that failed raises ``error``.
    Then ids out of domain and a cell named twice raise MalformedRow.  When
    there are as many rows as cells, marking them shows at once whether each
    cell has exactly one row.  Otherwise repeats and gaps are found by
    sorting rather than by ``np.bincount``, so a mistyped id that implies a
    huge grid costs memory per row, not per cell.
    """
    # every field but the last is a coordinate; time is 1-based in files
    names = row_dtype.names[:-1]
    checks = [*value_checks, (None, MalformedRow, f"{'/'.join(names)} out of domain")]
    first_bad = [None] * len(checks)
    ids, values = [], []
    for block in _read_blocks(path, row_dtype):
        value = block[row_dtype.names[-1]]
        keys = [block[n] - 1 if n == "time" else block[n] for n in names]
        bads = [test(value) for test, _, _ in value_checks]
        bads.append(np.logical_or.reduce([key < 0 for key in keys]))
        for i, bad in enumerate(bads):
            if first_bad[i] is None and bad.any():
                first_bad[i] = block[np.argmax(bad)].tolist()
        # after a failed check only a parse error can still change the verdict
        if block.size and all(row is None for row in first_bad):
            ids.append([key.astype(np.min_scalar_type(key.max())) for key in keys])
            values.append(value.astype(value_dtype))
    for (_, error, what), row in zip(checks, first_bad):
        if row is not None:
            raise error(f"{path}: {what} in row {row}")

    shape = tuple(int(max(key.max() for key in column)) + 1 for column in zip(*ids))
    size = math.prod(shape)
    if size >= 2**63:
        raise MalformedRow(f"{path}: ids imply a {shape} grid, too large to index")
    n_rows = sum(block.size for block in values)
    if n_rows == size:
        seen = np.zeros(size, dtype=bool)
        dense = np.empty(size, dtype=value_dtype)
        for keys, value in zip(ids, values):
            cells = np.ravel_multi_index(keys, shape)
            seen[cells] = True
            dense[cells] = value
        if seen.all():
            return shape, dense, None
        del seen, dense
    cells = np.concatenate([np.ravel_multi_index(keys, shape) for keys in ids])
    ordered = np.sort(cells)
    repeats = np.flatnonzero(ordered[1:] == ordered[:-1])
    if repeats.size:
        # every block but the last holds _BLOCK_ROWS rows
        block, at = divmod(int(np.flatnonzero(cells == ordered[repeats[0]])[1]), _BLOCK_ROWS)
        keys = [int(key[at]) + (name == "time") for name, key in zip(names, ids[block])]
        raise MalformedRow(
            f"{path}: duplicate cell in row {(*keys, float(values[block][at]))}"
        )
    # the sorted indices are distinct and fewer than the cells, so the first
    # gap is the first missing cell
    gaps = np.flatnonzero(ordered != np.arange(ordered.size))
    return shape, None, int(gaps[0]) if gaps.size else ordered.size


def load_graph(edge_file: "str | Path", n_nodes: int) -> ServiceGraph:
    """Read an edge-list CSV (header ``src,dst``) over nodes 0..n_nodes-1.

    The file carries no node universe of its own, so isolated nodes and a
    header-only file (no edges) are allowed.
    """
    rows = read_table(edge_file, _EDGE_ROW, empty_ok=True)
    return ServiceGraph.from_edges(n_nodes, rows.tolist())


def write_graph(graph: ServiceGraph, edge_file: "str | Path") -> None:
    write_csv(edge_file, "src,dst\n", (f"{src},{dst}\n" for src, dst in graph.edges))


# each file's value checks, in the order they are reported
_WEATHER_CHECKS = ((lambda value: ~np.isfinite(value), MalformedRow, "non-finite value"),)
_COUNT_CHECKS = (
    (lambda raw: ~np.isfinite(raw) | (raw != np.floor(raw)), NonIntegerCount,
     "count is not an integer"),
    (lambda raw: raw < 0, NegativeCount, "negative count"),
    (lambda raw: raw >= 2.0**63, MalformedRow, "count beyond int64"),
)


def load_panel(weather_file: "str | Path", counts_file: "str | Path") -> PanelDataset:
    """Read long-format weather and counts CSVs into dense validated arrays.

    Units must be 0..K-1 and times 1..T with every cell present; any gap
    raises MissingCell.
    """
    weather = _read_grid(weather_file, _WEATHER_ROW, np.float64, _WEATHER_CHECKS)
    counts = _read_grid(counts_file, _COUNTS_ROW, np.int64, _COUNT_CHECKS)
    (k_w, t_w, _), (k_c, t_c) = weather[0], counts[0]
    if (k_w, t_w) != (k_c, t_c):
        raise DimensionMismatch(
            f"weather implies (K={k_w}, T={t_w}) but counts imply (K={k_c}, T={t_c})"
        )
    for path, row_dtype, (shape, _, missing) in (
        (weather_file, _WEATHER_ROW, weather), (counts_file, _COUNTS_ROW, counts)
    ):
        if missing is not None:
            where = ", ".join(
                f"{name}={int(i) + 1 if name == 'time' else int(i)}"
                for name, i in zip(row_dtype.names, np.unravel_index(missing, shape))
            )
            raise MissingCell(f"{path}: cell ({where}) missing")
    return PanelDataset.build(weather[1].reshape(weather[0]), counts[1].reshape(counts[0]))


def unit_lines(tails: list[str]):
    """The function of ``(unit, values)`` that returns the lines
    ``f"{unit},{tail}{value!r}\n"``, one per (tail, value), as one string.

    The ``"{tail}%r\n"`` lines are built once; a unit prefixes each with
    ``"{unit},"`` and formats all its values with one ``%``, where ``%r`` is
    ``repr``.
    """
    lines = [f"{tail}%r\n" for tail in tails]

    def format_unit(unit: int, values: np.ndarray) -> str:
        if not lines:
            return ""
        return (f"{unit}," + f"{unit},".join(lines)) % tuple(values.tolist())

    return format_unit


def write_panel(
    panel: PanelDataset,
    weather_file: "str | Path",
    counts_file: "str | Path",
) -> None:
    """Write the canonical long-format CSVs (rows sorted by unit, time, variable).

    Floats are emitted via repr, so write -> load -> write is a byte-level
    fixpoint.  Each unit's rows go out in one write call.
    """
    cells = unit_lines(
        [f"{t},{v}," for t in range(1, panel.n_steps + 1) for v in range(panel.n_vars)]
    )
    steps = unit_lines([f"{t}," for t in range(1, panel.n_steps + 1)])
    write_csv(
        weather_file,
        "unit,time,variable,value\n",
        (cells(u, panel.weather[u].ravel()) for u in range(panel.n_nodes)),
    )
    write_csv(
        counts_file,
        "unit,time,count\n",
        (steps(u, panel.counts[u]) for u in range(panel.n_nodes)),
    )
