"""Quantile regression forest grown from scratch on variance-reduction splits.

Leaves keep the indices of the training rows that fall into them; a query's
conditional quantile is read off the weighted empirical CDF with
Meinshausen weights: average over trees of
``1{training row shares the query's leaf} / |leaf|``.  Quantiles use the
inf-over-atoms definition (smallest retained target whose cumulative
weight reaches the level), with no interpolation.

Trees are flat arrays: per node a split feature (-1 marks a leaf), a
threshold and two child ids, and the leaves' members in CSR form (per node
a start and a size into one flat array of row indices).  Growing works on
integer ranks, as SLIQ's presorted attribute lists do: ``fit_forest`` codes
each feature once per forest as dense ranks (``uint16`` below 65,536 rows,
else ``uint32``), equal values sharing a rank.  Each tree stable-argsorts
the ranks of its sample once, at the root, which orders rows exactly as a
stable float sort would; every split partitions the sorted row lists
stably, and all candidate features of a node are scored in one matrix, at
the positions that leave ``min_leaf`` rows on each side.  Split validity
and the partition compare ranks; a node holds no row strictly between the
two values around its split, so ``rank <= rank(lo)`` is ``x <= threshold``
for its rows, and only the winning split reads its two floats.  The rows,
their order and the running sums are those of a per-node stable sort, so
trees do not depend on this bookkeeping.

Queries are batched.  ``FittedForest.quantile`` takes a ``(Q, p)`` block of
queries and a 1-D array of levels and returns a ``(Q, L)`` array.  A
forest keeps its trees concatenated into forest-wide node arrays, with
child ids offset per tree and leaf members stored as positions in target
order; all (tree, query) pairs are routed at once, level by level.
The weights of a chunk of queries are accumulated, already in target
order, into a dense ``(chunk, n)`` block with one ``np.add.at`` in
(tree, query, member) order, so each weight receives exactly the additions
it would as a one-row block, tree by tree, in the same order: each row of a
block's result is bit-identical to that row queried alone.

Determinism: per-tree RNGs derive from the config seed, candidate features
are sampled without replacement, ties in split quality resolve to the
lowest feature index and then the lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateData, DimensionMismatch

__all__ = ["ForestConfig", "FittedForest", "fit_forest"]

# guards float round-off when cumulative weights land exactly on a level
_LEVEL_SLACK = 1e-9
# float64 cells in one dense (queries x training rows) weight block: 1 MiB
_WEIGHT_BLOCK = 1 << 17
# split scores square sums of up to n targets, which must stay finite
_SUM_LIMIT = float(np.sqrt(np.finfo(np.float64).max))


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: "int | None" = None
    min_leaf: int = 5
    mtry: "int | None" = None  # default ceil(p / 3)
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise DegenerateData(f"n_trees must be >= 1, got {self.n_trees}")
        if self.min_leaf < 1:
            raise DegenerateData(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.max_depth is not None and self.max_depth < 0:
            raise DegenerateData(f"max_depth must be >= 0, got {self.max_depth}")
        if self.mtry is not None and self.mtry < 1:
            raise DegenerateData(f"mtry must be >= 1, got {self.mtry}")


@dataclass
class _Tree:
    feature: np.ndarray  # int32, -1 marks a leaf
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    leaf_start: np.ndarray  # per node: offset of its members in ``members``
    leaf_size: np.ndarray  # per node: number of members, 0 inside
    members: np.ndarray  # original row indices of all leaves, leaf after leaf


@dataclass
class FittedForest:
    trees: list
    targets: np.ndarray  # original training targets
    n_features: int
    config: ForestConfig
    # the trees end to end, as one tree with a root per tree: child ids and
    # member starts are offset per tree, and members are positions in
    # ``_sorted_targets``
    _joined: _Tree = field(init=False, repr=False)
    _roots: np.ndarray = field(init=False, repr=False)
    _sorted_targets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        order = np.argsort(self.targets, kind="stable")
        self._sorted_targets = self.targets[order]
        position = np.empty_like(order)
        position[order] = np.arange(order.shape[0])
        n_nodes = np.array([tree.feature.shape[0] for tree in self.trees])
        n_members = np.array([tree.members.shape[0] for tree in self.trees])
        self._roots = np.cumsum(n_nodes) - n_nodes
        node_base = np.repeat(self._roots, n_nodes)
        member_base = np.repeat(np.cumsum(n_members) - n_members, n_nodes)

        def joined(name):
            return np.concatenate([getattr(tree, name) for tree in self.trees])

        self._joined = _Tree(
            feature=joined("feature"),
            threshold=joined("threshold"),
            left=joined("left") + node_base,
            right=joined("right") + node_base,
            leaf_start=joined("leaf_start") + member_base,
            leaf_size=joined("leaf_size"),
            members=position[joined("members")],
        )

    @property
    def n_samples(self) -> int:
        return self.targets.shape[0]

    def _leaves(self, queries: np.ndarray) -> np.ndarray:
        """(n_trees, Q) forest-wide leaf ids of a (Q, p) query block."""
        tree, n_queries = self._joined, queries.shape[0]
        node = np.repeat(self._roots, n_queries)  # tree after tree, queries in order
        active = np.flatnonzero(tree.feature[node] >= 0)
        while active.shape[0]:
            at = node[active]
            go_left = queries[active % n_queries, tree.feature[at]] <= tree.threshold[at]
            at = np.where(go_left, tree.left[at], tree.right[at])
            node[active] = at
            active = active[tree.feature[at] >= 0]
        return node.reshape(len(self.trees), n_queries)

    def _weight_block(self, leaves: np.ndarray) -> np.ndarray:
        """Dense (Q, n) Meinshausen weights, columns in target order, of
        queries with (n_trees, Q) leaves."""
        n_queries = leaves.shape[1]
        w = np.zeros((n_queries, self.n_samples))
        start = self._joined.leaf_start[leaves].reshape(-1)
        size = self._joined.leaf_size[leaves].reshape(-1)
        first = np.cumsum(size) - size  # where each (tree, query)'s members begin
        members = self._joined.members[np.arange(size.sum()) + np.repeat(start - first, size)]
        row_base = np.tile(np.arange(n_queries) * self.n_samples, len(self.trees))
        per_tree = 1.0 / len(self.trees)
        np.add.at(
            w.reshape(-1), np.repeat(row_base, size) + members, np.repeat(per_tree / size, size)
        )
        return w

    def quantile(self, queries, levels) -> np.ndarray:
        """(Q, L) conditional quantiles of a (Q, p) query block at 1-D levels in (0, 1)."""
        queries = np.asarray(queries, dtype=np.float64)
        levels = np.asarray(levels, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.n_features or levels.ndim != 1:
            raise DimensionMismatch(
                f"queries {queries.shape} and levels {levels.shape} are not a "
                f"(Q, {self.n_features}) block and a 1-D array"
            )
        if not np.all((levels > 0) & (levels < 1)):  # NaN too
            raise DimensionMismatch(f"levels must lie in (0, 1), got {levels}")
        leaves = self._leaves(queries)
        n = self.n_samples
        values = np.empty((queries.shape[0], levels.shape[0]))
        chunk = max(1, _WEIGHT_BLOCK // n)
        for lo in range(0, queries.shape[0], chunk):
            cum = np.cumsum(self._weight_block(leaves[:, lo : lo + chunk]), axis=1)
            for i, target in enumerate(levels - _LEVEL_SLACK):
                # rows of cum are nondecreasing: this counts what a left
                # searchsorted would return
                idx = np.minimum(np.count_nonzero(cum < target, axis=1), n - 1)
                values[lo : lo + chunk, i] = self._sorted_targets[idx]
        return values


def _best_split(ranks, yy, sorted_rows, feats, min_leaf):
    """Lowest-SSE axis split of a node, or None.

    ``sorted_rows[f]`` lists the node's rows by ascending rank of feature
    ``f``, ties by row index, and ``yy`` holds the targets and their
    squares.  All candidate features are scored at once, one row of the
    score matrix each, at the positions that leave ``min_leaf`` rows on each
    side.  Returns the feature, the rows on either side of the split in its
    list, and the number of rows it sends left.
    """
    order = sorted_rows.take(feats, axis=0)
    n = order.shape[1]
    first, stop = min_leaf - 1, n - min_leaf  # scored positions: last row on the left
    sizes_l = np.arange(min_leaf, stop + 1)
    rs = ranks[feats[:, None], order]
    cum, cumsq = yy.take(order, axis=1).cumsum(axis=2)
    total, total_sq = cum[:, -1:], cumsq[:, -1:]
    cum, cumsq = cum[:, first:stop], cumsq[:, first:stop]
    sse_l = cumsq - cum**2 / sizes_l
    sse_r = (total_sq - cumsq) - (total - cum) ** 2 / (n - sizes_l)
    # a valid score is finite, so a feature without one scores inf
    score = np.where(rs[:, first:stop] < rs[:, first + 1 : stop + 1], sse_l + sse_r, np.inf)
    best = score.min(axis=1)
    i = int(best.argmin())  # first: lowest feature
    if best[i] == np.inf:
        return None
    last = first + int(score[i].argmin())  # first minimum: lowest threshold
    return int(feats[i]), int(order[i, last]), int(order[i, last + 1]), last + 1


def _grow_tree(x, ranks, y, sample, config: ForestConfig, mtry: int, rng) -> _Tree:
    """Grow one tree on rows ``sample`` of ``x``; ``ranks`` and ``y`` hold
    the sample's feature ranks (p, n) and targets.

    Every feature's ranks are stable-argsorted once at the root; a split
    partitions each sorted row list stably, so a node's lists are exactly
    the stable argsorts of its own rows.
    """
    feature, threshold, left, right, members = [], [], [], [], []

    def add_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        members.append(None)
        return len(feature) - 1

    yy = np.stack([y, y * y])
    stack = [(add_node(), np.argsort(ranks, axis=1, kind="stable"), 0)]
    while stack:
        node, sorted_rows, depth = stack.pop()
        depth_ok = config.max_depth is None or depth < config.max_depth
        split = None
        if depth_ok and sorted_rows.shape[1] >= 2 * config.min_leaf:
            feats = rng.choice(ranks.shape[0], size=mtry, replace=False)
            feats.sort()
            split = _best_split(ranks, yy, sorted_rows, feats, config.min_leaf)
        if split is None:
            members[node] = sample[np.sort(sorted_rows[0])]
            continue
        f, row_lo, row_hi, n_left = split
        lo, hi = float(x[sample[row_lo], f]), float(x[sample[row_hi], f])
        mid = 0.5 * (lo + hi)
        # x <= lo is the scored partition; the midpoint of neighbouring
        # doubles can round up to hi, and lo + hi can overflow to inf
        threshold[node] = mid if lo <= mid < hi else lo
        feature[node] = f
        # the scored partition: n_left >= min_leaf rows go left, and at least
        # as many right, so no child holds all of its parent's rows
        goes_left = ranks[f].take(sorted_rows) <= ranks[f, row_lo]
        left_id, right_id = add_node(), add_node()
        left[node] = left_id
        right[node] = right_id
        n_features = sorted_rows.shape[0]
        stack.append((right_id, sorted_rows[~goes_left].reshape(n_features, -1), depth + 1))
        stack.append((left_id, sorted_rows[goes_left].reshape(n_features, n_left), depth + 1))
    leaf_size = np.array([0 if m is None else m.shape[0] for m in members], dtype=np.intp)
    return _Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        leaf_start=np.cumsum(leaf_size) - leaf_size,
        leaf_size=leaf_size,
        members=np.concatenate([m for m in members if m is not None]).astype(np.intp),
    )


def fit_forest(features, targets, config: "ForestConfig | None" = None) -> FittedForest:
    """Grow the forest; deterministic given ``config.seed``."""
    config = config or ForestConfig()
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise DegenerateData(
            f"features {x.shape} and targets {y.shape} are not an aligned (n, p) / (n,)"
        )
    n, p = x.shape
    if n == 0:
        raise DegenerateData("empty training set")
    if np.any(~np.isfinite(x)) or np.any(~np.isfinite(y)):
        raise DegenerateData("features/targets contain NaN or Inf")
    largest = np.max(np.abs(y))
    if largest > _SUM_LIMIT / n:
        raise DegenerateData(f"targets up to {largest!r} are too large to score splits")
    mtry = config.mtry if config.mtry is not None else int(np.ceil(p / 3))
    if mtry > p:
        raise DegenerateData(f"mtry={mtry} exceeds {p} features")

    # dense ranks: equal values (-0.0 and 0.0 too) share one
    ranks = np.empty((p, n), dtype=np.uint16 if n < 1 << 16 else np.uint32)
    for f in range(p):
        ranks[f] = np.unique(x[:, f], return_inverse=True)[1]
    trees = []
    for child_seed in np.random.SeedSequence(config.seed).spawn(config.n_trees):
        rng = np.random.default_rng(child_seed)
        if config.bootstrap:
            sample = rng.integers(0, n, size=n)
        else:
            sample = np.arange(n)
        trees.append(_grow_tree(x, ranks[:, sample], y[sample], sample, config, mtry, rng))
    return FittedForest(trees=trees, targets=y.copy(), n_features=p, config=config)
