"""Quantile regression forest grown from scratch on variance-reduction splits.

Leaves keep the indices of the training rows that fall into them; a query's
conditional quantile is read off the weighted empirical CDF with
Meinshausen weights: average over trees of
``1{training row shares the query's leaf} / |leaf|``.  Quantiles use the
inf-over-atoms definition (smallest retained target whose cumulative
weight reaches the level), with no interpolation.

Trees are flat arrays: per node a split feature (-1 marks a leaf), a
threshold and two child ids, and the leaves' members in CSR form (per node
a start and a size into one flat array of row indices).  Growing a tree
sorts each feature once, at the root; every split partitions the sorted
row lists stably, and all candidate features of a node are scored in one
matrix.  The rows, their order and the running sums are those of a
per-node stable sort, so trees do not depend on this bookkeeping.

Queries are batched.  ``FittedForest.quantile`` takes one ``(p,)`` query or
a ``(Q, p)`` block; every tree routes all queries at once, level by level.
The weights of a chunk of queries are accumulated into a dense
``(chunk, n)`` block with one ``np.add.at`` per tree, trees in order and a
leaf's members in order, so each weight receives exactly the additions a
single query would, in the same order: batched and one-at-a-time results
are bit-identical.

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

    def leaves(self, queries: np.ndarray) -> np.ndarray:
        """Leaf node id of every row of a (Q, p) query block."""
        node = np.zeros(queries.shape[0], dtype=np.intp)
        active = np.flatnonzero(self.feature[node] >= 0)
        while active.shape[0]:
            at = node[active]
            go_left = queries[active, self.feature[at]] <= self.threshold[at]
            at = np.where(go_left, self.left[at], self.right[at])
            node[active] = at
            active = active[self.feature[at] >= 0]
        return node

    def leaf_members(self, node: int) -> np.ndarray:
        start = self.leaf_start[node]
        return self.members[start : start + self.leaf_size[node]]


@dataclass
class FittedForest:
    trees: list
    targets: np.ndarray  # original training targets
    n_features: int
    config: ForestConfig
    _order: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._order = np.argsort(self.targets, kind="stable")

    @property
    def n_samples(self) -> int:
        return self.targets.shape[0]

    def _query_block(self, query) -> "tuple[np.ndarray, bool]":
        """A (Q, p) float block and whether the input was a single query."""
        queries = np.asarray(query, dtype=np.float64)
        single = queries.ndim <= 1
        if single:
            queries = queries.reshape(1, -1)
        if queries.ndim != 2 or queries.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"query of shape {np.shape(query)} does not have the forest's "
                f"{self.n_features} features"
            )
        return queries, single

    def _leaves(self, queries: np.ndarray) -> np.ndarray:
        """(n_trees, Q) leaf ids of a query block."""
        return np.stack([tree.leaves(queries) for tree in self.trees])

    def _weight_block(self, leaves: np.ndarray) -> np.ndarray:
        """Dense (Q, n) Meinshausen weights of queries with (n_trees, Q) leaves."""
        n_queries = leaves.shape[1]
        w = np.zeros((n_queries, self.n_samples))
        flat = w.reshape(-1)
        row_base = np.arange(n_queries) * self.n_samples
        per_tree = 1.0 / len(self.trees)
        for tree, leaf in zip(self.trees, leaves):
            start = tree.leaf_start[leaf]
            size = tree.leaf_size[leaf]
            first = np.cumsum(size) - size  # where each query's members begin
            members = tree.members[np.arange(size.sum()) + np.repeat(start - first, size)]
            np.add.at(flat, np.repeat(row_base, size) + members, np.repeat(per_tree / size, size))
        return w

    def weights(self, query) -> np.ndarray:
        """Meinshausen weights over the training rows; nonnegative, sum to 1.

        One (p,) query gives an (n,) vector, a (Q, p) block a (Q, n) matrix.
        """
        queries, single = self._query_block(query)
        w = self._weight_block(self._leaves(queries))
        return w[0] if single else w

    def quantile(self, query, level):
        """Conditional quantile(s) at one or more levels in (0, 1).

        One (p,) query gives a float per scalar level or an (L,) array; a
        (Q, p) block gives (Q,) or (Q, L).
        """
        levels = np.atleast_1d(np.asarray(level, dtype=np.float64))
        if np.any(levels <= 0) or np.any(levels >= 1):
            raise DimensionMismatch(f"levels must lie in (0, 1), got {level}")
        queries, single = self._query_block(query)
        leaves = self._leaves(queries)
        n = self.n_samples
        values = np.empty((queries.shape[0], levels.shape[0]))
        chunk = max(1, _WEIGHT_BLOCK // n)
        for lo in range(0, queries.shape[0], chunk):
            cum = np.cumsum(self._weight_block(leaves[:, lo : lo + chunk])[:, self._order], axis=1)
            for i, target in enumerate(levels - _LEVEL_SLACK):
                # rows of cum are nondecreasing: this counts what a left
                # searchsorted would return
                idx = np.minimum(np.count_nonzero(cum < target, axis=1), n - 1)
                values[lo : lo + chunk, i] = self.targets[self._order[idx]]
        if single:
            values = values[0]
        if np.isscalar(level) or np.ndim(level) == 0:
            return float(values[0]) if single else values[:, 0]
        return values

    def to_debug_dict(self) -> dict:
        """Dump tree structure for inspection; layout not stability-guaranteed."""
        return {
            "n_samples": self.n_samples,
            "n_features": self.n_features,
            "trees": [
                {
                    "feature": tree.feature.tolist(),
                    "threshold": tree.threshold.tolist(),
                    "left": tree.left.tolist(),
                    "right": tree.right.tolist(),
                    "leaf_members": [
                        None if f >= 0 else tree.leaf_members(node).tolist()
                        for node, f in enumerate(tree.feature)
                    ],
                }
                for tree in self.trees
            ],
        }


def _best_split(xt, y, sorted_rows, feats, min_leaf):
    """Lowest-SSE axis split of a node; returns (feature, threshold) or None.

    ``sorted_rows[f]`` lists the node's rows by ascending feature ``f``,
    ties by row index.  All candidate features are scored at once, one row
    of the score matrix each.
    """
    order = sorted_rows[feats]
    n = order.shape[1]
    sizes_l = np.arange(1, n)
    size_ok = (sizes_l >= min_leaf) & (n - sizes_l >= min_leaf)
    xs = xt[feats[:, None], order]
    ys = y[order]
    cum = np.cumsum(ys, axis=1)
    cumsq = np.cumsum(ys * ys, axis=1)
    total, total_sq = cum[:, -1:], cumsq[:, -1:]
    valid = size_ok & (xs[:, :-1] < xs[:, 1:])
    candidates = np.flatnonzero(valid.any(axis=1))
    if candidates.shape[0] == 0:
        return None
    sse_l = cumsq[:, :-1] - cum[:, :-1] ** 2 / sizes_l
    sse_r = (total_sq - cumsq[:, :-1]) - (total - cum[:, :-1]) ** 2 / (n - sizes_l)
    score = np.where(valid, sse_l + sse_r, np.inf)
    pos = np.argmin(score, axis=1)  # first minimum per feature: lowest threshold
    best = score[np.arange(feats.shape[0]), pos]
    i = int(candidates[np.argmin(best[candidates])])  # first: lowest feature
    lo, hi = float(xs[i, pos[i]]), float(xs[i, pos[i] + 1])
    mid = 0.5 * (lo + hi)
    # x <= lo is the scored partition; the midpoint of neighbouring doubles
    # can round up to hi, and lo + hi can overflow to inf
    return int(feats[i]), mid if lo <= mid < hi else lo


def _grow_tree(x, y, orig, config: ForestConfig, mtry: int, rng) -> _Tree:
    """Grow one tree on the sample ``x``, ``y``; ``orig`` maps its rows back.

    Every feature is stable-argsorted once at the root; a split partitions
    each sorted row list stably, so a node's lists are exactly the stable
    argsorts of its own rows.
    """
    feature, threshold, left, right, members = [], [], [], [], []

    def add_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        members.append(None)
        return len(feature) - 1

    xt = np.ascontiguousarray(x.T)
    stack = [(add_node(), np.argsort(xt, axis=1, kind="stable"), 0)]
    while stack:
        node, sorted_rows, depth = stack.pop()
        depth_ok = config.max_depth is None or depth < config.max_depth
        splittable = depth_ok and sorted_rows.shape[1] >= 2 * config.min_leaf
        split = None
        if splittable:
            feats = np.sort(rng.choice(x.shape[1], size=mtry, replace=False))
            split = _best_split(xt, y, sorted_rows, feats, config.min_leaf)
        if split is not None:
            f, thr = split
            goes_left = (xt[f] <= thr)[sorted_rows]
            # a child holding all of its parent's rows would split forever
            if not 0 < np.count_nonzero(goes_left[0]) < sorted_rows.shape[1]:
                split = None
        if split is None:
            members[node] = orig[np.sort(sorted_rows[0])]
            continue
        feature[node] = f
        threshold[node] = thr
        left_id, right_id = add_node(), add_node()
        left[node] = left_id
        right[node] = right_id
        n_features = sorted_rows.shape[0]
        stack.append((right_id, sorted_rows[~goes_left].reshape(n_features, -1), depth + 1))
        stack.append((left_id, sorted_rows[goes_left].reshape(n_features, -1), depth + 1))
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
    if x.ndim == 1:
        x = x[:, None]
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

    trees = []
    for child_seed in np.random.SeedSequence(config.seed).spawn(config.n_trees):
        rng = np.random.default_rng(child_seed)
        if config.bootstrap:
            sample = rng.integers(0, n, size=n)
        else:
            sample = np.arange(n)
        trees.append(_grow_tree(x[sample], y[sample], sample, config, mtry, rng))
    return FittedForest(trees=trees, targets=y.copy(), n_features=p, config=config)
