import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcp.errors import (
    BadFractions,
    DimensionMismatch,
    DuplicateEdge,
    MalformedRow,
    MissingCell,
    NegativeCount,
    NonIntegerCount,
    SymmetricEdgePair,
    UnknownNodeReference,
)
from graphcp.panel import (
    PanelDataset,
    ServiceGraph,
    load_graph,
    load_panel,
    split,
    write_graph,
    write_panel,
)


def make_panel(k=2, t=3, m=1, seed=0):
    rng = np.random.default_rng(seed)
    return PanelDataset.build(
        rng.normal(size=(k, t, m)), rng.poisson(2.0, size=(k, t))
    )


# ---------------------------------------------------------------- graph


def test_neighborhood_includes_source_and_self():
    graph = ServiceGraph.from_edges(2, [(1, 0)])
    assert sorted(graph.neighborhood(0)) == [0, 1]
    assert sorted(graph.neighborhood(1)) == [1]


def test_isolated_nodes_have_singleton_neighborhoods():
    graph = ServiceGraph.from_edges(3, [])
    for node in range(3):
        assert graph.neighborhood(node) == frozenset({node})


def test_symmetric_pair_rejected():
    with pytest.raises(SymmetricEdgePair):
        ServiceGraph.from_edges(2, [(0, 1), (1, 0)])


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdge):
        ServiceGraph.from_edges(3, [(0, 1), (0, 1)])


def test_unknown_node_rejected():
    with pytest.raises(UnknownNodeReference):
        ServiceGraph.from_edges(2, [(0, 5)])


def test_explicit_self_loop_rejected():
    with pytest.raises(MalformedRow):
        ServiceGraph.from_edges(2, [(1, 1)])


@given(
    n_nodes=st.integers(2, 8),
    pair_ids=st.lists(st.integers(0, 55), unique=True, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_neighborhood_sizes_sum_to_nodes_plus_edges(n_nodes, pair_ids):
    # decode ids into distinct ordered pairs over a fixed 8-node universe,
    # one direction per unordered pair so antisymmetry holds by construction
    edges = []
    for pid in pair_ids:
        src, dst = pid // 8, pid % 8
        if src == dst or src >= n_nodes or dst >= n_nodes:
            continue
        if (dst, src) in [(a, b) for a, b, _ in edges] or (src, dst) in [
            (a, b) for a, b, _ in edges
        ]:
            continue
        edges.append((src, dst, 1.0))
    graph = ServiceGraph.from_edges(n_nodes, edges)
    total = sum(len(graph.neighborhood(i)) for i in range(n_nodes))
    assert total == n_nodes + len(graph.edges)


@given(
    a=st.integers(0, 4),
    b=st.integers(0, 4),
    extra=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_antisymmetry_rejects_exactly_two_cycles(a, b, extra):
    edges = []
    for src, dst in extra + [(a, b)]:
        if src != dst and (src, dst) not in edges:
            edges.append((src, dst))
    has_two_cycle = any((dst, src) in edges for src, dst in edges)
    if has_two_cycle:
        with pytest.raises(SymmetricEdgePair):
            ServiceGraph.from_edges(5, edges)
    else:
        ServiceGraph.from_edges(5, edges)


def test_graph_file_round_trip(tmp_path):
    graph = ServiceGraph.from_edges(4, [(0, 1, 2.0), (2, 3), (1, 3)])
    path = tmp_path / "graph.csv"
    write_graph(graph, path)
    loaded = load_graph(path, n_nodes=4)
    assert loaded.edges == tuple(sorted(graph.edges))
    assert loaded.neighbors == graph.neighbors


def test_load_graph_requires_node_count_for_isolated_nodes(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("src,dst,weight\n0,1,1.0\n")
    assert load_graph(path, n_nodes=3).n_nodes == 3
    path.write_text("src,dst,weight\n")
    assert load_graph(path, n_nodes=2).edges == ()


def test_load_graph_malformed_rows(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("src,dst\n0,x\n")
    with pytest.raises(MalformedRow):
        load_graph(path, n_nodes=2)
    path.write_text("foo,bar\n0,1\n")
    with pytest.raises(MalformedRow):
        load_graph(path, n_nodes=2)


# ---------------------------------------------------------------- panel


def test_panel_build_validates():
    with pytest.raises(NegativeCount):
        PanelDataset.build(np.zeros((1, 2, 1)), np.array([[1, -1]]))
    with pytest.raises(NonIntegerCount):
        PanelDataset.build(np.zeros((1, 2, 1)), np.array([[1.0, 2.5]]))
    with pytest.raises(DimensionMismatch):
        PanelDataset.build(np.zeros((2, 2, 1)), np.zeros((1, 2), dtype=int))
    with pytest.raises(MissingCell):
        PanelDataset.build(np.full((1, 2, 1), np.nan), np.zeros((1, 2), dtype=int))


def test_panel_arrays_are_read_only():
    panel = make_panel()
    with pytest.raises(ValueError):
        panel.counts[0, 0] = 5


def test_load_panel_dense_happy_path(tmp_path):
    panel = make_panel(k=2, t=3, m=1)
    write_panel(panel, tmp_path / "w.csv", tmp_path / "c.csv")
    loaded = load_panel(tmp_path / "w.csv", tmp_path / "c.csv")
    assert loaded.n_nodes == 2 and loaded.n_steps == 3 and loaded.n_vars == 1
    np.testing.assert_array_equal(loaded.weather, panel.weather)
    np.testing.assert_array_equal(loaded.counts, panel.counts)


def test_load_panel_missing_weather_cell(tmp_path):
    panel = make_panel(k=2, t=3, m=1)
    write_panel(panel, tmp_path / "w.csv", tmp_path / "c.csv")
    lines = (tmp_path / "w.csv").read_text().splitlines()
    target = next(i for i, line in enumerate(lines) if line.startswith("1,2,0"))
    (tmp_path / "w.csv").write_text("\n".join(lines[:target] + lines[target + 1:]) + "\n")
    with pytest.raises(MissingCell):
        load_panel(tmp_path / "w.csv", tmp_path / "c.csv")


def test_load_panel_bad_counts(tmp_path):
    panel = make_panel(k=1, t=2, m=1)
    write_panel(panel, tmp_path / "w.csv", tmp_path / "c.csv")
    (tmp_path / "c.csv").write_text("unit,time,count\n0,1,-1\n0,2,0\n")
    with pytest.raises(NegativeCount):
        load_panel(tmp_path / "w.csv", tmp_path / "c.csv")
    (tmp_path / "c.csv").write_text("unit,time,count\n0,1,1.5\n0,2,0\n")
    with pytest.raises(NonIntegerCount):
        load_panel(tmp_path / "w.csv", tmp_path / "c.csv")


def test_panel_write_load_write_is_byte_fixpoint(tmp_path):
    panel = make_panel(k=3, t=5, m=2, seed=11)
    write_panel(panel, tmp_path / "w1.csv", tmp_path / "c1.csv")
    loaded = load_panel(tmp_path / "w1.csv", tmp_path / "c1.csv")
    write_panel(loaded, tmp_path / "w2.csv", tmp_path / "c2.csv")
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()
    assert (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()


def test_load_panel_row_order_irrelevant(tmp_path):
    panel = make_panel(k=2, t=2, m=2, seed=3)
    write_panel(panel, tmp_path / "w.csv", tmp_path / "c.csv")
    lines = (tmp_path / "w.csv").read_text().splitlines()
    shuffled = [lines[0]] + lines[:0:-1]
    (tmp_path / "w.csv").write_text("\n".join(shuffled) + "\n")
    loaded = load_panel(tmp_path / "w.csv", tmp_path / "c.csv")
    np.testing.assert_array_equal(loaded.weather, panel.weather)


# ---------------------------------------------------------------- split


def test_split_even_thirds():
    data_split = split(make_panel(t=9), (1 / 3, 1 / 3, 1 / 3))
    assert data_split.train == (1, 3)
    assert data_split.calibration == (4, 6)
    assert data_split.test == (7, 9)


def test_split_remainder_goes_to_test():
    data_split = split(make_panel(t=10), (1 / 3, 1 / 3, 1 / 3))
    assert data_split.train == (1, 3)
    assert data_split.calibration == (4, 6)
    assert data_split.test == (7, 10)


def test_split_too_short():
    with pytest.raises(BadFractions):
        split(make_panel(t=2), (1 / 3, 1 / 3, 1 / 3))


def test_split_bad_fractions():
    panel = make_panel(t=9)
    with pytest.raises(BadFractions):
        split(panel, (0.5, 0.5, 0.5))
    with pytest.raises(BadFractions):
        split(panel, (0.5, 0.5, 0.0))


@given(
    t=st.integers(3, 400),
    f1=st.floats(0.05, 0.9),
    f2=st.floats(0.05, 0.9),
)
@settings(max_examples=80, deadline=None)
def test_split_covers_everything_in_order(t, f1, f2):
    if f1 + f2 >= 0.95:
        return
    panel = make_panel(t=t)
    fractions = (f1, f2, 1.0 - f1 - f2)
    try:
        ds = split(panel, fractions)
    except BadFractions:
        return
    assert ds.train[0] == 1
    assert ds.test[1] == t
    assert ds.train[1] + 1 == ds.calibration[0]
    assert ds.calibration[1] + 1 == ds.test[0]
