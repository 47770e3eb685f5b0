import math

import numpy as np
import pytest

from graphcp.errors import ConfigError, DimensionMismatch, NonFiniteLoss
from graphcp.model import (
    INTENSITY_FLOOR,
    FitConfig,
    ModelParams,
    ParamPacker,
    ResponseWeights,
    cumulative_weather,
    excitation,
    fit,
    init_params,
    intensity,
    likelihood_gradient,
    load_params,
    log_likelihood,
    save_params,
    softplus,
    softplus_inv,
)
from graphcp.panel import PanelDataset, ServiceGraph


def brute_cumulative(weather, rates, window):
    """Direct triple-loop evaluation of the windowed decayed sum."""
    k, t_total, m_total = weather.shape
    out = np.zeros_like(weather)
    for i in range(k):
        for t in range(t_total):
            for m in range(m_total):
                acc = 0.0
                for tau in range(max(0, t - window + 1), t + 1):
                    acc += weather[i, tau, m] * math.exp(-rates[m] * (t - tau))
                out[i, t, m] = acc
    return out


def brute_excitation(counts, decay):
    """O(T^2) double sum of the influence kernel."""
    k, t_total = counts.shape
    out = np.zeros((k, t_total))
    for j in range(k):
        for t in range(t_total):
            out[j, t] = sum(
                counts[j, tp] * decay[j] * math.exp(-decay[j] * (t - tp))
                for tp in range(t)
            )
    return out


def simple_params(graph, m_total=1, hidden=3, **overrides):
    k = graph.n_nodes
    base = dict(
        coupling={e: 0.3 for e in graph.edge_pairs()},
        decay=np.full(k, 0.8),
        scale=np.full(k, 1.0),
        weather_decay=np.full(m_total, 0.2),
        response=ResponseWeights.zeros(hidden, m_total),
        window=4,
    )
    base.update(overrides)
    return ModelParams(**base)


# ------------------------------------------------------- cumulative weather


def test_zero_decay_is_window_sum():
    x = np.ones((1, 3, 1))
    v = cumulative_weather(x, [0.0], 3)
    np.testing.assert_allclose(v[0, :, 0], [1.0, 2.0, 3.0])
    assert v[0, 2, 0] == 3.0


def test_log_two_decay_hand_value():
    x = np.ones((1, 3, 1))
    v = cumulative_weather(x, [math.log(2.0)], 3)
    assert v[0, 2, 0] == pytest.approx(1.75, abs=1e-12)


def test_zero_weather_zero_effect():
    v = cumulative_weather(np.zeros((2, 5, 2)), [0.3, 0.7], 3)
    assert np.all(v == 0.0)


def test_cumulative_weather_matches_brute_force():
    rng = np.random.default_rng(5)
    weather = rng.normal(size=(2, 12, 2))
    rates = np.array([0.0, 0.9])
    for window in (1, 3, 12, 20):
        got = cumulative_weather(weather, rates, window)
        np.testing.assert_allclose(got, brute_cumulative(weather, rates, window), atol=1e-12)


# ------------------------------------------------------- response network


def test_zero_weights_give_log_two():
    weights = ResponseWeights.zeros(8, 2)
    from graphcp.model import weather_response

    assert weather_response(np.zeros(2), weights) == pytest.approx(math.log(2.0))


def test_response_hand_value():
    from graphcp.model import weather_response

    weights = ResponseWeights(np.array([[1.0, 0.0]]), np.zeros(1), np.ones(1), 0.0)
    # oracle: softplus(tanh(1)) computed independently
    expected = math.log1p(math.exp(math.tanh(1.0)))
    assert weather_response(np.array([1.0, 9.9]), weights) == pytest.approx(expected, rel=1e-12)


def test_response_nonnegative_everywhere():
    from graphcp.model import weather_response

    rng = np.random.default_rng(0)
    for _ in range(1000):
        weights = ResponseWeights.random(3, 2, rng, scale=2.0)
        assert weather_response(rng.normal(size=2), weights) >= 0.0


def test_response_dimension_mismatch():
    from graphcp.model import weather_response

    with pytest.raises(DimensionMismatch):
        weather_response(np.zeros(3), ResponseWeights.zeros(2, 2))


# ------------------------------------------------------- excitation


def test_excitation_hand_value():
    counts = np.array([[2, 0]])
    got = excitation(counts, np.array([1.0]))
    assert got[0, 0] == 0.0
    assert got[0, 1] == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)


def test_excitation_zero_counts_and_zero_decay():
    counts = np.zeros((2, 6), dtype=int)
    assert np.all(excitation(counts, np.array([0.5, 1.0])) == 0.0)
    counts = np.array([[1, 2, 3, 4]])
    assert np.all(excitation(counts, np.array([0.0])) == 0.0)


def test_excitation_matches_double_sum():
    rng = np.random.default_rng(1)
    for trial in range(5):
        k = int(rng.integers(1, 5))
        t_total = int(rng.integers(5, 60))
        counts = rng.poisson(2.0, size=(k, t_total))
        decay = rng.uniform(0.1, 2.0, size=k)
        got = excitation(counts, decay)
        want = brute_excitation(counts, decay)
        assert np.max(np.abs(got - want)) <= 1e-10


# ------------------------------------------------------- intensity


def test_intensity_self_excitation_only():
    graph = ServiceGraph.from_edges(1, [])
    counts = np.array([[1, 0]])
    panel = PanelDataset.build(np.zeros((1, 2, 1)), counts)
    params = simple_params(graph, scale=np.zeros(1), decay=np.ones(1))
    lam = intensity(panel, graph, params)
    assert lam[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert lam[0, 0] == INTENSITY_FLOOR  # nothing before the first step


def test_intensity_weather_only_hand_value():
    graph = ServiceGraph.from_edges(1, [])
    panel = PanelDataset.build(np.zeros((1, 1, 1)), np.array([[0]]))
    params = simple_params(graph, scale=np.array([2.0]))
    lam = intensity(panel, graph, params)
    assert lam[0, 0] == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


def test_intensity_recursion_vs_brute_force_coupled():
    rng = np.random.default_rng(9)
    k, t_total = 4, 50
    graph = ServiceGraph.from_edges(k, [(0, 1), (1, 2), (2, 3), (0, 3)])
    panel = PanelDataset.build(
        rng.normal(size=(k, t_total, 1)), rng.poisson(1.5, size=(k, t_total))
    )
    params = simple_params(
        graph,
        decay=rng.uniform(0.3, 1.5, k),
        coupling={e: float(rng.uniform(0.1, 0.5)) for e in graph.edge_pairs()},
    )
    lam = intensity(panel, graph, params)
    ex_brute = brute_excitation(np.asarray(panel.counts, float), params.decay)
    mat = params.coupling_matrix(graph)
    base = params.scale[:, None] * np.log(2.0)  # zero response weights
    lam_brute = np.maximum(base + mat @ ex_brute, INTENSITY_FLOOR)
    assert np.max(np.abs(lam - lam_brute)) <= 1e-10


# ------------------------------------------------------- likelihood


def test_log_likelihood_hand_values():
    graph = ServiceGraph.from_edges(1, [])
    panel1 = PanelDataset.build(np.zeros((1, 1, 1)), np.array([[1]]))
    params1 = simple_params(graph, scale=np.array([1.0 / math.log(2.0)]))
    assert log_likelihood(panel1, graph, params1) == pytest.approx(-1.0, rel=1e-12)

    panel3 = PanelDataset.build(np.zeros((1, 1, 1)), np.array([[3]]))
    params2 = simple_params(graph, scale=np.array([2.0 / math.log(2.0)]))
    assert log_likelihood(panel3, graph, params2) == pytest.approx(
        -(2.0 - 3.0 * math.log(2.0)), rel=1e-12
    )


def test_per_cell_term_maximized_at_rate_equal_count():
    # x - n log x over x > 0 is minimized at x = n, so the contribution
    # -(x - n log x) peaks there
    n = 4.0
    term = lambda x: -(x - n * math.log(x))
    assert term(n) > term(n - 0.5)
    assert term(n) > term(n + 0.5)


def test_likelihood_finite_on_zero_everything():
    graph = ServiceGraph.from_edges(2, [])
    panel = PanelDataset.build(np.zeros((2, 3, 1)), np.zeros((2, 3), dtype=int))
    params = simple_params(graph, scale=np.zeros(2))
    value = log_likelihood(panel, graph, params)
    assert np.isfinite(value)


# ------------------------------------------------------- gradient


def rand_instance(seed, k=4, t_total=20, m_total=2, hidden=3):
    rng = np.random.default_rng(seed)
    graph = ServiceGraph.from_edges(k, [(0, 1), (1, 2), (2, 3), (0, 3)])
    panel = PanelDataset.build(
        rng.normal(size=(k, t_total, m_total)), rng.poisson(2.0, size=(k, t_total))
    )
    params = ModelParams(
        coupling={e: float(rng.uniform(0.1, 0.8)) for e in graph.edge_pairs()},
        decay=rng.uniform(0.2, 1.5, k),
        scale=rng.uniform(0.2, 1.5, k),
        weather_decay=rng.uniform(0.05, 1.0, m_total),
        response=ResponseWeights.random(hidden, m_total, rng, scale=0.7),
        window=5,
    )
    return graph, panel, params


def fd_gradient(panel, graph, params, packer, step=1e-5):
    raw = packer.pack(params)
    out = np.empty_like(raw)
    for i in range(raw.size):
        up, dn = raw.copy(), raw.copy()
        up[i] += step
        dn[i] -= step
        out[i] = (
            log_likelihood(panel, graph, packer.unpack_preserving(up, raw, params))
            - log_likelihood(panel, graph, packer.unpack_preserving(dn, raw, params))
        ) / (2.0 * step)
    return out


def test_gradient_matches_finite_differences():
    graph, panel, params = rand_instance(3)
    packer = ParamPacker(graph, params.n_vars, params.response.hidden_units)
    ana = likelihood_gradient(panel, graph, params, packer=packer)
    fd = fd_gradient(panel, graph, params, packer)
    rel = np.linalg.norm(ana - fd) / max(np.linalg.norm(fd), 1e-12)
    assert rel <= 1e-4


def test_gradient_has_no_self_coupling_coordinate():
    graph, panel, params = rand_instance(4)
    packer = ParamPacker(graph, params.n_vars, params.response.hidden_units)
    assert all(src != dst for src, dst in packer.edge_order)
    coupling = packer.slices["coupling"]
    assert coupling.stop - coupling.start == graph.n_edges
    k, m, h = graph.n_nodes, params.n_vars, params.response.hidden_units
    # coupling, decay, scale, weather decay, then the response weights
    assert packer.size == graph.n_edges + 2 * k + m + h * m + 2 * h + 1


def test_gradient_zero_for_coupling_without_excitation():
    # zero counts and zero weather: excitation vanishes, so the coupling
    # block of the gradient must be exactly zero
    k = 3
    graph = ServiceGraph.from_edges(k, [(0, 1), (1, 2)])
    panel = PanelDataset.build(np.zeros((k, 10, 1)), np.zeros((k, 10), dtype=int))
    params = simple_params(graph, decay=np.full(k, 0.5))
    packer = ParamPacker(graph, 1, params.response.hidden_units)
    grad = likelihood_gradient(panel, graph, params, packer=packer)
    np.testing.assert_array_equal(grad[packer.slices["coupling"]], 0.0)


def test_softplus_inverse_round_trip():
    y = np.array([1e-9, 0.1, 1.0, 17.0, 80.0])
    np.testing.assert_allclose(softplus(softplus_inv(y)), y, rtol=1e-12)
    assert softplus_inv(np.array([0.0]))[0] == -math.inf


# ------------------------------------------------------- fit


def small_fit_instance(seed=0):
    rng = np.random.default_rng(seed)
    k, t_total = 3, 80
    graph = ServiceGraph.from_edges(k, [(0, 1), (1, 2)])
    panel = PanelDataset.build(
        rng.normal(size=(k, t_total, 1)), rng.poisson(2.0, size=(k, t_total))
    )
    init = init_params(graph, 1, hidden=3, window=4, seed=seed)
    return graph, panel, init


@pytest.mark.parametrize(
    "bad",
    [
        {"batch_len": 0},
        {"batch_len": -3},
        {"epochs": -1},
        {"learning_rate": -0.01},
        {"learning_rate": float("nan")},
        {"momentum": 1.0},
        {"momentum": -0.1},
    ],
)
def test_fit_config_rejects_out_of_range_values(bad):
    # batch_len=0 used to make the block partition loop forever
    with pytest.raises(ConfigError):
        FitConfig(**bad)


def test_fit_zero_learning_rate_returns_init_unchanged():
    graph, panel, init = small_fit_instance()
    result = fit(panel, graph, init, FitConfig(learning_rate=0.0, epochs=3, seed=1))
    out = result.params
    assert out.coupling == init.coupling
    np.testing.assert_array_equal(out.decay, init.decay)
    np.testing.assert_array_equal(out.scale, init.scale)
    np.testing.assert_array_equal(out.weather_decay, init.weather_decay)
    np.testing.assert_array_equal(out.response.w_hidden, init.response.w_hidden)
    assert out.response.b_out == init.response.b_out


def test_fit_likelihood_never_decreases_at_checkpoints():
    graph, panel, init = small_fit_instance(2)
    result = fit(
        panel, graph, init, FitConfig(learning_rate=5e-2, epochs=25, momentum=0.9, seed=3)
    )
    diffs = np.diff(result.checkpoints)
    assert np.all(diffs >= -1e-8)
    assert result.checkpoints[-1] >= result.checkpoints[0]


def test_fit_final_at_least_initial_even_with_wild_rate():
    graph, panel, init = small_fit_instance(4)
    result = fit(panel, graph, init, FitConfig(learning_rate=50.0, epochs=8, seed=5))
    assert log_likelihood(panel, graph, result.params) >= result.checkpoints[0]


def test_fit_keeps_parameters_nonnegative():
    graph, panel, init = small_fit_instance(6)
    result = fit(panel, graph, init, FitConfig(learning_rate=0.05, epochs=10, seed=7))
    out = result.params
    assert np.all(out.decay >= 0) and np.all(out.scale >= 0)
    assert np.all(out.weather_decay >= 0)
    assert all(v >= 0 for v in out.coupling.values())


def test_fit_raises_on_nonfinite_start():
    graph, panel, init = small_fit_instance(8)
    bad = ModelParams(
        coupling=init.coupling,
        decay=init.decay,
        scale=np.full(graph.n_nodes, 1e308),
        weather_decay=init.weather_decay,
        response=init.response,
        window=init.window,
    )
    with pytest.raises(NonFiniteLoss):
        fit(panel, graph, bad, FitConfig(epochs=1))


# ------------------------------------------------------- forecast and io


def test_intensity_ignores_current_counts():
    graph, panel, params = rand_instance(11)
    t_query = 10
    tampered = np.array(panel.counts)
    tampered[:, t_query - 1] += 50
    panel2 = PanelDataset.build(panel.weather, tampered)
    np.testing.assert_array_equal(
        intensity(panel, graph, params)[:, t_query - 1],
        intensity(panel2, graph, params)[:, t_query - 1],
    )
    assert np.all(intensity(panel, graph, params) >= 0.0)


def test_params_json_round_trip_is_bit_exact(tmp_path):
    graph, _, params = rand_instance(12)
    path = tmp_path / "params.json"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.coupling == params.coupling
    np.testing.assert_array_equal(loaded.decay, params.decay)
    np.testing.assert_array_equal(loaded.scale, params.scale)
    np.testing.assert_array_equal(loaded.weather_decay, params.weather_decay)
    np.testing.assert_array_equal(loaded.response.w_hidden, params.response.w_hidden)
    np.testing.assert_array_equal(loaded.response.b_hidden, params.response.b_hidden)
    np.testing.assert_array_equal(loaded.response.w_out, params.response.w_out)
    assert loaded.response.b_out == params.response.b_out
    assert loaded.window == params.window
    # and the serialized text itself is a fixpoint
    save_params(loaded, tmp_path / "params2.json")
    assert path.read_bytes() == (tmp_path / "params2.json").read_bytes()
