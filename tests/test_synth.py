import json
import math

import numpy as np
import pytest
from scipy import stats

from graphcp.errors import DimensionMismatch, ExplosiveConfig
from graphcp.experiments import recovery_scenario, storm_scenario
from graphcp.model import ModelParams
from graphcp.synth import GraphSpec, ScenarioConfig, StormPulse, WeatherSpec, simulate
from tests.test_cli import demo_scenario_doc
from tests.support import (
    NoiseSpec,
    branching_matrix,
    excitation_mass,
    iid_mean_function,
    simulate_iid,
    spectral_radius,
    zero_response,
)


def flat_params(k, coupling_value=0.0, edges=(), scale=1.0, decay=0.8, response=None):
    return ModelParams(
        coupling={e: coupling_value for e in edges},
        decay=np.full(k, decay),
        scale=np.full(k, scale),
        weather_decay=np.array([0.2]),
        response=response or zero_response(3, 1),
        window=4,
    )


def quiet_weather():
    return WeatherSpec(ar_coefs=(0.5,), noise_scales=(1.0,))


def test_same_seed_bit_identical():
    config = ScenarioConfig(
        graph=GraphSpec(kind="chain", n_nodes=3),
        n_steps=60,
        params=flat_params(3, coupling_value=0.3, edges=[(0, 1), (1, 2)]),
        weather=quiet_weather(),
        seed=7,
    )
    a = simulate(config)
    b = simulate(config)
    np.testing.assert_array_equal(a.weather, b.weather)
    np.testing.assert_array_equal(a.counts, b.counts)


def test_all_rates_zero_gives_zero_counts():
    params = flat_params(3, scale=0.0, decay=0.0)
    config = ScenarioConfig(
        graph=GraphSpec(kind="edges", n_nodes=3),
        n_steps=200,
        params=params,
        weather=quiet_weather(),
        seed=5,
    )
    panel = simulate(config)
    assert np.all(panel.counts == 0)


def test_monte_carlo_mean_matches_closed_form():
    # no edges, zero response weights, zero decay: every rate is exactly
    # scale * log(2), so counts are iid Poisson with that mean
    gain = 1.7
    k, t_total = 4, 20000
    config = ScenarioConfig(
        graph=GraphSpec(kind="edges", n_nodes=k),
        n_steps=t_total,
        params=flat_params(k, scale=gain, decay=0.0),
        weather=quiet_weather(),
        seed=21,
    )
    panel = simulate(config)
    expected = gain * math.log(2.0)
    observed = panel.counts.mean()
    stderr = math.sqrt(expected / (k * t_total))
    assert abs(observed - expected) <= 3.0 * stderr


def test_explosive_config_raises():
    # near-critical self-excitation (decay -> 0 pushes the kernel mass to 1)
    # plus heavy cascade coupling blows the running mean past the cap; note
    # the two-cycle ban makes the graph a DAG, so the spectral radius stays
    # below 1 and explosiveness always comes from this quasi-critical regime
    edges = [(0, 1), (1, 2)]
    params = ModelParams(
        coupling={e: 5.0 for e in edges},
        decay=np.full(3, 0.05),
        scale=np.full(3, 5.0),
        weather_decay=np.array([0.2]),
        response=zero_response(3, 1),
        window=4,
    )
    config = ScenarioConfig(
        graph=GraphSpec(kind="edges", n_nodes=3, edges=tuple(edges)),
        n_steps=4000,
        params=params,
        weather=quiet_weather(),
        seed=2,
        explosion_cap=50.0,
    )
    assert spectral_radius(branching_matrix(config.graph.build(), params)) > 0.97
    with pytest.raises(ExplosiveConfig):
        simulate(config)


def test_subcritical_stays_bounded_and_guard_silent():
    edges = [(0, 1), (1, 2), (2, 3)]
    params = flat_params(4, coupling_value=0.4, edges=edges, scale=1.0, decay=0.9)
    config = ScenarioConfig(
        graph=GraphSpec(kind="edges", n_nodes=4, edges=tuple(edges)),
        n_steps=5000,
        params=params,
        weather=quiet_weather(),
        seed=3,
        explosion_cap=1e4,
    )
    graph = config.graph.build()
    assert spectral_radius(branching_matrix(graph, params)) < 1.0
    panel = simulate(config)  # must not raise
    assert panel.counts.mean() < 50.0


def test_poisson_goodness_of_fit_at_frozen_rate():
    # constant rate by construction; bin counts and chi-square against the pmf
    gain = 3.0 / math.log(2.0)
    config = ScenarioConfig(
        graph=GraphSpec(kind="edges", n_nodes=5),
        n_steps=8000,
        params=flat_params(5, scale=gain, decay=0.0),
        weather=quiet_weather(),
        seed=17,
    )
    rate = gain * math.log(2.0)
    counts = simulate(config).counts.ravel()
    top = 9  # bins 0..8 plus tail
    observed = np.array(
        [np.sum(counts == v) for v in range(top)] + [np.sum(counts >= top)],
        dtype=np.float64,
    )
    pmf = np.array([stats.poisson.pmf(v, rate) for v in range(top)])
    probs = np.append(pmf, 1.0 - pmf.sum())
    expected = probs * counts.shape[0]
    chi2_stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = observed.shape[0] - 1
    assert chi2_stat <= stats.chi2.ppf(0.99, dof)


def test_regional_pulse_hits_only_listed_nodes():
    pulse = StormPulse(start=10, duration=5, amplitude=50.0, variable=0, nodes=(0,))
    config = ScenarioConfig(
        graph=GraphSpec(kind="edges", n_nodes=2),
        n_steps=30,
        params=flat_params(2, decay=0.0),
        weather=WeatherSpec(ar_coefs=(0.0,), noise_scales=(0.0,), pulses=(pulse,)),
        seed=0,
    )
    panel = simulate(config)
    assert np.all(panel.weather[0, 9:14, 0] == 50.0)
    assert np.all(panel.weather[1] == 0.0)


def test_pulse_validation():
    with pytest.raises(DimensionMismatch):
        StormPulse(start=0, duration=5, amplitude=1.0)
    params = flat_params(2)
    # a variable of -1 used to pass and hit the last variable
    for pulse in (StormPulse(start=99, duration=2, amplitude=1.0),
                  StormPulse(start=1, duration=2, amplitude=1.0, variable=-1)):
        with pytest.raises(DimensionMismatch):
            ScenarioConfig(
                graph=GraphSpec(kind="edges", n_nodes=2),
                n_steps=10,
                params=params,
                weather=WeatherSpec(ar_coefs=(0.5,), noise_scales=(1.0,), pulses=(pulse,)),
            )


def test_node_count_is_checked_before_the_graph_is_built():
    # simulate compared K only after building the graph, whose edge list a
    # huge n_nodes made the process run out of memory on
    with pytest.raises(DimensionMismatch):
        ScenarioConfig(
            graph=GraphSpec(kind="star", n_nodes=6),
            n_steps=10,
            params=flat_params(5),
            weather=quiet_weather(),
        )


def grid6_scenario():
    graph = GraphSpec(kind="grid", n_nodes=6, grid_rows=2)
    return ScenarioConfig(
        graph=graph,
        n_steps=50,
        params=flat_params(6, coupling_value=0.2, edges=graph.build().edge_pairs()),
        weather=WeatherSpec(
            ar_coefs=(0.5,),
            noise_scales=(1.0,),
            pulses=(StormPulse(start=5, duration=3, amplitude=2.0, variable=0, nodes=(1, 2)),),
        ),
        seed=9,
        explosion_cap=123.0,
    )


def grid400_scenario():
    from perfbench.workloads import grid400_config

    return ScenarioConfig.from_dict(grid400_config(0)["scenario"])


# the experiments' scenarios, the benchmark's grid400 and the CLI tests' demo
@pytest.mark.parametrize(
    "make",
    [
        grid6_scenario,
        lambda: storm_scenario(101),
        lambda: recovery_scenario(11),
        grid400_scenario,
        lambda: ScenarioConfig.from_dict(demo_scenario_doc()),
    ],
    ids=["grid6", "storm101", "recovery11", "grid400", "demo"],
)
def test_scenario_json_round_trip(make):
    config = make()
    rebuilt = ScenarioConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert rebuilt.to_dict() == config.to_dict()
    np.testing.assert_array_equal(
        simulate(rebuilt).counts, simulate(config).counts
    )


# ------------------------------------------------------------ topologies


def test_named_topologies():
    chain = GraphSpec(kind="chain", n_nodes=4).build()
    assert sorted((s, d) for s, d, _ in chain.edges) == [(0, 1), (1, 2), (2, 3)]
    star = GraphSpec(kind="star", n_nodes=4).build()
    assert sorted((s, d) for s, d, _ in star.edges) == [(0, 1), (0, 2), (0, 3)]
    grid = GraphSpec(kind="grid", n_nodes=6, grid_rows=2).build()
    assert len(grid.edges) == 7  # 2x3 grid: 4 horizontal + 3 vertical
    with pytest.raises(DimensionMismatch):
        GraphSpec(kind="grid", n_nodes=7, grid_rows=2).build()
    with pytest.raises(DimensionMismatch):
        GraphSpec(kind="mystery", n_nodes=3).build()


@pytest.mark.parametrize("rows", [0, -4])
def test_grid_rows_below_one_raise(rows):
    # 0 built the default floor(sqrt(20)) = 4 rows, and -4 a grid without edges
    with pytest.raises(DimensionMismatch):
        GraphSpec(kind="grid", n_nodes=20, grid_rows=rows).build()


def test_excitation_mass_limits():
    assert excitation_mass(np.array([0.0]))[0] == 1.0
    heavy = excitation_mass(np.array([1e-9]))[0]
    assert heavy == pytest.approx(1.0, abs=1e-6)
    assert excitation_mass(np.array([3.0]))[0] == pytest.approx(
        3.0 * math.exp(-3.0) / (1.0 - math.exp(-3.0)), rel=1e-12
    )


# ------------------------------------------------------------ iid sampler


def test_iid_zero_noise_residuals_vanish():
    x, y = simulate_iid(500, NoiseSpec(kind="gaussian", scale=0.0), seed=1)
    np.testing.assert_array_equal(y, iid_mean_function(x))


def test_iid_gaussian_quantile_matches_normal():
    x, y = simulate_iid(5000, NoiseSpec(kind="gaussian", scale=1.0), seed=2)
    resid = np.abs(y - iid_mean_function(x))
    q90 = float(np.quantile(resid, 0.9))
    assert abs(q90 - 1.6449) <= 0.06


def test_iid_same_seed_identical():
    a = simulate_iid(100, seed=3)
    b = simulate_iid(100, seed=3)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_iid_validation():
    with pytest.raises(DimensionMismatch):
        simulate_iid(0)
    with pytest.raises(DimensionMismatch):
        NoiseSpec(kind="cauchy")
