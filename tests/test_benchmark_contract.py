"""The names and behaviour that perfbench relies on.

perfbench lives outside the package and reaches into it by name, so a
change that prunes graphcp's API can break the benchmark without breaking
any other test.  These checks catch that first.
"""

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import graphcp
from graphcp import experiments, simulate
from graphcp.pipeline import read_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_required_trace_target_resolves(perfbench_modules):
    tracing, _ = perfbench_modules
    for module_name, attr, _, _, _, required in tracing.TARGETS:
        if not required:
            continue
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr}"


def test_every_name_perfbench_references_exists():
    importlib.import_module("graphcp.experiments")
    text = "\n".join(path.read_text(encoding="utf-8") for path in PERFBENCH.glob("*.py"))
    for owner, prefix in ((graphcp, "graphcp"), (experiments, "experiments")):
        names = set(re.findall(rf"\b{prefix}\.([A-Za-z_]\w*)", text))
        assert names, prefix
        missing = [
            name
            for name in sorted(names)
            if not hasattr(owner, name)
            and importlib.util.find_spec(f"{owner.__name__}.{name}") is None
        ]
        assert not missing, f"{prefix}: {missing}"


def test_storm_reports_keep_the_order_of_methods(perfbench_modules):
    _, workloads = perfbench_modules
    default = inspect.signature(experiments.run_storm_benchmark).parameters["methods"].default
    assert tuple(default) == workloads.STORM_METHODS
    # the interval methods without forests keep this quick
    result = experiments.run_storm_benchmark(seed=3, methods=("vanilla", "poisson"))
    assert tuple(result.reports) == ("vanilla", "poisson")


def test_storm_config_reads_back_as_the_storm_scenario():
    # the storm benchmark runs through run_stages' document parser, so the
    # scenario's JSON round trip must give the same panel bit for bit
    scenario = read_scenario(experiments.storm_config(101, 0.1, ("poisson",), 8, 450, 50), 101)
    assert scenario.to_dict() == experiments.storm_scenario(101).to_dict()
    expected = simulate(experiments.storm_scenario(101))
    panel = simulate(scenario)
    assert np.array_equal(panel.counts, expected.counts)
    assert np.array_equal(panel.weather, expected.weather)
