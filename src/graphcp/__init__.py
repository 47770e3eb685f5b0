"""Graph-coupled Poisson outage model with conformal prediction intervals."""

from .conformal import (
    METHODS,
    IntervalSeries,
    build_qrf_training_set,
    poisson_interval,
    read_interval_series,
    run_conformal,
    vanilla_cp,
)
from .evaluate import (
    MethodReport,
    NodeMetrics,
    WinnerTable,
    coverage_metrics,
    violin_export,
    winner_table,
)
from .model import (
    INTENSITY_FLOOR,
    FitConfig,
    FitResult,
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
    weather_response,
)
from .panel import (
    DataSplit,
    PanelDataset,
    ServiceGraph,
    load_graph,
    load_panel,
    split,
    write_graph,
    write_panel,
)
from .pipeline import PipelineResult, run_pipeline
from .qrf import FittedForest, ForestConfig, fit_forest
from .synth import GraphSpec, ScenarioConfig, StormPulse, WeatherSpec, simulate

__version__ = "0.1.0"
