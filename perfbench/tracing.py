"""Per-layer tracing of graphcp from outside the package.

``Tracer.installed()`` replaces each function in ``TARGETS`` with a wrapper
under every name that graphcp's modules look it up by (``fit_forest`` is
reached as ``graphcp.conformal.fit_forest``, ``graphcp.qrf.fit_forest`` and
``graphcp.fit_forest``), and patches methods on their class.  A wrapper
only records a span and passes the call through; counters read the
arguments and the return value and change neither.  Every patched name is
restored on exit, and the restore is verified.

Spans live in memory as ``[name, layer, parent, start, end]``; self time is
a span's duration minus the durations of its children.  ``bench.run`` is the
root span of one traced repetition, so the per-layer self times add up to
its duration.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("synth", "model", "qrf", "conformal", "evaluate", "panel", "driver", "bench")


def _run_conformal_name(args, kwargs):
    method = kwargs["method"] if "method" in kwargs else args[4]
    return f"conformal.run_conformal.{method}"


def _path_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _observe_fit_forest(tracer, args, kwargs, forest):
    tracer.counters["qrf.trees"] += len(forest.trees)
    tracer.counters["qrf.rows_fitted"] += forest.n_samples * len(forest.trees)
    # the first pooled (graph-method) training set, for the default-config fit
    if "pooled_set" not in tracer.captured and tracer.current_method() == "graph":
        features = kwargs["features"] if "features" in kwargs else args[0]
        targets = kwargs["targets"] if "targets" in kwargs else args[1]
        tracer.captured["pooled_set"] = (features.copy(), targets.copy(), forest.config.seed)


def _observe_fit(tracer, args, kwargs, result):
    epochs = len(result.checkpoints) - 1
    tracer.counters["model.fit.epochs"] += epochs
    tracer.counters["model.fit.accepted_epochs"] += epochs - result.n_retreats


def _observe_run_conformal(tracer, args, kwargs, series):
    tracer.counters["conformal.cells"] += len(series)
    widths = series.upper - series.lower
    tracer.counters["conformal.n_infinite_width"] += int((widths == float("inf")).sum())
    panel = kwargs["panel"] if "panel" in kwargs else args[0]
    data_split = kwargs["data_split"] if "data_split" in kwargs else args[3]
    test_lo, test_hi = data_split.test
    tracer.captured.setdefault("test_cells", panel.n_nodes * (test_hi - test_lo + 1))


def _observe_write(*path_positions):
    def observe(tracer, args, kwargs, result):
        tracer.counters["panel.bytes_written"] += _path_bytes(*(args[i] for i in path_positions))

    return observe


def _observe_read(*path_positions):
    def observe(tracer, args, kwargs, result):
        tracer.counters["panel.bytes_read"] += _path_bytes(*(args[i] for i in path_positions))

    return observe


# (module, attribute or Class.method, span name, layer, observer, required).
# Optional targets are private helpers that a later change may fold into the
# public function of the same span name.
TARGETS = (
    ("graphcp.synth", "simulate", "synth.simulate", "synth", None, True),
    ("graphcp.model", "fit", "model.fit", "model", _observe_fit, True),
    ("graphcp.model", "likelihood_gradient", "model.likelihood_gradient", "model", None, True),
    ("graphcp.model", "log_likelihood", "model.log_likelihood", "model", None, True),
    ("graphcp.model", "intensity", "model.intensity", "model", None, True),
    ("graphcp.model", "excitation", "model.excitation", "model", None, True),
    ("graphcp.model", "_excitation_with_sensitivity", "model.excitation", "model", None, False),
    ("graphcp.model", "cumulative_weather", "model.cumulative_weather", "model", None, True),
    ("graphcp.model", "_cumulative_weather_age", "model.cumulative_weather", "model", None, False),
    ("graphcp.qrf", "fit_forest", "qrf.fit_forest", "qrf", _observe_fit_forest, True),
    ("graphcp.qrf", "FittedForest.quantile", "qrf.quantile", "qrf", None, True),
    ("graphcp.conformal", "run_conformal", _run_conformal_name, "conformal", _observe_run_conformal, True),
    ("graphcp.conformal", "poisson_interval", "conformal.poisson_interval", "conformal", None, True),
    ("graphcp.conformal", "vanilla_cp", "conformal.vanilla_cp", "conformal", None, True),
    ("graphcp.conformal", "build_qrf_training_set", "conformal.build_qrf_training_set", "conformal", None, True),
    ("graphcp.conformal", "IntervalSeries.to_csv", "conformal.to_csv", "panel", _observe_write(1), True),
    ("graphcp.conformal", "read_interval_series", "conformal.read_interval_series", "panel", _observe_read(0), True),
    ("graphcp.panel", "write_panel", "panel.write_panel", "panel", _observe_write(1, 2), True),
    ("graphcp.panel", "write_graph", "panel.write_graph", "panel", _observe_write(1), True),
    ("graphcp.panel", "load_panel", "panel.load_panel", "panel", _observe_read(0, 1), True),
    ("graphcp.panel", "load_graph", "panel.load_graph", "panel", _observe_read(0), True),
    ("graphcp.evaluate", "coverage_metrics", "evaluate.coverage_metrics", "evaluate", None, True),
    ("graphcp.evaluate", "winner_table", "evaluate.winner_table", "evaluate", None, True),
    ("graphcp.evaluate", "violin_export", "evaluate.violin_export", "evaluate", None, True),
    ("graphcp.experiments", "run_storm_benchmark", "driver.run_storm_benchmark", "driver", None, True),
    ("graphcp.experiments", "run_recovery", "driver.run_recovery", "driver", None, True),
    ("graphcp.pipeline", "run_pipeline", "driver.run_pipeline", "driver", None, True),
)


class RestoreError(RuntimeError):
    """A name was bound to another object after the tracer was removed."""


def _bindings(owners) -> dict:
    return {(owner.__name__, key): value for owner in owners for key, value in vars(owner).items()}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, layer, parent index, start, end]
        self.counters: Counter = Counter()
        self.captured: dict = {}
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    # ---------------------------------------------------------------- spans

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        index = self._open(name, layer)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name, layer) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, parent, time.perf_counter(), 0.0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index) -> None:
        self._stack.pop()
        self.spans[index][4] = time.perf_counter()

    def current_method(self) -> "str | None":
        for index in reversed(self._stack):
            name = self.spans[index][0]
            if name.startswith("conformal.run_conformal."):
                return name.rsplit(".", 1)[1]
        return None

    def _wrap(self, fn, name, layer, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name(args, kwargs) if callable(name) else name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------- patching

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore.

        Raises RestoreError if any name in graphcp's modules, or any method
        of a patched class, is bound to another object afterwards.
        """
        import graphcp.experiments  # noqa: F401  (load every module patched below)
        import graphcp.pipeline  # noqa: F401

        modules = [
            m for key, m in sorted(sys.modules.items())
            if key == "graphcp" or key.startswith("graphcp.")
        ]
        classes = [
            getattr(sys.modules[module_name], attr.split(".")[0])
            for module_name, attr, *_ in TARGETS
            if "." in attr
        ]
        before = _bindings(modules + classes)
        try:
            for module_name, attr, name, layer, observe, required in TARGETS:
                self._patch(sys.modules[module_name], attr, name, layer, observe, required, modules)
            yield self
        finally:
            for owner, key, original in reversed(self._patches):
                setattr(owner, key, original)
            self._patches = []
            after = _bindings(modules + classes)
            changed = sorted(k for k, v in before.items() if after.get(k) is not v)
            if changed:
                raise RestoreError(f"names not restored: {changed}")

    def _patch(self, module, attr, name, layer, observe, required, modules):
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(original, name, layer, observe))
            self._patches.append((cls, method, original))
            return
        original = getattr(module, attr, None)
        if original is None:
            if required:
                raise AttributeError(f"{module.__name__} has no {attr}")
            return
        wrapper = self._wrap(original, name, layer, observe)
        for owner in modules:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
                    self._patches.append((owner, key, original))

    # -------------------------------------------------------------- results

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [span[4] - span[3] - child[i] for i, span in enumerate(self.spans)]

    def summary(self) -> dict:
        """Calls, inclusive seconds and self seconds per span name and per layer."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        layer_self: defaultdict = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            name, layer, _, start, end = span
            calls[name] += 1
            total[name] += end - start
            self_s[name] += own
            layer_self[layer] += own
        return {"calls": calls, "s": total, "self_s": self_s, "layer_self_s": layer_self}

    def write(self, path) -> None:
        """Write the spans and counters out, once, at the end of the run."""
        doc = {
            "fields": ["name", "layer", "parent", "start", "end", "self"],
            "spans": [span + [own] for span, own in zip(self.spans, self.self_times())],
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def per_layer_metrics(tracer: Tracer, untraced_run_s: float) -> dict:
    """Every per-layer metric of the benchmark, zero where a layer did not run."""
    summary = tracer.summary()
    calls, total, self_s = summary["calls"], summary["s"], summary["self_s"]
    counters = tracer.counters
    run_s = total["bench.run"]
    metrics = {}

    def span_metrics(name, with_calls=True):
        if with_calls:
            metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.s"] = total[name]

    span_metrics("qrf.fit_forest")
    metrics["qrf.trees"] = counters["qrf.trees"]
    metrics["qrf.rows_fitted"] = counters["qrf.rows_fitted"]
    span_metrics("qrf.quantile")

    span_metrics("model.fit", with_calls=False)
    epochs = counters["model.fit.epochs"]
    metrics["model.fit.accepted_epoch_ratio"] = (
        counters["model.fit.accepted_epochs"] / epochs if epochs else 0.0
    )
    for name in ("likelihood_gradient", "log_likelihood", "excitation", "cumulative_weather"):
        span_metrics(f"model.{name}")
    span_metrics("model.intensity", with_calls=False)

    for method in ("poisson", "vanilla", "temporal", "graph"):
        name = f"conformal.run_conformal.{method}"
        metrics[f"{name}.s"] = total[name]
        metrics[f"{name}.self_s"] = self_s[name]
    metrics["conformal.cells"] = counters["conformal.cells"]
    for name in ("poisson_interval", "vanilla_cp", "build_qrf_training_set"):
        span_metrics(f"conformal.{name}")
    metrics["conformal.n_infinite_width"] = counters["conformal.n_infinite_width"]

    for name in (
        "panel.write_panel", "panel.write_graph", "panel.load_panel", "panel.load_graph",
        "conformal.to_csv", "conformal.read_interval_series",
    ):
        span_metrics(name, with_calls=False)
    metrics["panel.bytes_written"] = counters["panel.bytes_written"]
    metrics["panel.bytes_read"] = counters["panel.bytes_read"]

    span_metrics("synth.simulate", with_calls=False)
    span_metrics("evaluate.coverage_metrics")
    span_metrics("evaluate.winner_table", with_calls=False)
    span_metrics("evaluate.violin_export", with_calls=False)

    for name in ("run_storm_benchmark", "run_recovery", "run_pipeline"):
        metrics[f"driver.{name}.self_s"] = self_s[f"driver.{name}"]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = summary["layer_self_s"][layer]

    metrics["trace.run_s"] = run_s
    metrics["trace.untraced_run_s"] = untraced_run_s
    metrics["trace.overhead_s"] = run_s - untraced_run_s
    metrics["trace.spans"] = len(tracer.spans)
    return metrics
