"""Span tracing around the layer functions that carechoice.cli calls.

Only traced runs import this module. `cli` imports each layer function into
its own namespace, so a wrapper replaces the name where `cli` looks it up;
`apply_exclusions` and `load_visits` are replaced in `carechoice.ingest`,
which calls them inside `load_dataset`. The model function that
`classifier_model_fn` returns is wrapped too, to count the rows Shapley
sampling pushes through the model.

Spans are kept in memory: name, start, end, parent span and the CLI stage
they ran in. `layer_metrics` turns one traced round's spans into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

CLI_WRAPPED = (
    "load_dataset", "build_feature_vectors", "write_feature_csv", "read_feature_csv",
    "fit_scaler", "split_indices", "undersample_indices", "kfold_indices",
    "train_classifier", "train_autoencoder", "encode", "predict_batch", "load_model",
    "model_to_dict", "build_report", "global_importance", "sampled_shapley",
    "exact_shapley", "local_report", "write_importance_csv",
)
INGEST_WRAPPED = ("apply_exclusions", "load_visits")
EXPLAIN_FUNCTIONS = frozenset(
    f"explain.{n}" for n in ("global_importance", "sampled_shapley", "exact_shapley",
                             "local_report", "write_importance_csv")
)
MODEL_SPAN = "explain.model"


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1
    stage: str = ""
    rows: int = 0
    epochs: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _fit_size(fn):
    """rows and epochs of one training call, read from its arguments."""
    sig = inspect.signature(fn)

    def measure(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return len(bound.arguments["x"]), bound.arguments["config"].epochs

    return measure


def _rows_out(args, kwargs, result):
    return len(result), 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.stage = ""

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, stage=self.stage))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    def wrap(self, fn, name: str, measure=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if measure is not None:
                self.spans[idx].rows, self.spans[idx].epochs = measure(args, kwargs, result)
            return result

        return wrapper

    def install(self, cli, ingest) -> None:
        measures = {
            "train_classifier": _fit_size(cli.train_classifier),
            "train_autoencoder": _fit_size(cli.train_autoencoder),
            "load_visits": _rows_out,
        }
        for module, names in ((cli, CLI_WRAPPED), (ingest, INGEST_WRAPPED)):
            for attr in names:
                fn = getattr(module, attr)
                self._patch(module, attr, self.wrap(fn, f"{_layer(fn)}.{attr}", measures.get(attr)))

        make_model_fn = cli.classifier_model_fn

        @functools.wraps(make_model_fn)
        def classifier_model_fn(*args, **kwargs):
            model_fn = make_model_fn(*args, **kwargs)
            return self.wrap(model_fn, MODEL_SPAN, lambda a, k, r: (len(a[0]), 0))

        self._patch(cli, "classifier_model_fn", classifier_model_fn)

    def _patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer totals of one traced round: (value, unit) by metric name."""

    def total(*names):
        return sum(s.seconds for s in spans if s.name in names)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    def work(name):
        return sum(s.rows * max(s.epochs, 1) for s in spans if s.name == name)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    stages = {i for i, s in enumerate(spans) if s.parent == -1}
    stage_s = sum(spans[i].seconds for i in stages)
    child_s = sum(s.seconds for s in spans if s.parent in stages)
    outer_explain = sum(
        s.seconds for s in spans
        if s.name in EXPLAIN_FUNCTIONS
        and (s.parent < 0 or spans[s.parent].name not in EXPLAIN_FUNCTIONS)
    )
    model_s = total(MODEL_SPAN)
    model_rows = work(MODEL_SPAN)
    classifier_s = total("neuralnet.train_classifier")
    ae_s = total("neuralnet.train_autoencoder")
    return {
        "ingest.load_dataset_s": (total("ingest.load_dataset"), "s"),
        "ingest.load_dataset_calls": (count("ingest.load_dataset"), "count"),
        "ingest.visits_per_s": (rate(work("ingest.load_visits"), total("ingest.load_visits")), "visits/s"),
        "domain.apply_exclusions_s": (total("domain.apply_exclusions"), "s"),
        "features.build_feature_vectors_s": (total("features.build_feature_vectors"), "s"),
        "features.write_feature_csv_s": (total("features.write_feature_csv"), "s"),
        "features.read_feature_csv_s": (total("features.read_feature_csv"), "s"),
        "features.read_feature_csv_calls": (count("features.read_feature_csv"), "count"),
        "pipeline.sampling_s": (total("pipeline.split_indices", "pipeline.undersample_indices",
                                      "pipeline.kfold_indices"), "s"),
        "neuralnet.train_classifier_s": (classifier_s, "s"),
        "neuralnet.classifier_row_epochs_per_s": (rate(work("neuralnet.train_classifier"), classifier_s),
                                                  "row-epochs/s"),
        "neuralnet.train_autoencoder_s": (ae_s, "s"),
        "neuralnet.ae_row_epochs_per_s": (rate(work("neuralnet.train_autoencoder"), ae_s), "row-epochs/s"),
        "neuralnet.predict_batch_s": (total("neuralnet.predict_batch"), "s"),
        "neuralnet.load_model_s": (total("neuralnet.load_model"), "s"),
        "metrics.build_report_s": (total("metrics.build_report"), "s"),
        "explain.model_rows": (model_rows, "rows"),
        "explain.model_s": (model_s, "s"),
        "explain.model_rows_per_s": (rate(model_rows, model_s), "rows/s"),
        "explain.self_s": (outer_explain - model_s, "s"),
        "cli.self_s": (stage_s - child_s, "s"),
    }


def stage_breakdown(spans: list[Span]) -> dict:
    """Seconds per stage and per layer within it, from top-level layer calls."""
    out: dict = {}
    for s in spans:
        if s.parent == -1:
            out.setdefault(s.stage, {})["total"] = s.seconds
        elif spans[s.parent].parent == -1:
            layer = s.name.split(".", 1)[0]
            row = out.setdefault(s.stage, {})
            row[layer] = row.get(layer, 0.0) + s.seconds
    return out
