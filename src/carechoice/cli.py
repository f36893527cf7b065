"""Command-line pipeline: cohort synthesis through the comparison report.

Every run is driven by a key=value config file plus --set overrides. The
effective config is snapshotted into the run directory and hashed; each
artifact carries that hash, and re-running any stage from the same
snapshot reproduces its outputs byte for byte. One global seed fans out
to fixed per-stage seeds so stages stay individually reproducible.

Exit codes: 0 success, 2 usage, 3 bad config, 4 missing artifact,
5 data error (a bad input row or an unreadable artifact), 6 training
divergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .atomic import open_atomic
from .domain import DataError, ExclusionReason, N_LEVELS
from .explain import (
    classifier_model_fn,
    global_importance,
    local_report,
    sampled_shapley,
    exact_shapley,
    write_importance_csv,
)
from .features import (
    ScalerParams,
    build_feature_vectors,
    fit_scaler,
    read_feature_copy,
    read_feature_csv,
    write_feature_copy,
    write_feature_csv,
)
from .ingest import (
    DataPaths,
    _not_utf8,
    input_digests,
    load_dataset,
    read_visit_table,
    write_visit_table,
)
from .metrics import TABLE_METRICS, build_report, comparison_rows
from .neuralnet import (
    CLASSIFIER_SIZES,
    TrainConfig,
    TrainingDivergedError,
    blas_corename,
    blas_threads,
    encode,
    load_model,
    model_to_dict,
    predict_batch,
    single_blas_thread,
    train_autoencoder,
    train_classifier,
)
from .pipeline import SplitSpec, kfold_indices, split_indices, undersample_indices
from .synthgen import CohortSpec, generate_cohort

EXIT_OK = 0
EXIT_CONFIG = 3
EXIT_MISSING_ARTIFACT = 4
EXIT_DATA = 5
EXIT_DIVERGED = 6

CONFIG_SNAPSHOT = "config_snapshot.txt"
AUDIT_JSON = "audit.json"
VISIT_TABLE = "visit_table.npz"
FEATURES_CSV = "features.csv"
FEATURES_NPZ = "features.npz"
SPLIT_JSON = "split.json"
SCALER_JSON = "scaler.json"
BALANCED_JSON = "balanced.json"
AE_MODEL_JSON = "autoencoder.json"
MODEL_FILES = {False: "classifier_without_ae.json", True: "classifier_with_ae.json"}
CV_FILES = {False: "cv_metrics_without_ae.json", True: "cv_metrics_with_ae.json"}
EVAL_FILES = {False: "eval_without_ae.json", True: "eval_with_ae.json"}
IMPORTANCE_FILES = {False: "importance_without_ae.csv", True: "importance_with_ae.csv"}
EXPLAIN_FILES = {False: "explanations_without_ae.json", True: "explanations_with_ae.json"}
TABLE4_CSV = "table4_report.csv"

VARIANT_NAMES = {False: "withoutAE", True: "withAE"}


class ConfigError(Exception):
    pass


class MissingArtifactError(Exception):
    pass


def _typed(convert, kind: str):
    """A parser: `convert` of a value's text, or a ValueError whose text
    completes "config key <key> ..."."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise ValueError(f"must be {kind}, got {text!r}") from None
    return parse


def _bounded(parse, ok, bound: str):
    """`parse`, refusing a value for which `ok` is false (NaN included)."""
    def parse_in_bounds(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"must be {bound}, got {value!r}")
        return value
    return parse_in_bounds


_integer, _number = _typed(int, "an integer"), _typed(float, "a number")
_count = _bounded(_integer, lambda v: v >= 1, "at least 1")

# every config key: (its default text, its parser). The parsers bound only
# the keys that no spec owns: CohortSpec checks the synth.* values and
# TrainConfig the train.* and ae.* SGD values. synth.seed has no default:
# unset, the cohort's seed derives from seed.
CONFIG_KEYS = {
    "seed": ("0", _integer),
    "run_dir": ("run", Path),
    "data_dir": ("run/data", Path),
    "train.fraction": ("0.8", _bounded(_number, lambda v: 0.0 < v < 1.0, "in (0, 1)")),
    "train.folds": ("5", _bounded(_integer, lambda v: v >= 2, "at least 2")),
    "train.learning_rate": ("0.01", _number),
    "train.batch_size": ("64", _integer),
    "train.epochs": ("50", _integer),
    # reconstruction loss averages over the 18 output dims, which shrinks
    # its gradients by that factor; the AE needs a hotter rate than the
    # classifier to leave the predict-the-mean plateau in few epochs
    "ae.learning_rate": ("0.5", _number),
    "ae.batch_size": ("64", _integer),
    "ae.epochs": ("12", _integer),
    "explain.method": ("sampled", _bounded(str, lambda v: v in ("exact", "sampled"), "exact or sampled")),
    "explain.n_permutations": ("200", _count),
    "explain.background_size": ("100", _count),
    "explain.n_instances": ("20", _count),
    "synth.n_patients": ("5000", _integer),
    "synth.seed": (None, _integer),
    "synth.signal_strength": ("0.0", _number),
    "synth.dirty_count": ("0", _integer),
}


def parse_config_text(text: str, source: str) -> dict[str, str]:
    """Parse `key = value` lines; # starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _spec(values: Mapping, section: str, cls, **given):
    """`cls` built from `given` and, for each other field, the value of
    the `section.<field>` key; its ValueError starts with a field's name,
    so it is re-raised as a ConfigError that names the key."""
    named = {f.name: values[f"{section}.{f.name}"] for f in fields(cls) if f.name not in given}
    try:
        return cls(**named, **given)
    except ValueError as exc:
        raise ConfigError(f"config key {section}.{exc}") from None


class RunConfig:
    """Effective configuration: defaults, then file, then --set overrides.

    Every value is parsed and checked here, so a stage never starts on a
    bad one. `cfg[key]` is a parsed value; the cohort and both SGD specs
    are built once, as `cohort`, `train` and `ae`.
    """

    def __init__(self, mapping: Mapping[str, str]):
        unknown = sorted(set(mapping) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        defaults = {key: default for key, (default, _) in CONFIG_KEYS.items() if default is not None}
        self.mapping = {**defaults, **mapping}  # the text the snapshot holds
        self._values = {}
        for key, (_, parse) in CONFIG_KEYS.items():
            if key in self.mapping:
                try:
                    self._values[key] = parse(self.mapping[key])
                except ValueError as exc:
                    raise ConfigError(f"config key {key} {exc}") from None
        seed = self["seed"]
        cohort_seed = self._values.get("synth.seed", derive_seed(seed, "synth"))
        self.cohort = _spec(self._values, "synth", CohortSpec, seed=cohort_seed)
        self.train = _spec(self._values, "train", TrainConfig, seed=derive_seed(seed, "train"))
        self.ae = _spec(self._values, "ae", TrainConfig, seed=derive_seed(seed, "ae"))
        self.run_dir, self.data_dir = self["run_dir"], self["data_dir"]
        self.config_hash = hashlib.sha256(self.snapshot_text().encode()).hexdigest()[:16]

    def __getitem__(self, key: str):
        return self._values[key]

    @classmethod
    def load(cls, config_path: Optional[str], overrides: Sequence[str]) -> "RunConfig":
        merged: dict[str, str] = {}
        if config_path is not None:
            path = Path(config_path)
            if not path.exists():
                raise ConfigError(f"config file not found: {config_path}")
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                raise ConfigError(str(_not_utf8(path))) from None
            merged.update(parse_config_text(text, path.name))
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            key, value = item.split("=", 1)
            merged[key.strip()] = value.strip()
        return cls(merged)

    def snapshot_text(self) -> str:
        return "".join(f"{k} = {self.mapping[k]}\n" for k in sorted(self.mapping))

    def write_snapshot(self) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        with open_atomic(self.run_dir / CONFIG_SNAPSHOT) as fh:
            fh.write(self.snapshot_text())


def derive_seed(global_seed: int, stage: str) -> int:
    """Fixed per-stage 64-bit seed from the global seed."""
    digest = hashlib.sha256(f"{global_seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _write_json(cfg: RunConfig, name: str, payload: dict) -> Path:
    cfg.run_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.run_dir / name
    payload = {**payload, "config_hash": cfg.config_hash}
    with open_atomic(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return path


def _read_json(path: Path):
    return json.loads(path.read_text())


def _read_feature_file(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The feature matrix and labels in features.csv, from the binary copy
    `features` wrote beside it when that copy matches the file's bytes."""
    copy = read_feature_copy(path.with_name(FEATURES_NPZ), path)
    return copy if copy is not None else read_feature_csv(path)


def _read_split(path: Path, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    split = _read_json(path)
    # numpy would truncate 1.5 and read true as 1, so check the JSON types first
    if not all(set(map(type, split[part])) <= {int} for part in ("train", "test")):
        raise ValueError("a row index is not an integer")
    train, test = (np.asarray(split[part], dtype=np.int64) for part in ("train", "test"))
    for part, idx in (("train", train), ("test", test)):
        if not idx.size:  # `train` never writes an empty part
            raise ValueError(f"the {part} list is empty")
    if any(((idx < 0) | (idx >= n_rows)).any() for idx in (train, test)):
        raise ValueError(f"a row index lies outside [0, {n_rows}), the rows of {FEATURES_CSV}")
    # `train` writes a partition: a row on both sides would be scored as held out
    if not (np.bincount(np.concatenate([train, test]), minlength=n_rows) == 1).all():
        raise ValueError(f"train and test do not hold each of the {n_rows} rows of {FEATURES_CSV} exactly once")
    return train, test


def _read_macro(path: Path) -> dict[str, float]:
    macro = _read_json(path)["macro"]
    values = {metric: macro[metric] for metric in TABLE_METRICS}
    for metric, value in values.items():
        # bool is an int subclass; NaN (an AUC with an absent class) is a float
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"macro {metric} is not a number: {value!r}")
    return {metric: float(value) for metric, value in values.items()}


# each artifact a stage reads: (the stage that writes it, its reader). The
# readers look up the layer functions when they are called, so that a
# wrapper set on this module's names (as tracing does) sees every read.
_READERS = {
    VISIT_TABLE: ("ingest", lambda path: read_visit_table(path)),
    FEATURES_CSV: ("features", _read_feature_file),
    SPLIT_JSON: ("train", _read_split),
    SCALER_JSON: ("train", lambda path: ScalerParams.from_dict(_read_json(path))),
    AE_MODEL_JSON: ("train --ae", lambda path: load_model(path)),
    MODEL_FILES[True]: ("train --ae", lambda path: load_model(path)),
    MODEL_FILES[False]: ("train --no-ae", lambda path: load_model(path)),
    EVAL_FILES[False]: ("evaluate --no-ae", _read_macro),
    EVAL_FILES[True]: ("evaluate --ae", _read_macro),
}


def _read_artifact(cfg: RunConfig, name: str, *args):
    """The reader of artifact `name` applied to its path and `args`. A
    missing file names the stage that writes it; a file its reader cannot
    parse is a DataError."""
    producer, read = _READERS[name]
    path = cfg.run_dir / name
    if not path.exists():
        raise MissingArtifactError(f"missing artifact {path}; run `{producer}` first")
    try:
        return read(path, *args)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise DataError(f"cannot read {path} ({type(exc).__name__}: {exc}); run `{producer}` again") from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(cfg: RunConfig) -> int:
    spec = cfg.cohort
    cohort = generate_cohort(spec, cfg.data_dir, header_comment=f"config_hash={cfg.config_hash}")
    n_visits = cohort.manifest["n_visits"]
    print(f"generated cohort: {spec.n_patients} patients, {n_visits} visits -> {cfg.data_dir}")
    if spec.dirty_count:
        injected = sum(cohort.expected_audit.values())
        print(f"dirty mode: {injected} expected exclusions injected")
    return EXIT_OK


def _cmd_ingest(cfg: RunConfig) -> int:
    paths = DataPaths.from_dir(cfg.data_dir)
    digests = input_digests(paths)
    missing = [name for name, digest in digests.items() if digest is None]
    if missing:
        raise MissingArtifactError(
            f"input files not found under {cfg.data_dir} (e.g. {missing[0]}); run `synth` or point data_dir at real data"
        )
    dataset, audit = load_dataset(paths)
    cfg.run_dir.mkdir(parents=True, exist_ok=True)
    write_visit_table(cfg.run_dir / VISIT_TABLE, dataset, digests, cfg.config_hash)
    payload = {
        "exclusions": {reason.value: audit.get(reason, 0) for reason in ExclusionReason},
        "n_patients": len(dataset.patients),
        "n_providers": len(dataset.providers),
        "n_visits": len(dataset.visits),
    }
    path = _write_json(cfg, AUDIT_JSON, payload)
    total = sum(audit.values())
    print(f"ingest: kept {len(dataset.visits)} visits / {len(dataset.patients)} patients, "
          f"excluded {total} -> {path}")
    return EXIT_OK


def _read_clean_dataset(cfg: RunConfig):
    """The dataset `ingest` wrote, if the input files are still the ones it read."""
    dataset, recorded = _read_artifact(cfg, VISIT_TABLE)
    current = input_digests(DataPaths.from_dir(cfg.data_dir))
    stale = [name for name, digest in recorded.items() if current.get(name) != digest]
    if stale:
        raise MissingArtifactError(
            f"{cfg.run_dir / VISIT_TABLE} was built from other input files than those under {cfg.data_dir} "
            f"({', '.join(stale)} changed); run `ingest` again"
        )
    return dataset


def _cmd_features(cfg: RunConfig) -> int:
    X, y = build_feature_vectors(_read_clean_dataset(cfg))
    cfg.run_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.run_dir / FEATURES_CSV
    write_feature_csv(path, X, y, header_comment=f"config_hash={cfg.config_hash}")
    write_feature_copy(cfg.run_dir / FEATURES_NPZ, X, y, path)
    print(f"features: {X.shape[0]} visit rows -> {path}")
    return EXIT_OK


def _read_features(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    return _read_artifact(cfg, FEATURES_CSV)


def _prepare_training(cfg: RunConfig):
    """Split, scaler, and balanced pool: shared by both train variants.

    Writes nothing: `_cmd_train` writes them once the batch sizes are checked.
    """
    x_raw, y = _read_features(cfg)
    spec = SplitSpec(seed=derive_seed(cfg["seed"], "split"), train_fraction=cfg["train.fraction"],
                     folds=cfg["train.folds"])
    train_idx, test_idx = split_indices(x_raw.shape[0], spec)
    if not test_idx.size:  # evaluate and explain would have nothing to score
        raise ConfigError(f"train.fraction {spec.train_fraction} puts all {x_raw.shape[0]} "
                          "feature rows in training and leaves no test rows")
    scaler = fit_scaler(x_raw[train_idx])
    balanced_rel = undersample_indices(
        y[train_idx],
        seed=derive_seed(cfg["seed"], "undersample"),
        required_classes=range(N_LEVELS),
    )
    balanced_idx = train_idx[balanced_rel]
    return x_raw, y, train_idx, test_idx, scaler, balanced_idx, spec


# the job of a pool, set in each worker process by _init_pool_worker
_pool_job = None


def _init_pool_worker(job) -> None:
    global _pool_job
    _pool_job = job


def _run_pool_job(i: int):
    return _pool_job(i)


def _in_pool(job, n_jobs: int) -> tuple[list, int]:
    """[job(0), ..., job(n_jobs - 1)] computed in worker processes; (results, workers).

    The jobs are independent and each runs on one BLAS thread, so they use
    one worker per core. The workers are forked, so `job` and everything it
    reads are shared with this process instead of pickled; only the results
    come back pickled. Jobs start in index order, so put the longest first.
    """
    # a pool needs one worker, which it starts only at the first job
    workers = min(len(os.sched_getaffinity(0)), max(n_jobs, 1))
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_pool_worker,
        initargs=(job,),
    ) as pool:
        futures = [pool.submit(_run_pool_job, i) for i in range(n_jobs)]
        return [future.result() for future in futures], workers


def _cmd_train(cfg: RunConfig, with_ae: bool) -> int:
    x_raw, y, train_idx, test_idx, scaler, balanced_idx, spec = _prepare_training(cfg)
    x_balanced = scaler.transform(x_raw[balanced_idx])
    y_balanced = y[balanced_idx]
    x_ae = scaler.transform(x_raw[train_idx]) if with_ae else None
    del x_raw, y  # every row the fits read is taken: the raw matrix is not held through them
    folds = kfold_indices(x_balanced.shape[0], spec.folds, derive_seed(cfg["seed"], "fold"))
    # each fit checks its own batch size, but only once the split files are
    # written and the fits before it have run, so both batch sizes are
    # checked here first, the classifier's against the smallest fold
    fold_no, fit_rows = min(enumerate((fit.size for fit, _ in folds), 1), key=lambda f: f[1])
    if cfg.train.batch_size > fit_rows:
        raise ConfigError(f"train.batch_size {cfg.train.batch_size} exceeds the {fit_rows} rows "
                          f"that fold {fold_no} of {spec.folds} fits on")
    if with_ae and cfg.ae.batch_size > train_idx.size:
        raise ConfigError(f"ae.batch_size {cfg.ae.batch_size} exceeds the {train_idx.size} "
                          "training rows the autoencoder fits on")

    _write_json(cfg, SPLIT_JSON, {
        "train": [int(i) for i in train_idx],
        "test": [int(i) for i in test_idx],
        "train_fraction": spec.train_fraction,
    })
    _write_json(cfg, SCALER_JSON, scaler.to_dict())
    _write_json(cfg, BALANCED_JSON, {"indices": [int(i) for i in balanced_idx]})

    if with_ae:
        ae_model = train_autoencoder(x_ae, config=cfg.ae)
        del x_ae
        ae_path = _write_json(cfg, AE_MODEL_JSON, model_to_dict(ae_model))
        print(f"autoencoder: final reconstruction loss {ae_model.final_loss:.6f} -> {ae_path}")
        inputs = encode(ae_model, x_balanced)
        sizes = (ae_model.layer_sizes[-1], *CLASSIFIER_SIZES[1:])
    else:
        inputs = x_balanced
        sizes = CLASSIFIER_SIZES

    # the final fit on the whole balanced pool is the longest job, so it goes first
    row_sets = [slice(None), *(fit_idx for fit_idx, _ in folds)]
    (final, *fold_models), workers = _in_pool(
        lambda i: train_classifier(inputs[row_sets[i]], y_balanced[row_sets[i]], sizes, cfg.train),
        len(row_sets),
    )

    # fold-level validation metrics on the balanced pool
    fold_reports = []
    for model, (_, val_idx) in zip(fold_models, folds):
        labels, probs = predict_batch(model, inputs[val_idx])
        fold_reports.append(build_report(y_balanced[val_idx], labels, probs, VARIANT_NAMES[with_ae]))

    model_path = _write_json(cfg, MODEL_FILES[with_ae], model_to_dict(final))
    macro_auc = [r["macro"]["auc"] for r in fold_reports]
    _write_json(cfg, CV_FILES[with_ae], {
        "variant": VARIANT_NAMES[with_ae],
        "folds": fold_reports,
        "mean_macro_auc": float(np.mean(macro_auc)),
    })
    threads = blas_threads() or "default"  # pinned in main, so the count each fit ran on
    corename = blas_corename()  # its kernels set the last bits of every weight update
    kernel = f" (OpenBLAS {corename} kernel)" if corename else ""
    print(f"train[{VARIANT_NAMES[with_ae]}]: {inputs.shape[0]} balanced rows, "
          f"{len(row_sets)} fits on {workers} worker(s) with {threads} BLAS thread(s){kernel} each, "
          f"{spec.folds}-fold mean macro AUC {float(np.mean(macro_auc)):.4f}, "
          f"final loss {final.final_loss:.6f} -> {model_path}")
    return EXIT_OK


def _load_eval_inputs(cfg: RunConfig, with_ae: bool):
    x_raw, y = _read_features(cfg)
    train_idx, test_idx = _read_artifact(cfg, SPLIT_JSON, y.size)
    scaler = _read_artifact(cfg, SCALER_JSON)
    model = _read_artifact(cfg, MODEL_FILES[with_ae])
    ae_model = _read_artifact(cfg, AE_MODEL_JSON) if with_ae else None
    return x_raw, y, train_idx, test_idx, scaler, model, ae_model


def _cmd_evaluate(cfg: RunConfig, with_ae: bool) -> int:
    x_raw, y, _, test_idx, scaler, model, ae_model = _load_eval_inputs(cfg, with_ae)
    x_test, y_test = scaler.transform(x_raw[test_idx]), y[test_idx]
    del x_raw, y  # the raw matrix is not held through the forward pass
    labels, probs = predict_batch(model, x_test, ae=ae_model)
    report = build_report(y_test, labels, probs, VARIANT_NAMES[with_ae])
    path = _write_json(cfg, EVAL_FILES[with_ae], report)
    print(f"evaluate[{VARIANT_NAMES[with_ae]}]: {len(test_idx)} test rows -> {path}")
    for metric in TABLE_METRICS:
        print(f"  macro {metric}: {report['macro'][metric]:.4f}")
    print(f"  multiclass accuracy: {report['multiclass_accuracy']:.4f}")
    return EXIT_OK


def _cmd_explain(cfg: RunConfig, with_ae: bool) -> int:
    x_raw, _, train_idx, test_idx, scaler, model, ae_model = _load_eval_inputs(cfg, with_ae)

    bg_rng = np.random.default_rng(derive_seed(cfg["seed"], "background"))
    bg_size = min(cfg["explain.background_size"], train_idx.size)
    bg_rows = scaler.transform(x_raw[train_idx[bg_rng.choice(train_idx.size, bg_size, replace=False)]])
    baseline = bg_rows.mean(axis=0)  # an absent feature takes its background mean

    inst_rng = np.random.default_rng(derive_seed(cfg["seed"], "explain"))
    n_instances = min(cfg["explain.n_instances"], test_idx.size)
    chosen = np.sort(inst_rng.choice(test_idx.size, n_instances, replace=False))
    instances = scaler.transform(x_raw[test_idx[chosen]])
    del x_raw  # the raw matrix is not held through the forward passes

    model_fn = classifier_model_fn(model, ae=ae_model)
    predicted, _ = predict_batch(model, instances, ae=ae_model)

    def attribute(row_no: int):
        cls = int(predicted[row_no])
        if cfg["explain.method"] == "exact":
            return exact_shapley(model_fn, instances[row_no], baseline, explained_class=cls)
        return sampled_shapley(
            model_fn, instances[row_no], baseline, explained_class=cls,
            n_permutations=cfg["explain.n_permutations"],
            seed=derive_seed(cfg["seed"], f"explain:{row_no}"),
        )

    attributions, workers = _in_pool(attribute, n_instances)
    reports = [
        {
            "row": int(test_idx[chosen[row_no]]),
            "attribution": att.to_dict(),
            "report": local_report(att),
        }
        for row_no, att in enumerate(attributions)
    ]

    importance = global_importance(attributions)
    csv_path = cfg.run_dir / IMPORTANCE_FILES[with_ae]
    write_importance_csv(csv_path, importance, header_comment=f"config_hash={cfg.config_hash}")
    json_path = _write_json(cfg, EXPLAIN_FILES[with_ae], {
        "variant": VARIANT_NAMES[with_ae],
        "instances": reports,
    })
    top3 = ", ".join(importance.ranked_names()[:3])
    model_rows = sum(att.model_rows for att in attributions)
    print(f"explain[{VARIANT_NAMES[with_ae]}]: {n_instances} visits, {model_rows:,} model rows on "
          f"{workers} worker(s), top features {top3} -> {csv_path}, {json_path}")
    return EXIT_OK


def _cmd_compare(cfg: RunConfig) -> int:
    rows = comparison_rows(_read_artifact(cfg, EVAL_FILES[False]), _read_artifact(cfg, EVAL_FILES[True]))
    path = cfg.run_dir / TABLE4_CSV
    with open_atomic(path) as fh:
        fh.write(f"# config_hash={cfg.config_hash}\n")
        fh.write("metric,withoutAE,withAE,increase\n")
        for name, a, b, inc in rows:
            fh.write(f"{name},{a:.4f},{b:.4f},{inc:+.4f}\n")
    print(f"comparison -> {path}")
    for name, a, b, inc in rows:
        print(f"  {name:<12} {a:.4f}  {b:.4f}  {inc:+.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


# each command: (its function, its help text, whether it takes --ae/--no-ae)
_COMMANDS = {
    "synth": (_cmd_synth, "generate a synthetic cohort into data_dir", False),
    "ingest": (_cmd_ingest, "load the data_dir files; write the clean visit table and the exclusion audit", False),
    "features": (_cmd_features, "build the visit feature matrix from the visit table", False),
    "train": (_cmd_train, "split, balance, cross-validate, and fit the classifier", True),
    "evaluate": (_cmd_evaluate, "score the trained classifier on the held-out test rows", True),
    "explain": (_cmd_explain, "global importance ranking and per-visit attributions", True),
    "compare": (_cmd_compare, "write the withoutAE/withAE/increase report", False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carechoice",
        description="Hospital-level choice pipeline: synthesize, ingest, train, explain, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, ae_flag) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config entry (repeatable)")
        if ae_flag:
            group = p.add_mutually_exclusive_group()
            group.add_argument("--ae", dest="with_ae", action="store_true",
                               help="use the autoencoder data representation")
            group.add_argument("--no-ae", dest="with_ae", action="store_false",
                               help="use the raw scaled features (default)")
            p.set_defaults(with_ae=False)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command, _, ae_flag = _COMMANDS[args.command]
    try:
        cfg = RunConfig.load(args.config, args.set)
        # OpenBLAS splits a matrix product differently at different thread
        # counts, which changes the last bits of the results; one thread
        # keeps every stage's artifacts the same at any count
        with single_blas_thread():
            code = command(cfg, args.with_ae) if ae_flag else command(cfg)
        # so the snapshot hashes to the config_hash of the last stage's artifacts
        if code == EXIT_OK:
            cfg.write_snapshot()
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
