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
from .domain import (
    CalendarCoverageError,
    EmptyDatasetError,
    ExclusionReason,
    N_LEVELS,
)
from .explain import (
    classifier_model_fn,
    global_importance,
    local_report,
    sampled_shapley,
    exact_shapley,
    write_importance_csv,
)
from .features import (
    FeatureFileError,
    MissingRegionError,
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
    IngestError,
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
from .pipeline import (
    SamplingError,
    SplitSpec,
    kfold_indices,
    split_indices,
    undersample_indices,
)
from .synthgen import CohortSpec, generate_cohort

EXIT_OK = 0
EXIT_USAGE = 2
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

DEFAULT_CONFIG: dict[str, str] = {
    "seed": "0",
    "run_dir": "run",
    "data_dir": "run/data",
    "train.fraction": "0.8",
    "train.folds": "5",
    "train.learning_rate": "0.01",
    "train.batch_size": "64",
    "train.epochs": "50",
    # reconstruction loss averages over the 18 output dims, which shrinks
    # its gradients by that factor; the AE needs a hotter rate than the
    # classifier to leave the predict-the-mean plateau in few epochs
    "ae.learning_rate": "0.5",
    "ae.batch_size": "64",
    "ae.epochs": "12",
    "explain.method": "sampled",
    "explain.n_permutations": "200",
    "explain.background_size": "100",
    "explain.n_instances": "20",
    "synth.n_patients": "5000",
    "synth.signal_strength": "0.0",
    "synth.dirty_count": "0",
}


class ConfigError(Exception):
    pass


class MissingArtifactError(Exception):
    pass


class UnreadableArtifactError(Exception):
    """An artifact exists but does not parse."""


def _allowed_keys() -> frozenset[str]:
    synth_keys = {f"synth.{f.name}" for f in fields(CohortSpec)}
    return frozenset(DEFAULT_CONFIG) | synth_keys


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


class RunConfig:
    """Effective configuration: defaults, then file, then --set overrides."""

    def __init__(self, mapping: Mapping[str, str]):
        unknown = sorted(set(mapping) - _allowed_keys())
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        self.mapping = {**DEFAULT_CONFIG, **mapping}

    @classmethod
    def load(cls, config_path: Optional[str], overrides: Sequence[str]) -> "RunConfig":
        merged: dict[str, str] = {}
        if config_path is not None:
            path = Path(config_path)
            if not path.exists():
                raise ConfigError(f"config file not found: {config_path}")
            merged.update(parse_config_text(path.read_text(), path.name))
        for item in overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            key, value = item.split("=", 1)
            merged[key.strip()] = value.strip()
        return cls(merged)

    def get_str(self, key: str) -> str:
        return self.mapping[key]

    def get_int(self, key: str) -> int:
        try:
            return int(self.mapping[key])
        except ValueError:
            raise ConfigError(f"config key {key} must be an integer, got {self.mapping[key]!r}")

    def get_float(self, key: str) -> float:
        try:
            return float(self.mapping[key])
        except ValueError:
            raise ConfigError(f"config key {key} must be a number, got {self.mapping[key]!r}")

    def snapshot_text(self) -> str:
        return "".join(f"{k} = {self.mapping[k]}\n" for k in sorted(self.mapping))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.snapshot_text().encode()).hexdigest()[:16]

    @property
    def run_dir(self) -> Path:
        return Path(self.get_str("run_dir"))

    @property
    def data_dir(self) -> Path:
        return Path(self.get_str("data_dir"))

    def write_snapshot(self) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        with open_atomic(self.run_dir / CONFIG_SNAPSHOT) as fh:
            fh.write(self.snapshot_text())


def _spec(section: str, cls, **fields):
    """`cls(**fields)`, a spec whose fields are the suffixes of the
    `section.*` keys; its ValueError starts with a field's name, so it is
    re-raised as a ConfigError that names the key."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"config key {section}.{exc}") from None


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


def _read_artifact(cfg: RunConfig, name: str, producer: str) -> Path:
    path = cfg.run_dir / name
    if not path.exists():
        raise MissingArtifactError(f"missing artifact {path}; run `{producer}` first")
    return path


def _read_json(path: Path):
    return json.loads(path.read_text())


def _load_artifact(cfg: RunConfig, name: str, producer: str, load=_read_json):
    """`load` applied to an artifact's path; a file it cannot parse is a data error."""
    path = _read_artifact(cfg, name, producer)
    try:
        return load(path)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UnreadableArtifactError(
            f"cannot read {path} ({type(exc).__name__}: {exc}); run `{producer}` again"
        ) from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(cfg: RunConfig) -> int:
    seed = cfg.get_int("synth.seed") if "synth.seed" in cfg.mapping else derive_seed(cfg.get_int("seed"), "synth")
    spec = _spec(
        "synth", CohortSpec,
        n_patients=cfg.get_int("synth.n_patients"),
        seed=seed,
        signal_strength=cfg.get_float("synth.signal_strength"),
        dirty_count=cfg.get_int("synth.dirty_count"),
    )
    cohort = generate_cohort(spec, cfg.data_dir, header_comment=f"config_hash={cfg.config_hash}")
    cfg.write_snapshot()
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
    cfg.write_snapshot()
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
    path = _read_artifact(cfg, VISIT_TABLE, "ingest")
    dataset, recorded = read_visit_table(path)
    current = input_digests(DataPaths.from_dir(cfg.data_dir))
    stale = [name for name, digest in recorded.items() if current.get(name) != digest]
    if stale:
        raise MissingArtifactError(
            f"{path} was built from other input files than those under {cfg.data_dir} "
            f"({', '.join(stale)} changed); run `ingest` again"
        )
    return dataset


def _cmd_features(cfg: RunConfig) -> int:
    X, y = build_feature_vectors(_read_clean_dataset(cfg))
    cfg.write_snapshot()
    cfg.run_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.run_dir / FEATURES_CSV
    write_feature_csv(path, X, y, header_comment=f"config_hash={cfg.config_hash}")
    write_feature_copy(cfg.run_dir / FEATURES_NPZ, X, y, path)
    print(f"features: {X.shape[0]} visit rows -> {path}")
    return EXIT_OK


def _read_features(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """The feature matrix and labels in features.csv, from the binary copy
    `features` wrote beside it when that copy matches the file's bytes."""
    path = _read_artifact(cfg, FEATURES_CSV, "features")
    copy = read_feature_copy(cfg.run_dir / FEATURES_NPZ, path)
    return copy if copy is not None else read_feature_csv(path)


def _prepare_training(cfg: RunConfig):
    """Split, scaler, and balanced pool: shared by both train variants.

    Writes nothing: `_cmd_train` writes them once the batch sizes are checked.
    """
    fraction, folds = cfg.get_float("train.fraction"), cfg.get_int("train.folds")
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"train.fraction must be in (0, 1), got {fraction}")
    if folds < 2:
        raise ConfigError(f"train.folds must be at least 2, got {folds}")
    x_raw, y = _read_features(cfg)
    spec = SplitSpec(seed=derive_seed(cfg.get_int("seed"), "split"), train_fraction=fraction, folds=folds)
    train_idx, test_idx = split_indices(x_raw.shape[0], spec)
    if not test_idx.size:  # evaluate and explain would have nothing to score
        raise ConfigError(f"train.fraction {spec.train_fraction} puts all {x_raw.shape[0]} "
                          "feature rows in training and leaves no test rows")
    scaler = fit_scaler(x_raw[train_idx])
    balanced_rel = undersample_indices(
        y[train_idx],
        seed=derive_seed(cfg.get_int("seed"), "undersample"),
        required_classes=range(N_LEVELS),
    )
    balanced_idx = train_idx[balanced_rel]
    return x_raw, y, train_idx, test_idx, scaler, balanced_idx, spec


def _train_config(cfg: RunConfig, section: str, stage: str) -> TrainConfig:
    return _spec(
        section, TrainConfig,
        learning_rate=cfg.get_float(f"{section}.learning_rate"),
        batch_size=cfg.get_int(f"{section}.batch_size"),
        epochs=cfg.get_int(f"{section}.epochs"),
        seed=derive_seed(cfg.get_int("seed"), stage),
    )


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
    # the SGD values are checked before any artifact is read
    train_cfg = _train_config(cfg, "train", "train")
    ae_cfg = _train_config(cfg, "ae", "ae") if with_ae else None
    x_raw, y, train_idx, test_idx, scaler, balanced_idx, spec = _prepare_training(cfg)
    x_balanced = scaler.transform(x_raw[balanced_idx])
    y_balanced = y[balanced_idx]
    x_ae = scaler.transform(x_raw[train_idx]) if with_ae else None
    del x_raw, y  # every row the fits read is taken: the raw matrix is not held through them
    folds = kfold_indices(x_balanced.shape[0], spec.folds, derive_seed(cfg.get_int("seed"), "fold"))
    # each fit checks its own batch size, but only once the split files are
    # written and the fits before it have run, so both batch sizes are
    # checked here first, the classifier's against the smallest fold
    fold_no, fit_rows = min(enumerate((fit.size for fit, _ in folds), 1), key=lambda f: f[1])
    if train_cfg.batch_size > fit_rows:
        raise ConfigError(f"train.batch_size {train_cfg.batch_size} exceeds the {fit_rows} rows "
                          f"that fold {fold_no} of {spec.folds} fits on")
    if with_ae and ae_cfg.batch_size > train_idx.size:
        raise ConfigError(f"ae.batch_size {ae_cfg.batch_size} exceeds the {train_idx.size} "
                          "training rows the autoencoder fits on")

    _write_json(cfg, SPLIT_JSON, {
        "train": [int(i) for i in train_idx],
        "test": [int(i) for i in test_idx],
        "train_fraction": spec.train_fraction,
    })
    _write_json(cfg, SCALER_JSON, scaler.to_dict())
    _write_json(cfg, BALANCED_JSON, {"indices": [int(i) for i in balanced_idx]})

    if with_ae:
        ae_model = train_autoencoder(x_ae, config=ae_cfg)
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
        lambda i: train_classifier(inputs[row_sets[i]], y_balanced[row_sets[i]], sizes, train_cfg),
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


def _load_variant_models(cfg: RunConfig, with_ae: bool):
    producer = f"train {'--ae' if with_ae else '--no-ae'}"
    model = _load_artifact(cfg, MODEL_FILES[with_ae], producer, load_model)
    ae_model = None
    if with_ae:
        ae_model = _load_artifact(cfg, AE_MODEL_JSON, producer, load_model)
    return model, ae_model


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


def _load_eval_inputs(cfg: RunConfig):
    x_raw, y = _read_features(cfg)
    train_idx, test_idx = _load_artifact(cfg, SPLIT_JSON, "train", lambda path: _read_split(path, y.size))
    scaler = _load_artifact(cfg, SCALER_JSON, "train", lambda path: ScalerParams.from_dict(_read_json(path)))
    return x_raw, y, train_idx, test_idx, scaler


def _cmd_evaluate(cfg: RunConfig, with_ae: bool) -> int:
    x_raw, y, _, test_idx, scaler = _load_eval_inputs(cfg)
    model, ae_model = _load_variant_models(cfg, with_ae)
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
    # checked before any artifact is read, and each by its key: a bad value
    # would otherwise fail deep inside, some only in a pool worker
    method = cfg.get_str("explain.method")
    if method not in ("exact", "sampled"):
        raise ConfigError(f"config key explain.method must be exact or sampled, got {method!r}")
    for key in ("explain.n_permutations", "explain.n_instances", "explain.background_size"):
        if cfg.get_int(key) < 1:
            raise ConfigError(f"config key {key} must be at least 1, got {cfg.get_int(key)}")
    x_raw, _, train_idx, test_idx, scaler = _load_eval_inputs(cfg)
    model, ae_model = _load_variant_models(cfg, with_ae)

    bg_rng = np.random.default_rng(derive_seed(cfg.get_int("seed"), "background"))
    bg_size = min(cfg.get_int("explain.background_size"), train_idx.size)
    bg_rows = scaler.transform(x_raw[train_idx[bg_rng.choice(train_idx.size, bg_size, replace=False)]])
    baseline = bg_rows.mean(axis=0)  # an absent feature takes its background mean

    inst_rng = np.random.default_rng(derive_seed(cfg.get_int("seed"), "explain"))
    n_instances = min(cfg.get_int("explain.n_instances"), test_idx.size)
    chosen = np.sort(inst_rng.choice(test_idx.size, n_instances, replace=False))
    instances = scaler.transform(x_raw[test_idx[chosen]])
    del x_raw  # the raw matrix is not held through the forward passes

    model_fn = classifier_model_fn(model, ae=ae_model)
    predicted, _ = predict_batch(model, instances, ae=ae_model)

    def attribute(row_no: int):
        cls = int(predicted[row_no])
        if method == "exact":
            return exact_shapley(model_fn, instances[row_no], baseline, explained_class=cls)
        return sampled_shapley(
            model_fn, instances[row_no], baseline, explained_class=cls,
            n_permutations=cfg.get_int("explain.n_permutations"),
            seed=derive_seed(cfg.get_int("seed"), f"explain:{row_no}"),
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


def _read_macro(path: Path) -> dict[str, float]:
    macro = _read_json(path)["macro"]
    values = {metric: macro[metric] for metric in TABLE_METRICS}
    for metric, value in values.items():
        # bool is an int subclass; NaN (an AUC with an absent class) is a float
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"macro {metric} is not a number: {value!r}")
    return {metric: float(value) for metric, value in values.items()}


def _cmd_compare(cfg: RunConfig) -> int:
    rows = comparison_rows(
        _load_artifact(cfg, EVAL_FILES[False], "evaluate --no-ae", _read_macro),
        _load_artifact(cfg, EVAL_FILES[True], "evaluate --ae", _read_macro),
    )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carechoice",
        description="Hospital-level choice pipeline: synthesize, ingest, train, explain, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, ae_flag: bool = False):
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
        return p

    add("synth", "generate a synthetic cohort into data_dir")
    add("ingest", "load the data_dir files; write the clean visit table and the exclusion audit")
    add("features", "build the visit feature matrix from the visit table")
    add("train", "split, balance, cross-validate, and fit the classifier", ae_flag=True)
    add("evaluate", "score the trained classifier on the held-out test rows", ae_flag=True)
    add("explain", "global importance ranking and per-visit attributions", ae_flag=True)
    add("compare", "write the withoutAE/withAE/increase report")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, args.set)
        # OpenBLAS splits a matrix product differently at different thread
        # counts, which changes the last bits of the results; one thread
        # keeps every stage's artifacts the same at any count
        with single_blas_thread():
            if args.command == "synth":
                return _cmd_synth(cfg)
            if args.command == "ingest":
                return _cmd_ingest(cfg)
            if args.command == "features":
                return _cmd_features(cfg)
            if args.command == "train":
                return _cmd_train(cfg, args.with_ae)
            if args.command == "evaluate":
                return _cmd_evaluate(cfg, args.with_ae)
            if args.command == "explain":
                return _cmd_explain(cfg, args.with_ae)
            if args.command == "compare":
                return _cmd_compare(cfg)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (IngestError, EmptyDatasetError, MissingRegionError, FeatureFileError,
            CalendarCoverageError, SamplingError, UnreadableArtifactError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
