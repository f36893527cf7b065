"""Confusion-matrix metrics, macro averaging, and one-vs-rest AUC.

Every metric treats each class one-vs-rest; the macro value is the
unweighted mean across classes. AUC is the exact Mann-Whitney pairwise
statistic with ties counted as half, computed via average ranks.
"""

from __future__ import annotations

import warnings
from typing import Mapping, Sequence

import numpy as np

from .domain import N_LEVELS

TABLE_METRICS = ("auc", "accuracy", "f1", "precision", "sensitivity", "specificity")
TABLE_ROW_LABELS = {
    "auc": "AUC",
    "accuracy": "Accuracy",
    "f1": "F1 Score",
    "precision": "Precision",
    "sensitivity": "Sensitivity",
    "specificity": "Specificity",
}
_CLASS_METRICS = ("accuracy", "sensitivity", "specificity", "precision", "f1")


def confusion_counts(
    labels: Sequence[int], predictions: Sequence[int], n_classes: int = N_LEVELS
) -> list[tuple[int, int, int, int]]:
    """One-vs-rest (tp, fp, fn, tn) of each class, in class order."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape:
        raise ValueError(f"length mismatch: {labels.shape} labels vs {predictions.shape} predictions")
    if labels.size == 0:
        raise ValueError("cannot tabulate zero samples")
    counts = []
    for c in range(n_classes):
        pos = labels == c
        pred_pos = predictions == c
        counts.append((
            int(np.sum(pos & pred_pos)),
            int(np.sum(~pos & pred_pos)),
            int(np.sum(pos & ~pred_pos)),
            int(np.sum(~pos & ~pred_pos)),
        ))
    return counts


def per_class_metrics(tp: int, fp: int, fn: int, tn: int) -> dict:
    """Accuracy, sensitivity, specificity, precision, and F1 from one-vs-rest
    counts. Zero denominators resolve to 0 and are listed in `degenerate`."""
    n = tp + fp + fn + tn
    if n < 1:
        raise ValueError("empty counts")
    degenerate = []
    accuracy = (tp + tn) / n
    if tp + fn > 0:
        sensitivity = tp / (tp + fn)
    else:
        sensitivity = 0.0
        degenerate.append("sensitivity")
    if tn + fp > 0:
        specificity = tn / (tn + fp)
    else:
        specificity = 0.0
        degenerate.append("specificity")
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision = 0.0
        degenerate.append("precision")
    if precision + sensitivity > 0:
        f1 = 2 * (precision * sensitivity) / (precision + sensitivity)
    else:
        f1 = 0.0
        degenerate.append("f1")
    return {
        "accuracy": accuracy,
        "sensitivity": sensitivity,
        "specificity": specificity,
        "precision": precision,
        "f1": f1,
        "degenerate": degenerate,
    }


def macro_metrics(per_class: Sequence[dict]) -> dict:
    """Unweighted arithmetic mean of each metric across classes, with the
    sorted union of their `degenerate` flags."""
    if not per_class:
        raise ValueError("no classes")
    macro = {m: float(np.mean([c[m] for c in per_class])) for m in _CLASS_METRICS}
    macro["degenerate"] = sorted({f for c in per_class for f in c["degenerate"]})
    return macro


def binary_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Mann-Whitney AUC of scores for a binary task, ties counted 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = int((~positive).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both positive and negative samples")
    ranks = _average_ranks(scores)
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of `x`, tied values sharing the mean of their ranks;
    all NaN if any value is NaN."""
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return (last - (counts - 1) / 2.0)[inverse.reshape(-1)]


def auc_ovr(
    labels: Sequence[int], probabilities: np.ndarray, n_classes: int = N_LEVELS
) -> tuple[dict[int, float], float]:
    """One-vs-rest AUC per class plus the macro mean.

    A class with no positives or no negatives gets NaN and is excluded from
    the macro with a warning.
    """
    labels = np.asarray(labels)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if probabilities.ndim != 2 or probabilities.shape[0] != labels.size:
        raise ValueError("probability matrix must be (n_samples, n_classes)")
    per_class: dict[int, float] = {}
    valid = []
    for c in range(n_classes):
        pos = labels == c
        if pos.all() or not pos.any():
            warnings.warn(f"class {c} has no positives or no negatives; excluded from macro AUC")
            per_class[c] = float("nan")
            continue
        auc = binary_auc(probabilities[:, c], pos)
        per_class[c] = auc
        valid.append(auc)
    if not valid:
        raise ValueError("no class has both positives and negatives")
    return per_class, float(np.mean(valid))


def build_report(
    labels: Sequence[int],
    predictions: Sequence[int],
    probabilities: np.ndarray,
    variant: str,
    n_classes: int = N_LEVELS,
) -> dict:
    """Per-class and macro metrics of one model variant ("withoutAE" or
    "withAE"), as written to `eval_*.json` and each fold of `cv_metrics_*.json`."""
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    per_class = [per_class_metrics(*counts) for counts in confusion_counts(labels, predictions, n_classes)]
    per_class_auc, macro_auc = auc_ovr(labels, probabilities, n_classes)
    macro = macro_metrics(per_class)
    return {
        "variant": variant,
        "n_samples": int(labels.size),
        "multiclass_accuracy": float(np.mean(labels == predictions)),
        "macro": {"auc": macro_auc, **{m: macro[m] for m in _CLASS_METRICS}},
        "macro_degenerate": macro["degenerate"],
        "per_class": {str(c): {**m, "auc": per_class_auc[c]} for c, m in enumerate(per_class)},
    }


def comparison_rows(
    without_ae: Mapping[str, float], with_ae: Mapping[str, float]
) -> list[tuple[str, float, float, float]]:
    """Rows (metric, withoutAE, withAE, increase) for the comparison table,
    from the `macro` objects of the two variants' reports."""
    rows = []
    for metric in TABLE_METRICS:
        a = without_ae[metric]
        b = with_ae[metric]
        rows.append((TABLE_ROW_LABELS[metric], a, b, b - a))
    return rows
