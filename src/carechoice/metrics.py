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


def binary_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Mann-Whitney AUC of scores for a binary task, ties counted 0.5: the
    positives' rank sum, where tied scores share the mean of their 1-based
    ranks; NaN if any score is NaN."""
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = int((~positive).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both positive and negative samples")
    if np.isnan(scores).any():
        return float("nan")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse.reshape(-1)]
    rank_sum = float(ranks[positive].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """numerator / denominator per class, 0 where the denominator is 0."""
    return np.divide(numerator, denominator, out=np.zeros(denominator.shape), where=denominator > 0)


def build_report(
    labels: Sequence[int],
    predictions: Sequence[int],
    probabilities: np.ndarray,
    variant: str,
    n_classes: int = N_LEVELS,
) -> dict:
    """Per-class and macro metrics of one model variant ("withoutAE" or
    "withAE"), as written to `eval_*.json` and each fold of `cv_metrics_*.json`.

    Each class is scored one-vs-rest from its (tp, fp, fn, tn). A metric
    whose denominator is 0 reads 0 and is listed in the class's
    `degenerate`; `macro_degenerate` is the sorted union of those lists. A
    class with no positives or no negatives has AUC NaN and is left out of
    the macro AUC with a warning.
    """
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    probabilities = np.asarray(probabilities, dtype=np.float64)
    if labels.shape != predictions.shape:
        raise ValueError(f"length mismatch: {labels.shape} labels vs {predictions.shape} predictions")
    if labels.size == 0:
        raise ValueError("cannot tabulate zero samples")
    if probabilities.ndim != 2 or probabilities.shape[0] != labels.size:
        raise ValueError("probability matrix must be (n_samples, n_classes)")

    # (rows, classes) one-vs-rest indicators, and each class's counts
    positive = labels.reshape(-1, 1) == np.arange(n_classes)
    predicted = predictions.reshape(-1, 1) == np.arange(n_classes)
    tp = (positive & predicted).sum(axis=0)
    fp = predicted.sum(axis=0) - tp
    fn = positive.sum(axis=0) - tp
    tn = labels.size - tp - fp - fn
    sensitivity, specificity, precision = _ratio(tp, tp + fn), _ratio(tn, tn + fp), _ratio(tp, tp + fp)
    values = {
        "accuracy": (tp + tn) / labels.size,
        "sensitivity": sensitivity,
        "specificity": specificity,
        "precision": precision,
        "f1": _ratio(2 * (precision * sensitivity), precision + sensitivity),
    }
    zero_denominator = {
        "sensitivity": tp + fn == 0,
        "specificity": tn + fp == 0,
        "precision": tp + fp == 0,
        "f1": precision + sensitivity == 0,
    }

    present = positive.any(axis=0) & ~positive.all(axis=0)
    for c in np.flatnonzero(~present):
        warnings.warn(f"class {c} has no positives or no negatives; excluded from macro AUC")
    if not present.any():
        raise ValueError("no class has both positives and negatives")
    auc = [binary_auc(probabilities[:, c], positive[:, c]) if present[c] else float("nan")
           for c in range(n_classes)]

    return {
        "variant": variant,
        "n_samples": int(labels.size),
        "multiclass_accuracy": float(np.mean(labels == predictions)),
        "macro": {
            "auc": float(np.mean([auc[c] for c in np.flatnonzero(present)])),
            **{m: float(np.mean(v)) for m, v in values.items()},
        },
        "macro_degenerate": sorted(m for m, zero in zero_denominator.items() if zero.any()),
        "per_class": {
            str(c): {
                **{m: float(v[c]) for m, v in values.items()},
                "degenerate": [m for m, zero in zero_denominator.items() if zero[c]],
                "auc": auc[c],
            }
            for c in range(n_classes)
        },
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
