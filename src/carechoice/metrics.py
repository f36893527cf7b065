"""Confusion-matrix metrics, macro averaging, and one-vs-rest AUC.

Every metric treats each class one-vs-rest; the macro value is the
unweighted mean across classes. AUC is the exact Mann-Whitney pairwise
statistic with ties counted as half, computed via average ranks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
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


@dataclass(frozen=True)
class ClassCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class ConfusionCounts:
    per_class: Mapping[int, ClassCounts]
    n: int


def confusion_counts(
    labels: Sequence[int], predictions: Sequence[int], n_classes: int = N_LEVELS
) -> ConfusionCounts:
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    if labels.shape != predictions.shape:
        raise ValueError(f"length mismatch: {labels.shape} labels vs {predictions.shape} predictions")
    if labels.size == 0:
        raise ValueError("cannot tabulate zero samples")
    per_class = {}
    for c in range(n_classes):
        pos = labels == c
        pred_pos = predictions == c
        per_class[c] = ClassCounts(
            tp=int(np.sum(pos & pred_pos)),
            fp=int(np.sum(~pos & pred_pos)),
            fn=int(np.sum(pos & ~pred_pos)),
            tn=int(np.sum(~pos & ~pred_pos)),
        )
    return ConfusionCounts(per_class=per_class, n=int(labels.size))


@dataclass(frozen=True)
class ClassMetrics:
    accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    f1: float
    degenerate: tuple[str, ...] = ()


def per_class_metrics(c: ClassCounts) -> ClassMetrics:
    """Accuracy, sensitivity, specificity, precision, and F1 from one-vs-rest
    counts. Zero denominators resolve to 0 and are flagged in `degenerate`."""
    if c.n < 1:
        raise ValueError("empty counts")
    degenerate = []
    accuracy = (c.tp + c.tn) / c.n
    if c.tp + c.fn > 0:
        sensitivity = c.tp / (c.tp + c.fn)
    else:
        sensitivity = 0.0
        degenerate.append("sensitivity")
    if c.tn + c.fp > 0:
        specificity = c.tn / (c.tn + c.fp)
    else:
        specificity = 0.0
        degenerate.append("specificity")
    if c.tp + c.fp > 0:
        precision = c.tp / (c.tp + c.fp)
    else:
        precision = 0.0
        degenerate.append("precision")
    if precision + sensitivity > 0:
        f1 = 2 * (precision * sensitivity) / (precision + sensitivity)
    else:
        f1 = 0.0
        degenerate.append("f1")
    return ClassMetrics(
        accuracy=accuracy,
        sensitivity=sensitivity,
        specificity=specificity,
        precision=precision,
        f1=f1,
        degenerate=tuple(degenerate),
    )


def macro_metrics(per_class: Mapping[int, ClassMetrics]) -> ClassMetrics:
    """Unweighted arithmetic mean of each metric across classes."""
    if not per_class:
        raise ValueError("no classes")
    ms = list(per_class.values())
    flags = tuple(sorted({f for m in ms for f in m.degenerate}))
    return ClassMetrics(
        accuracy=float(np.mean([m.accuracy for m in ms])),
        sensitivity=float(np.mean([m.sensitivity for m in ms])),
        specificity=float(np.mean([m.specificity for m in ms])),
        precision=float(np.mean([m.precision for m in ms])),
        f1=float(np.mean([m.f1 for m in ms])),
        degenerate=flags,
    )


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


@dataclass(frozen=True)
class MetricReport:
    """Per-class and macro metrics for one model variant."""

    variant: str  # "withoutAE" | "withAE"
    per_class: Mapping[int, ClassMetrics]
    per_class_auc: Mapping[int, float]
    macro: ClassMetrics
    macro_auc: float
    multiclass_accuracy: float
    n_samples: int

    def macro_value(self, metric: str) -> float:
        if metric == "auc":
            return self.macro_auc
        return getattr(self.macro, metric)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "n_samples": self.n_samples,
            "multiclass_accuracy": self.multiclass_accuracy,
            "macro": {m: self.macro_value(m) for m in TABLE_METRICS},
            "macro_degenerate": list(self.macro.degenerate),
            "per_class": {
                str(c): {
                    "accuracy": m.accuracy,
                    "sensitivity": m.sensitivity,
                    "specificity": m.specificity,
                    "precision": m.precision,
                    "f1": m.f1,
                    "auc": self.per_class_auc[c],
                    "degenerate": list(m.degenerate),
                }
                for c, m in self.per_class.items()
            },
        }


def build_report(
    labels: Sequence[int],
    predictions: Sequence[int],
    probabilities: np.ndarray,
    variant: str,
    n_classes: int = N_LEVELS,
) -> MetricReport:
    labels = np.asarray(labels)
    predictions = np.asarray(predictions)
    counts = confusion_counts(labels, predictions, n_classes)
    per_class = {c: per_class_metrics(cc) for c, cc in counts.per_class.items()}
    per_class_auc, macro_auc = auc_ovr(labels, probabilities, n_classes)
    return MetricReport(
        variant=variant,
        per_class=per_class,
        per_class_auc=per_class_auc,
        macro=macro_metrics(per_class),
        macro_auc=macro_auc,
        multiclass_accuracy=float(np.mean(labels == predictions)),
        n_samples=int(labels.size),
    )


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
