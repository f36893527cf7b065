"""Confusion metrics, macro averaging, and pairwise AUC against naive oracles."""

import math
import warnings

import numpy as np
import pytest

from carechoice.metrics import (
    TABLE_METRICS,
    binary_auc,
    build_report,
    comparison_rows,
)
from oracles import naive_auc, naive_class_counts, naive_class_metrics

CLASS_METRICS = ("accuracy", "sensitivity", "specificity", "precision", "f1")


def quiet_report(labels, predictions, probabilities=None, n_classes=4):
    """`build_report` with its absent-class warnings silenced; without
    probabilities each row scores its predicted class 1 and the rest 0."""
    labels, predictions = np.asarray(labels), np.asarray(predictions)
    if probabilities is None:
        probabilities = np.eye(n_classes)[predictions]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_report(labels, predictions, probabilities, "withoutAE", n_classes)


def class_values(report, cls):
    return tuple(report["per_class"][str(cls)][m] for m in CLASS_METRICS)


class TestWorkedExample:
    def test_textbook_counts(self):
        # class 1: tp 50, fp 10, fn 10, tn 30
        labels = [1] * 50 + [0] * 30 + [0] * 10 + [1] * 10
        preds = [1] * 50 + [0] * 30 + [1] * 10 + [0] * 10
        m = quiet_report(labels, preds, n_classes=2)["per_class"]["1"]
        assert round(m["accuracy"], 4) == 0.80
        assert round(m["sensitivity"], 4) == 0.8333
        assert round(m["specificity"], 4) == 0.75
        assert round(m["precision"], 4) == 0.8333
        assert round(m["f1"], 4) == 0.8333
        assert m["degenerate"] == []


class TestAgainstNaiveOracles:
    def test_counts_and_metrics_match_on_random_instances(self):
        # per-class values and flags exactly, AUCs to rounding, with absent
        # classes and tied scores; one label on every row leaves no class
        # with both positives and negatives, which the report refuses
        rng = np.random.default_rng(123)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            k = int(rng.integers(2, 6))
            labels = rng.integers(0, k, size=n)
            preds = rng.integers(0, k, size=n)
            probs = rng.integers(0, 4, size=(n, k)) / 3.0
            if np.unique(labels).size == 1:
                with pytest.raises(ValueError, match="no class"):
                    quiet_report(labels, preds, probs, k)
                continue
            report = quiet_report(labels, preds, probs, k)
            degenerate = set()
            for c in range(k):
                tp, fp, fn, tn = naive_class_counts(labels, preds, c)
                expect = naive_class_metrics(labels, preds, c)
                assert class_values(report, c) == expect
                sensitivity, precision = expect[1], expect[3]
                zero = (("sensitivity", tp + fn), ("specificity", tn + fp),
                        ("precision", tp + fp), ("f1", precision + sensitivity))
                flags = [m for m, denominator in zero if denominator == 0]
                assert report["per_class"][str(c)]["degenerate"] == flags
                degenerate.update(flags)
                auc, expected = report["per_class"][str(c)]["auc"], naive_auc(probs[:, c], labels == c)
                assert math.isnan(auc) if math.isnan(expected) else auc == pytest.approx(expected, abs=1e-12)
            assert report["macro_degenerate"] == sorted(degenerate)

    def test_binary_auc_matches_all_pairs_count(self):
        rng = np.random.default_rng(321)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            positive = rng.integers(0, 2, size=n).astype(bool)
            if positive.all() or not positive.any():
                continue
            # coarse scores force plenty of ties
            scores = np.round(rng.uniform(0, 1, size=n), 1)
            assert binary_auc(scores, positive) == pytest.approx(
                naive_auc(scores, positive), abs=1e-12
            )

    def test_perfect_and_inverted_rankings(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        positive = np.array([True, True, False, False])
        assert binary_auc(scores, positive) == 1.0
        assert binary_auc(scores, ~positive) == 0.0

    def test_all_tied_scores_give_half(self):
        assert binary_auc(np.ones(6), np.array([1, 0, 1, 0, 1, 0], bool)) == 0.5


class TestDegenerateCounts:
    def test_no_positives_zeroes_sensitivity(self):
        # class 2 is neither a label nor a prediction: tp = fp = fn = 0, tn = 10
        m = quiet_report([0, 1] * 5, [0, 1] * 5, n_classes=3)["per_class"]["2"]
        assert (m["sensitivity"], m["precision"], m["f1"]) == (0.0, 0.0, 0.0)
        assert m["degenerate"] == ["sensitivity", "precision", "f1"]

    def test_a_class_without_negatives_is_refused(self):
        # a class with no negatives is the label of every row, so no class
        # has both positives and negatives: there is no AUC to report
        with pytest.raises(ValueError, match="no class has both"):
            quiet_report([0] * 10, [0] * 10, n_classes=2)

    def test_macro_collects_flags(self):
        report = quiet_report([0, 1, 0, 1], [0, 0, 0, 1], n_classes=3)
        assert report["macro_degenerate"] == ["f1", "precision", "sensitivity"]
        assert report["per_class"]["0"]["degenerate"] == []

    def test_macro_is_unweighted_mean(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 4, size=40)
        preds = np.where(rng.uniform(size=40) < 0.6, labels, rng.integers(0, 4, size=40))
        report = quiet_report(labels, preds)
        for m in CLASS_METRICS:
            per_class = [report["per_class"][str(c)][m] for c in range(4)]
            assert report["macro"][m] == pytest.approx(sum(per_class) / 4)


class TestOvrAuc:
    def test_class_without_positives_is_nan_and_excluded(self):
        labels = np.array([0, 0, 1, 1])
        probs = np.array([[0.8, 0.1, 0.1], [0.7, 0.2, 0.1], [0.2, 0.7, 0.1], [0.1, 0.8, 0.1]])
        with pytest.warns(UserWarning, match="class 2"):
            report = build_report(labels, probs.argmax(axis=1), probs, "withoutAE", n_classes=3)
        per_class = [report["per_class"][str(c)]["auc"] for c in range(3)]
        assert math.isnan(per_class[2])
        assert report["macro"]["auc"] == pytest.approx((per_class[0] + per_class[1]) / 2)

    def test_probabilities_shape_checked(self):
        with pytest.raises(ValueError, match="probability matrix"):
            build_report(np.array([0, 1]), np.array([0, 1]), np.array([0.5, 0.5]), "withoutAE")
        with pytest.raises(ValueError, match="probability matrix"):
            build_report(np.array([0, 1]), np.array([0, 1]), np.full((3, 4), 0.25), "withoutAE")


def random_report(seed, variant="withoutAE", n=60):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 4, size=n)
    probs = rng.dirichlet(np.ones(4), size=n)
    preds = probs.argmax(axis=1)
    return labels, preds, probs, build_report(labels, preds, probs, variant)


class TestMetricReport:
    def test_multiclass_accuracy(self):
        labels, preds, probs, report = random_report(7)
        assert report["multiclass_accuracy"] == pytest.approx(np.mean(labels == preds))
        assert report["n_samples"] == 60

    def test_macro_value_covers_table_metrics(self):
        *_, report = random_report(9)
        for metric in TABLE_METRICS:
            assert isinstance(report["macro"][metric], float)

    def test_comparison_rows_order_and_increase(self):
        *_, without = random_report(10, "withoutAE")
        *_, with_ae = random_report(11, "withAE")
        rows = comparison_rows(without["macro"], with_ae["macro"])
        assert [r[0] for r in rows] == [
            "AUC", "Accuracy", "F1 Score", "Precision", "Sensitivity", "Specificity",
        ]
        for (_, a, b, inc), metric in zip(rows, TABLE_METRICS):
            assert a == without["macro"][metric]
            assert b == with_ae["macro"][metric]
            assert inc == pytest.approx(b - a)


class TestInputValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            build_report([0, 1], [0], np.full((2, 4), 0.25), "withoutAE")

    def test_empty(self):
        with pytest.raises(ValueError, match="zero samples"):
            build_report([], [], np.zeros((0, 4)), "withoutAE")

    def test_auc_needs_both_sides(self):
        with pytest.raises(ValueError):
            binary_auc(np.array([0.5, 0.6]), np.array([True, True]))
