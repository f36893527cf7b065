"""Confusion metrics, macro averaging, and pairwise AUC against naive oracles."""

import math

import numpy as np
import pytest

from carechoice.metrics import (
    TABLE_METRICS,
    auc_ovr,
    binary_auc,
    build_report,
    comparison_rows,
    confusion_counts,
    macro_metrics,
    per_class_metrics,
)
from oracles import naive_auc, naive_class_counts, naive_class_metrics


class TestWorkedExample:
    def test_textbook_counts(self):
        m = per_class_metrics(tp=50, fp=10, fn=10, tn=30)
        assert round(m["accuracy"], 4) == 0.80
        assert round(m["sensitivity"], 4) == 0.8333
        assert round(m["specificity"], 4) == 0.75
        assert round(m["precision"], 4) == 0.8333
        assert round(m["f1"], 4) == 0.8333
        assert m["degenerate"] == []


class TestAgainstNaiveOracles:
    def test_counts_and_metrics_match_on_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            k = int(rng.integers(2, 5))
            labels = rng.integers(0, k, size=n)
            preds = rng.integers(0, k, size=n)
            counts = confusion_counts(labels, preds, n_classes=k)
            for c in range(k):
                tp, fp, fn, tn = naive_class_counts(labels, preds, c)
                got = counts[c]
                assert got == (tp, fp, fn, tn)
                expect = naive_class_metrics(labels, preds, c)
                m = per_class_metrics(*got)
                assert (m["accuracy"], m["sensitivity"], m["specificity"], m["precision"], m["f1"]) == expect

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
        m = per_class_metrics(tp=0, fp=0, fn=0, tn=10)
        assert m["sensitivity"] == 0.0
        assert "sensitivity" in m["degenerate"]
        assert "precision" in m["degenerate"]
        assert "f1" in m["degenerate"]

    def test_no_negatives_zeroes_specificity(self):
        m = per_class_metrics(tp=10, fp=0, fn=0, tn=0)
        assert m["specificity"] == 0.0
        assert m["degenerate"] == ["specificity"]

    def test_macro_collects_flags(self):
        per_class = [
            per_class_metrics(tp=5, fp=1, fn=1, tn=5),
            per_class_metrics(tp=0, fp=0, fn=0, tn=12),
        ]
        macro = macro_metrics(per_class)
        assert "sensitivity" in macro["degenerate"]

    def test_macro_is_unweighted_mean(self):
        a = per_class_metrics(tp=8, fp=2, fn=1, tn=9)
        b = per_class_metrics(tp=1, fp=5, fn=6, tn=8)
        macro = macro_metrics([a, b])
        assert macro["f1"] == pytest.approx((a["f1"] + b["f1"]) / 2)
        assert macro["accuracy"] == pytest.approx((a["accuracy"] + b["accuracy"]) / 2)


class TestOvrAuc:
    def test_class_without_positives_is_nan_and_excluded(self):
        labels = np.array([0, 0, 1, 1])
        probs = np.array([[0.8, 0.1, 0.1], [0.7, 0.2, 0.1], [0.2, 0.7, 0.1], [0.1, 0.8, 0.1]])
        with pytest.warns(UserWarning, match="class 2"):
            per_class, macro = auc_ovr(labels, probs, n_classes=3)
        assert math.isnan(per_class[2])
        assert macro == pytest.approx((per_class[0] + per_class[1]) / 2)

    def test_probabilities_shape_checked(self):
        with pytest.raises(ValueError):
            auc_ovr(np.array([0, 1]), np.array([0.5, 0.5]))


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
        with pytest.raises(ValueError):
            confusion_counts([0, 1], [0])

    def test_empty(self):
        with pytest.raises(ValueError):
            confusion_counts([], [])

    def test_auc_needs_both_sides(self):
        with pytest.raises(ValueError):
            binary_auc(np.array([0.5, 0.6]), np.array([True, True]))
