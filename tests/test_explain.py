"""Shapley attribution: axioms, closed forms, oracles, sampling behavior."""

import json
import math

import numpy as np
import pytest

from carechoice.explain import (
    Attribution,
    BackgroundSet,
    ExactLimitError,
    classifier_model_fn,
    exact_shapley,
    global_importance,
    local_report,
    sampled_shapley,
    write_importance_csv,
)
from carechoice.neuralnet import (
    AeConfig,
    MlpConfig,
    TrainConfig,
    forward,
    forward_logits,
    train_autoencoder,
    train_classifier,
)
from oracles import naive_permutation_shapley, naive_shapley


def linear_model(w, b=0.0):
    w = np.asarray(w, dtype=np.float64)
    return lambda rows: rows @ w + b


def small_mlp_fn(d, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(60, d))
    y = rng.integers(0, classes, size=60)
    model = train_classifier(x, y, MlpConfig((d, 7, classes)),
                             TrainConfig(epochs=4, batch_size=10, seed=seed))
    return lambda rows: forward(model, rows)


class TestLinearClosedForm:
    def test_exact_matches_w_times_deviation(self):
        w = np.array([2.0, -3.0, 0.5, 1.25])
        bg = BackgroundSet(np.array([[1.0, 2.0, -1.0, 0.0], [3.0, 0.0, 1.0, 4.0]]))
        x = np.array([2.0, 1.0, 0.0, 2.0])
        mu = bg.rows.mean(axis=0)
        att = exact_shapley(linear_model(w, b=5.0), x, bg)
        assert att.phi == pytest.approx(w * (x - mu), abs=1e-12)
        assert att.base_value == pytest.approx(float(w @ mu + 5.0), abs=1e-12)
        assert att.fx == pytest.approx(float(w @ x + 5.0), abs=1e-12)

    def test_exhaustive_sampling_equals_exact(self):
        w = np.array([1.0, -2.0, 4.0])
        bg = BackgroundSet(np.array([[0.5, 0.5, 0.5]]))
        x = np.array([1.0, 2.0, 3.0])
        exact = exact_shapley(linear_model(w), x, bg)
        sampled = sampled_shapley(linear_model(w), x, bg, exhaustive=True)
        assert sampled.phi == pytest.approx(exact.phi, abs=1e-12)
        assert sampled.n_permutations == math.factorial(3)

    def test_samples_mode_equals_mean_mode_for_linear_models(self):
        # averaging a linear model over rows is the model at the mean
        w = np.array([1.5, 2.5, -1.0])
        rows = np.random.default_rng(3).normal(size=(5, 3))
        x = np.array([0.3, -0.7, 1.1])
        fn = linear_model(w)
        a = exact_shapley(fn, x, BackgroundSet(rows, mode="samples"))
        b = exact_shapley(fn, x, BackgroundSet(rows, mode="mean"))
        assert a.phi == pytest.approx(b.phi, abs=1e-10)


class TestAxioms:
    def test_dummy_feature_gets_exactly_zero(self):
        # the model never reads feature 2
        fn = lambda rows: rows[:, 0] * 3.0 + rows[:, 1] ** 2
        bg = BackgroundSet(np.random.default_rng(0).normal(size=(4, 3)), mode="samples")
        att = exact_shapley(fn, np.array([1.0, 2.0, 9.0]), bg)
        assert att.phi[2] == 0.0

    def test_symmetric_features_get_equal_credit(self):
        fn = lambda rows: (rows[:, 0] + rows[:, 1]) ** 2
        bg = BackgroundSet(np.array([[0.5, 0.5]]))
        att = exact_shapley(fn, np.array([2.0, 2.0]), bg)
        assert att.phi[0] == att.phi[1]

    def test_efficiency_exact(self):
        fn = small_mlp_fn(d=6)
        bg = BackgroundSet(np.random.default_rng(1).uniform(size=(8, 6)), mode="samples")
        rng = np.random.default_rng(2)
        for _ in range(10):
            att = exact_shapley(fn, rng.uniform(size=6), bg, explained_class=1)
            assert att.efficiency_gap <= 1e-6

    def test_efficiency_sampled_holds_by_telescoping(self):
        fn = small_mlp_fn(d=7, seed=5)
        bg = BackgroundSet(np.random.default_rng(4).uniform(size=(3, 7)), mode="samples")
        att = sampled_shapley(fn, np.random.default_rng(5).uniform(size=7),
                              bg, explained_class=0, n_permutations=9)
        assert att.efficiency_gap <= 1e-10


class TestAgainstNaiveOracles:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_exact_matches_subset_sum(self, d):
        fn = small_mlp_fn(d=d, classes=2, seed=d)
        rows = np.random.default_rng(d).uniform(size=(3, d))
        bg = BackgroundSet(rows, mode="samples")
        x = np.random.default_rng(d + 50).uniform(size=d)
        scalar_fn = lambda r: fn(r)[:, 1]
        att = exact_shapley(scalar_fn, x, bg)
        assert att.phi == pytest.approx(naive_shapley(scalar_fn, x, rows), abs=1e-10)

    def test_exhaustive_matches_permutation_average(self):
        fn = small_mlp_fn(d=3, classes=2, seed=9)
        rows = np.random.default_rng(9).uniform(size=(2, 3))
        x = np.array([0.2, 0.8, 0.5])
        scalar_fn = lambda r: fn(r)[:, 0]
        att = sampled_shapley(scalar_fn, x, BackgroundSet(rows, mode="samples"), exhaustive=True)
        assert att.phi == pytest.approx(
            naive_permutation_shapley(scalar_fn, x, rows), abs=1e-10
        )

    def test_mean_mode_substitutes_single_mean_row(self):
        fn = small_mlp_fn(d=4, classes=2, seed=11)
        rows = np.random.default_rng(11).uniform(size=(6, 4))
        x = np.random.default_rng(12).uniform(size=4)
        scalar_fn = lambda r: fn(r)[:, 1]
        att = exact_shapley(scalar_fn, x, BackgroundSet(rows, mode="mean"))
        expected = naive_shapley(scalar_fn, x, rows.mean(axis=0, keepdims=True))
        assert att.phi == pytest.approx(expected, abs=1e-10)


class TestSampling:
    def test_converges_to_exact(self):
        fn = small_mlp_fn(d=8, seed=21)
        bg = BackgroundSet(np.random.default_rng(20).uniform(size=(5, 8)))
        x = np.random.default_rng(22).uniform(size=8)
        exact = exact_shapley(fn, x, bg, explained_class=2)
        sampled = sampled_shapley(fn, x, bg, explained_class=2,
                                  n_permutations=1500, seed=0)
        scale = np.max(np.abs(exact.phi))
        assert np.mean(np.abs(sampled.phi - exact.phi)) < 0.05 * scale

    def test_single_permutation_has_nan_stderr(self):
        fn = linear_model(np.ones(4))
        bg = BackgroundSet(np.zeros((1, 4)))
        att = sampled_shapley(fn, np.ones(4), bg, n_permutations=1)
        assert np.all(np.isnan(att.stderr))
        assert att.to_dict()["stderr"] == [None] * 4

    def test_stderr_shrinks_with_more_permutations(self):
        fn = small_mlp_fn(d=6, seed=31)
        bg = BackgroundSet(np.random.default_rng(30).uniform(size=(4, 6)))
        x = np.random.default_rng(32).uniform(size=6)
        few = sampled_shapley(fn, x, bg, explained_class=0, n_permutations=50, seed=1)
        many = sampled_shapley(fn, x, bg, explained_class=0, n_permutations=1000, seed=1)
        assert many.stderr.mean() < few.stderr.mean()

    def test_deterministic_per_seed(self):
        fn = small_mlp_fn(d=5, seed=41)
        bg = BackgroundSet(np.random.default_rng(40).uniform(size=(3, 5)))
        x = np.random.default_rng(42).uniform(size=5)
        a = sampled_shapley(fn, x, bg, explained_class=1, n_permutations=64, seed=7)
        b = sampled_shapley(fn, x, bg, explained_class=1, n_permutations=64, seed=7)
        assert np.array_equal(a.phi, b.phi)

    def test_exhaustive_refuses_large_d(self):
        fn = linear_model(np.ones(9))
        bg = BackgroundSet(np.zeros((1, 9)))
        with pytest.raises(ValueError, match="exhaustive"):
            sampled_shapley(fn, np.ones(9), bg, exhaustive=True)


class TestLimitsAndValidation:
    def test_exact_limit_guard(self):
        d = 13
        fn = linear_model(np.ones(d))
        bg = BackgroundSet(np.zeros((1, d)))
        with pytest.raises(ExactLimitError):
            exact_shapley(fn, np.ones(d), bg)

    def test_exact_limit_can_be_raised_explicitly(self):
        d = 13
        w = np.arange(1.0, d + 1.0)
        bg = BackgroundSet(np.zeros((1, d)))
        att = exact_shapley(linear_model(w), np.ones(d), bg, exact_limit=d)
        assert att.phi == pytest.approx(w, abs=1e-10)

    def test_instance_width_must_match_background(self):
        bg = BackgroundSet(np.zeros((1, 4)))
        with pytest.raises(ValueError):
            exact_shapley(linear_model(np.ones(3)), np.ones(3), bg)

    def test_scalar_model_rejects_explained_class(self):
        bg = BackgroundSet(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="out of range"):
            exact_shapley(linear_model(np.ones(3)), np.ones(3), bg, explained_class=2)

    def test_multioutput_model_requires_explained_class(self):
        fn = small_mlp_fn(d=3)
        bg = BackgroundSet(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="explained_class"):
            exact_shapley(fn, np.ones(3), bg)

    def test_background_validation(self):
        with pytest.raises(ValueError):
            BackgroundSet(np.zeros((0, 4)))
        with pytest.raises(ValueError):
            BackgroundSet(np.zeros((2, 4)), mode="median")


class TestMultiOutput:
    def test_phi_matrix_has_one_column_per_class(self):
        fn = small_mlp_fn(d=5, classes=4, seed=51)
        bg = BackgroundSet(np.random.default_rng(50).uniform(size=(3, 5)))
        x = np.random.default_rng(52).uniform(size=5)
        att = exact_shapley(fn, x, bg, explained_class=2, exact_limit=12)
        phi = att.phi_matrix
        assert phi.shape == (5, 4)
        assert np.array_equal(phi[:, 2], att.phi)
        # the mean background row is the empty coalition
        base = fn(bg.rows.mean(axis=0, keepdims=True))[0]
        fx = fn(x[np.newaxis, :])[0]
        assert att.base_value == pytest.approx(base[2], abs=1e-12)
        assert att.fx == pytest.approx(fx[2], abs=1e-12)
        # every column independently satisfies efficiency
        assert np.abs(phi.sum(axis=0) + base - fx).max() <= 1e-8


class TestGlobalImportance:
    def test_dominant_feature_ranks_first(self):
        w = np.array([0.1, 5.0, 0.2])
        bg = BackgroundSet(np.zeros((1, 3)))
        rows = np.random.default_rng(60).uniform(0.5, 1.0, size=(12, 3))
        imp = global_importance([exact_shapley(linear_model(w), x, bg) for x in rows])
        assert imp.ranked_names()[0] == "x1"
        assert imp.per_class.shape == (3, 1)

    def test_ties_preserve_declaration_order(self):
        fn = lambda rows: rows.sum(axis=1)
        bg = BackgroundSet(np.zeros((1, 3)))
        rows = np.full((4, 3), 2.0)
        imp = global_importance([exact_shapley(fn, x, bg) for x in rows])
        assert imp.ranking == (0, 1, 2)

    def test_sampled_method_is_seeded(self):
        fn = small_mlp_fn(d=4, seed=61)
        bg = BackgroundSet(np.random.default_rng(62).uniform(size=(2, 4)))
        rows = np.random.default_rng(63).uniform(size=(5, 4))

        def reduce():
            return global_importance([
                sampled_shapley(fn, x, bg, explained_class=0, n_permutations=40, seed=3 + i)
                for i, x in enumerate(rows)
            ])

        a, b = reduce(), reduce()
        assert np.array_equal(a.per_class, b.per_class)

    def test_importance_csv_layout(self, tmp_path):
        fn = small_mlp_fn(d=4, classes=4, seed=71)
        bg = BackgroundSet(np.random.default_rng(70).uniform(size=(2, 4)))
        rows = np.random.default_rng(72).uniform(size=(3, 4))
        imp = global_importance(
            [sampled_shapley(fn, x, bg, explained_class=1, n_permutations=20) for x in rows]
        )
        path = tmp_path / "importance.csv"
        write_importance_csv(path, imp, header_comment="config_hash=feed")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_hash=feed"
        assert lines[1] == (
            "rank,feature,mean_abs_phi,medical_center,regional_hospital,"
            "district_hospital,clinic"
        )
        assert len(lines) == 2 + 4
        assert lines[2].startswith("1,")

    def test_reduces_every_class_of_the_rows_own_attributions(self):
        fn = small_mlp_fn(d=4, classes=3, seed=73)
        bg = BackgroundSet(np.random.default_rng(74).uniform(size=(2, 4)))
        rows = np.random.default_rng(75).uniform(size=(3, 4))
        atts = [exact_shapley(fn, x, bg, explained_class=i) for i, x in enumerate(rows)]
        for att in atts:
            assert np.array_equal(att.phi, att.phi_matrix[:, att.explained_class])
        imp = global_importance(atts)
        expected = (np.abs(atts[0].phi_matrix) + np.abs(atts[1].phi_matrix)
                    + np.abs(atts[2].phi_matrix)) / 3
        assert np.array_equal(imp.per_class, expected)
        assert np.array_equal(imp.overall, expected.mean(axis=1))

    def test_needs_the_per_class_matrix_of_every_row(self):
        with pytest.raises(ValueError):
            global_importance([])
        bare = Attribution(feature_names=("a", "b"), phi=np.array([0.1, 0.2]),
                           base_value=0.0, fx=0.3, explained_class=0, method="exact")
        with pytest.raises(ValueError, match="phi_matrix"):
            global_importance([bare])
        widths = [exact_shapley(linear_model(np.ones(d)), np.ones(d), BackgroundSet(np.zeros((1, d))))
                  for d in (2, 3)]
        with pytest.raises(ValueError, match="differ"):
            global_importance(widths)


class TestLocalReport:
    def test_signed_blocks_sorted_by_magnitude(self):
        att = Attribution(
            feature_names=("a", "b", "c", "d"),
            phi=np.array([0.5, -0.1, 0.0, -2.0]),
            base_value=1.0, fx=-0.6, explained_class=None, method="exact",
        )
        report = local_report(att)
        assert report["positive"] == [["a", 0.5]]
        assert report["negative"] == [["d", -2.0], ["b", -0.1]]
        assert report["checksum"] == pytest.approx(1.0 + 0.5 - 0.1 - 2.0)
        d = json.loads(json.dumps(report))
        assert d["positive"] == [["a", 0.5]]


class TestClassifierModelFn:
    def test_probability_output(self):
        rng = np.random.default_rng(80)
        x = rng.uniform(size=(50, 6))
        y = rng.integers(0, 3, size=50)
        model = train_classifier(x, y, MlpConfig((6, 5, 3)),
                                 TrainConfig(epochs=2, batch_size=10))
        fn = classifier_model_fn(model)
        out = fn(x[:4])
        assert out.shape == (4, 3)
        assert np.allclose(out.sum(axis=1), 1.0)
        assert np.array_equal(out, forward(model, x[:4]))

    def test_logit_output(self):
        rng = np.random.default_rng(81)
        x = rng.uniform(size=(50, 6))
        y = rng.integers(0, 3, size=50)
        model = train_classifier(x, y, MlpConfig((6, 5, 3)),
                                 TrainConfig(epochs=2, batch_size=10))
        fn = classifier_model_fn(model, output="logit")
        assert np.array_equal(fn(x[:4]), forward_logits(model, x[:4]))

    def test_latent_pipeline_takes_raw_rows(self):
        rng = np.random.default_rng(82)
        x = rng.uniform(size=(60, 6))
        y = rng.integers(0, 3, size=60)
        ae = train_autoencoder(x, AeConfig((6, 5, 2), (2, 5, 6)),
                               TrainConfig(epochs=2, batch_size=10))
        from carechoice.neuralnet import encode
        clf = train_classifier(encode(ae, x), y, MlpConfig((2, 5, 3)),
                               TrainConfig(epochs=2, batch_size=10))
        fn = classifier_model_fn(clf, ae=ae)
        out = fn(x[:5])
        assert out.shape == (5, 3)
        assert np.allclose(out.sum(axis=1), 1.0)
