"""End-to-end acceptance checks, one numbered criterion per guarantee.

Each test prints a single PASS/FAIL line; run this module with
`pytest tests/test_acceptance.py -s` to watch them as they complete.
The planted-cohort run (criteria 6 and 7) trains four networks and takes
a few minutes; everything else is fast.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from carechoice import cli
from carechoice.domain import ExclusionReason
from carechoice.explain import (
    BackgroundSet,
    exact_shapley,
    sampled_shapley,
)
from carechoice.features import continuity_indices
from carechoice.metrics import binary_auc, confusion_counts, per_class_metrics
from carechoice.neuralnet import (
    AeConfig,
    MlpConfig,
    TrainConfig,
    forward,
    gradient_check,
    train_classifier,
)
from carechoice.pipeline import SplitSpec, kfold_indices, split_indices, undersample_indices
from oracles import naive_auc, naive_class_counts, naive_class_metrics


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {text}", flush=True)
        raise
    print(f"PASS criterion {number}: {text}", flush=True)


def tiny_classifier_fn(d, seed, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(40, d))
    y = rng.integers(0, classes, size=40)
    model = train_classifier(
        x, y, MlpConfig((d, 6, classes)), TrainConfig(epochs=3, batch_size=8, seed=seed)
    )
    return lambda rows: forward(model, rows)


def test_criterion_1_continuity_indices_match_brute_force():
    with criterion(1, "continuity indices match brute force on 10,000 random sequences"):
        from oracles import brute_continuity

        rng = np.random.default_rng(101)
        start = time.perf_counter()
        sequences = []
        for _ in range(10_000):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, 5))
            sequences.append(rng.integers(0, k, size=n))
        # the 10,000 sequences are the visits of 10,000 patients, in one call
        patient = np.repeat(np.arange(len(sequences)), [len(seq) for seq in sequences])
        indices = continuity_indices(patient, np.concatenate(sequences))
        for seq, got in zip(sequences, indices):
            upc, lupc, secoc, coci = brute_continuity(tuple(f"H{j}" for j in seq))
            assert abs(got[0] - upc) <= 1e-10
            assert abs(got[1] - lupc) <= 1e-10
            assert abs(got[2] - secoc) <= 1e-10
            assert abs(got[3] - coci) <= 1e-10
            assert 0.0 < got[1] <= got[0] <= 1.0
            assert 0.0 <= got[2] <= 1.0
            assert 0.0 <= got[3] <= 1.0
            if len(seq) == 1:
                assert got[2] == got[3] == 1.0
        assert time.perf_counter() - start < 10.0


def test_criterion_2_analytic_gradients_match_numeric():
    with criterion(2, "gradient check below 1e-4 for classifier and autoencoder, 5 seeds"):
        start = time.perf_counter()
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(6, 18))
            setup = TrainConfig(epochs=0, batch_size=6, seed=seed)
            clf = train_classifier(x, rng.integers(0, 4, size=6), MlpConfig((18, 8, 4)), setup)
            assert gradient_check(clf, x, rng.integers(0, 4, size=6)) < 1e-4
            from carechoice.neuralnet import train_autoencoder

            ae = train_autoencoder(x, AeConfig((18, 20, 8), (8, 20, 18)), setup)
            assert gradient_check(ae, x, x) < 1e-4
        assert time.perf_counter() - start < 30.0


def test_criterion_3_shapley_axioms_and_convergence():
    with criterion(3, "Shapley efficiency, dummy, symmetry, and sampling error bounds"):
        rng = np.random.default_rng(33)
        fns = {}
        for _ in range(100):
            d = int(rng.integers(3, 13))
            if d not in fns:
                fns[d] = tiny_classifier_fn(d, seed=d)
            bg = BackgroundSet(rng.uniform(size=(3, d)), mode="samples")
            att = exact_shapley(
                fns[d], rng.uniform(size=d), bg, explained_class=int(rng.integers(3))
            )
            assert att.efficiency_gap <= 1e-6

        # dummy: a never-read feature gets exactly zero credit
        ignore_last = lambda rows: rows[:, 0] * 2.0 + rows[:, 1] * rows[:, 2]
        bg = BackgroundSet(np.random.default_rng(1).normal(size=(4, 4)), mode="samples")
        att = exact_shapley(ignore_last, np.array([1.0, 2.0, 3.0, 9.0]), bg)
        assert att.phi[3] == 0.0

        # symmetry: interchangeable features get identical credit
        symmetric = lambda rows: (rows[:, 0] + rows[:, 1]) ** 3
        att = exact_shapley(symmetric, np.array([1.5, 1.5]), BackgroundSet(np.zeros((1, 2))))
        assert att.phi[0] == att.phi[1]

        # exhaustive permutation enumeration reproduces the exact values
        fn3 = tiny_classifier_fn(3, seed=7)
        bg3 = BackgroundSet(np.random.default_rng(2).uniform(size=(3, 3)), mode="samples")
        x3 = np.random.default_rng(3).uniform(size=3)
        exact3 = exact_shapley(fn3, x3, bg3, explained_class=0)
        sampled3 = sampled_shapley(fn3, x3, bg3, explained_class=0, exhaustive=True)
        assert np.max(np.abs(exact3.phi - sampled3.phi)) <= 1e-12

        # sampling converges: d=10, 2000 permutations, MAE under 5% of max |phi|
        fn10 = tiny_classifier_fn(10, seed=11)
        bg10 = BackgroundSet(np.random.default_rng(4).uniform(size=(5, 10)))
        x10 = np.random.default_rng(5).uniform(size=10)
        exact10 = exact_shapley(fn10, x10, bg10, explained_class=1)
        sampled10 = sampled_shapley(
            fn10, x10, bg10, explained_class=1, n_permutations=2000, seed=0
        )
        mae = float(np.mean(np.abs(sampled10.phi - exact10.phi)))
        assert mae < 0.05 * float(np.max(np.abs(exact10.phi)))


def test_criterion_4_metrics_match_naive_reimplementations():
    with criterion(4, "confusion metrics match naive code on 1,000 instances + worked example"):
        rng = np.random.default_rng(44)
        for _ in range(1_000):
            n = int(rng.integers(1, 60))
            labels = rng.integers(0, 4, size=n)
            preds = rng.integers(0, 4, size=n)
            counts = confusion_counts(labels, preds)
            for c in range(4):
                cc = counts[c]
                assert cc == naive_class_counts(labels, preds, c)
                m = per_class_metrics(*cc)
                acc, sen, spe, pre, f1 = naive_class_metrics(labels, preds, c)
                assert (m["accuracy"], m["sensitivity"], m["specificity"], m["precision"], m["f1"]) == (
                    acc, sen, spe, pre, f1,
                )
            # tied scores included deliberately; both sides count ties as half
            scores = rng.integers(0, 6, size=n) / 5.0
            positive = labels == 0
            expected = naive_auc(scores, positive)
            if not math.isnan(expected):
                assert abs(binary_auc(scores, positive) - expected) <= 1e-12

        labels = np.array([1] * 50 + [0] * 30 + [0] * 10 + [1] * 10)
        preds = np.array([1] * 50 + [0] * 30 + [1] * 10 + [0] * 10)
        m = per_class_metrics(*confusion_counts(labels, preds, n_classes=2)[1])
        assert round(m["accuracy"], 4) == 0.8000
        assert round(m["sensitivity"], 4) == 0.8333
        assert round(m["specificity"], 4) == 0.7500
        assert round(m["precision"], 4) == 0.8333
        assert round(m["f1"], 4) == 0.8333


def test_criterion_5_sampling_utilities_partition_and_reproduce():
    with criterion(5, "splits and folds partition, undersampling balances, all reproducible"):
        rng = np.random.default_rng(55)
        for _ in range(50):
            n = int(rng.integers(20, 400))
            seed = int(rng.integers(2**32))
            spec = SplitSpec(seed=seed, train_fraction=0.8, folds=5)
            train, test = split_indices(n, spec)
            assert len(train) == math.ceil(0.8 * n)
            assert sorted([*train, *test]) == list(range(n))
            again = split_indices(n, spec)
            assert train.tobytes() == again[0].tobytes()
            assert test.tobytes() == again[1].tobytes()

            folds = kfold_indices(n, 5, seed)
            val_union = sorted(i for _, val in folds for i in val)
            assert val_union == list(range(n))
            sizes = [len(val) for _, val in folds]
            assert max(sizes) - min(sizes) <= 1
            for fit, val in folds:
                assert set(fit).isdisjoint(val)
                assert sorted([*fit, *val]) == list(range(n))

            labels = np.concatenate([np.arange(4), rng.integers(0, 4, size=n)])
            chosen = undersample_indices(labels, seed=seed, required_classes=range(4))
            hist = np.bincount(labels[chosen], minlength=4)
            assert len(set(hist)) == 1
            assert hist[0] == min(np.bincount(labels, minlength=4))
            assert len(set(chosen.tolist())) == len(chosen)
            rerun = undersample_indices(labels, seed=seed, required_classes=range(4))
            assert chosen.tobytes() == rerun.tobytes()


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    """Default-settings pipeline on a 5,000-patient cohort with planted signal."""
    root = tmp_path_factory.mktemp("planted")
    base = [
        "--set", f"run_dir={root / 'run'}",
        "--set", f"data_dir={root / 'data'}",
        "--set", "synth.n_patients=5000",
        "--set", "synth.signal_strength=0.8",
    ]
    start = time.perf_counter()
    for argv in (
        ["synth"], ["ingest"], ["features"],
        ["train", "--no-ae"], ["train", "--ae"],
        ["evaluate", "--no-ae"], ["evaluate", "--ae"],
    ):
        assert cli.main([*argv, *base]) == 0, argv
    elapsed = time.perf_counter() - start
    assert cli.main(["explain", "--no-ae", *base]) == 0

    run = root / "run"
    return {
        "run": run,
        "elapsed": elapsed,
        "without": json.loads((run / "eval_without_ae.json").read_text()),
        "with": json.loads((run / "eval_with_ae.json").read_text()),
    }


def test_criterion_6_planted_cohort_is_learnable(planted_run):
    with criterion(6, "planted cohort: macro AUC >= 0.85 raw; AE variant within 0.05; on time"):
        auc_raw = planted_run["without"]["macro"]["auc"]
        auc_ae = planted_run["with"]["macro"]["auc"]
        assert auc_raw >= 0.85
        assert abs(auc_ae - auc_raw) <= 0.05
        assert planted_run["elapsed"] < 600.0
        # direction of the autoencoder effect is informational, not asserted
        print(f"  macro AUC {auc_raw:.4f} raw, {auc_ae:.4f} with AE "
              f"(delta {auc_ae - auc_raw:+.4f}; {planted_run['elapsed']:.0f}s)", flush=True)


def test_criterion_7_provider_vote_ranks_in_top_three(planted_run):
    with criterion(7, "most-frequent-choice provider vote is a top-3 global feature"):
        lines = (planted_run["run"] / "importance_without_ae.csv").read_text().splitlines()
        top3 = [line.split(",")[1] for line in lines[2:5]]
        assert "mfpc" in top3
        print(f"  top features: {', '.join(top3)}", flush=True)


def test_criterion_8_no_signal_cohort_scores_at_chance(tmp_path):
    with criterion(8, "null cohort (signal 0) lands near chance: macro AUC in [0.45, 0.55]"):
        # A feature-computation bug shows up as a structural class separation
        # that even a short training run finds immediately. The budget here is
        # kept small on purpose: rows from one patient or provider land on
        # both sides of the row-level split, so a longer run would slowly
        # memorize those repeated fingerprints, which is a property of the
        # split protocol rather than of the feature code under guard.
        base = [
            "--set", f"run_dir={tmp_path / 'run'}",
            "--set", f"data_dir={tmp_path / 'data'}",
            "--set", "synth.n_patients=2500",
            "--set", "synth.signal_strength=0.0",
            "--set", "train.epochs=6",
            "--set", "train.batch_size=128",
            "--set", "train.folds=2",
        ]
        for argv in (["synth"], ["ingest"], ["features"], ["train", "--no-ae"], ["evaluate", "--no-ae"]):
            assert cli.main([*argv, *base]) == 0, argv
        report = json.loads((tmp_path / "run" / "eval_without_ae.json").read_text())
        auc = report["macro"]["auc"]
        assert 0.45 <= auc <= 0.55
        print(f"  null macro AUC {auc:.4f}", flush=True)


def test_criterion_9_dirty_cohort_audit_is_exact(tmp_path):
    with criterion(9, "injected violations are excluded and counted exactly"):
        base = [
            "--set", f"run_dir={tmp_path / 'run'}",
            "--set", f"data_dir={tmp_path / 'data'}",
            "--set", "synth.n_patients=100",
            "--set", "synth.dirty_count=3",
        ]
        assert cli.main(["synth", *base]) == 0
        assert cli.main(["ingest", *base]) == 0
        audit = json.loads((tmp_path / "run" / "audit.json").read_text())["exclusions"]
        manifest = json.loads(
            (tmp_path / "data" / "generator_manifest.json").read_text()
        )["expected_audit"]
        expected = {reason.value: 0 for reason in ExclusionReason}
        expected.update(manifest)
        assert audit == expected
        assert sum(manifest.values()) == 6 * 3 + 7 * 3
