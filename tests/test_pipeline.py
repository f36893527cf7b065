"""Sampling protocol: split, undersample, k-fold partitions, determinism."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from carechoice.domain import DataError
from carechoice.pipeline import SplitSpec, kfold_indices, split_indices, undersample_indices


class TestSplit:
    @given(st.integers(1, 400), st.integers(0, 2**32 - 1))
    def test_partition_properties(self, n, seed):
        train, test = split_indices(n, SplitSpec(seed=seed))
        assert len(train) == math.ceil(0.8 * n)
        assert len(train) + len(test) == n
        combined = np.concatenate([train, test])
        assert np.array_equal(np.sort(combined), np.arange(n))

    def test_indices_come_back_sorted(self):
        train, test = split_indices(100, SplitSpec(seed=3))
        assert np.array_equal(train, np.sort(train))
        assert np.array_equal(test, np.sort(test))

    def test_deterministic_and_seed_sensitive(self):
        a = split_indices(50, SplitSpec(seed=1))
        b = split_indices(50, SplitSpec(seed=1))
        c = split_indices(50, SplitSpec(seed=2))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], c[0])

    def test_custom_fraction(self):
        train, test = split_indices(10, SplitSpec(seed=0, train_fraction=0.5))
        assert len(train) == 5 and len(test) == 5

    def test_zero_rows_rejected(self):
        with pytest.raises(DataError):
            split_indices(0, SplitSpec(seed=0))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(seed=0, train_fraction=1.0)


class TestUndersample:
    def test_uniform_class_histogram(self):
        rng = np.random.default_rng(0)
        labels = rng.choice(4, size=500, p=[0.7, 0.15, 0.1, 0.05])
        idx = undersample_indices(labels, seed=4)
        balanced = labels[idx]
        counts = np.bincount(balanced, minlength=4)
        assert len(set(counts)) == 1
        assert counts[0] == np.bincount(labels, minlength=4).min()

    def test_keeps_all_minority_rows(self):
        labels = np.array([0] * 50 + [1] * 3)
        idx = undersample_indices(labels, seed=1)
        assert np.array_equal(np.sort(labels[idx]), np.array([0, 0, 0, 1, 1, 1]))
        assert set(np.flatnonzero(labels == 1)) <= set(idx.tolist())

    def test_no_duplicate_indices(self):
        labels = np.random.default_rng(2).choice(3, size=200)
        idx = undersample_indices(labels, seed=7)
        assert len(set(idx.tolist())) == len(idx)

    def test_missing_required_class_rejected(self):
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(DataError, match=r"\[2, 3\]"):
            undersample_indices(labels, seed=0, required_classes=range(4))

    def test_deterministic(self):
        labels = np.random.default_rng(3).choice(4, size=300)
        a = undersample_indices(labels, seed=5)
        b = undersample_indices(labels, seed=5)
        assert np.array_equal(a, b)


class TestKFold:
    @given(st.integers(10, 200), st.integers(2, 7), st.integers(0, 2**32 - 1))
    def test_partition_properties(self, n, k, seed):
        pairs = kfold_indices(n, k, seed)
        assert len(pairs) == k
        all_val = np.concatenate([val for _, val in pairs])
        assert np.array_equal(np.sort(all_val), np.arange(n))
        sizes = {len(val) for _, val in pairs}
        assert max(sizes) - min(sizes) <= 1
        for fit, val in pairs:
            assert len(fit) + len(val) == n
            assert not set(fit.tolist()) & set(val.tolist())

    def test_too_many_folds_rejected(self):
        with pytest.raises(DataError):
            kfold_indices(3, 5, seed=0)


class TestByteReproducibility:
    def test_index_manifests_serialize_identically(self):
        def manifest(seed):
            train, test = split_indices(137, SplitSpec(seed=seed))
            labels = np.random.default_rng(99).choice(4, size=137)
            bal = undersample_indices(labels[train], seed=seed + 1)
            folds = kfold_indices(len(bal), 5, seed + 2)
            return json.dumps({
                "train": train.tolist(),
                "test": test.tolist(),
                "balanced": bal.tolist(),
                "folds": [[f.tolist(), v.tolist()] for f, v in folds],
            }, sort_keys=True)

        assert manifest(42) == manifest(42)
        assert manifest(42) != manifest(43)
