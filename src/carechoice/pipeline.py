"""Sampling protocol: seeded train/test split, majority undersampling on the
training side only, and k-fold cross-validation.

All three return row indices, so split manifests can be exported for
audit. Everything is deterministic given the seed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class SplitSpec:
    seed: int
    train_fraction: float = 0.8
    folds: int = 5

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0,1), got {self.train_fraction}")
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")


class SamplingError(Exception):
    pass


def split_indices(n_rows: int, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint, exhaustive train/test index split; train gets ceil(fraction*n)."""
    if n_rows < 1:
        raise SamplingError("cannot split zero rows")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n_rows)
    n_train = math.ceil(spec.train_fraction * n_rows)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def undersample_indices(
    labels: np.ndarray, seed: int, required_classes: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Indices of a balanced subsample: every class drawn down (without
    replacement) to the minority-class count."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise SamplingError("cannot undersample zero rows")
    counts = Counter(labels.tolist())
    if required_classes is not None:
        missing = [c for c in required_classes if c not in counts]
        if missing:
            raise SamplingError(f"classes {missing} absent from training rows")
    minority = min(counts.values())
    rng = np.random.default_rng(seed)
    keep = []
    for cls in sorted(counts):
        cls_idx = np.flatnonzero(labels == cls)
        keep.append(rng.choice(cls_idx, size=minority, replace=False))
    return np.sort(np.concatenate(keep))


def kfold_indices(n_rows: int, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(fit, validation) index pairs; validation sets partition the rows with
    sizes differing by at most one."""
    if folds < 2:
        raise SamplingError(f"folds must be >= 2, got {folds}")
    if folds > n_rows:
        raise SamplingError(f"cannot make {folds} folds from {n_rows} rows")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_rows)
    val_sets = np.array_split(perm, folds)
    pairs = []
    for i, val in enumerate(val_sets):
        fit = np.concatenate([v for j, v in enumerate(val_sets) if j != i])
        pairs.append((np.sort(fit), np.sort(val)))
    return pairs
