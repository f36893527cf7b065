"""Shapley-value attributions for visit-level predictions.

An absent feature takes its value from a baseline vector, in the pipeline
the mean of a background sample. The exact method enumerates every
coalition; the sampled method averages marginal contributions over random
feature permutations. Both satisfy efficiency: contributions plus the
base value reconstruct the model output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .atomic import write_csv
from .domain import LEVEL_NAMES, N_LEVELS, HospitalLevel
from .features import FEATURE_NAMES, N_FEATURES
from .neuralnet import TrainedModel, encode, forward

# A model function maps a (n, d) matrix to (n,) scores or (n, n_classes)
# per-class scores; all classes of a multi-output model are computed in
# one pass over the coalition matrix.
ModelFn = Callable[[np.ndarray], np.ndarray]

_EVAL_CHUNK = 8192


@dataclass(frozen=True)
class Attribution:
    """Signed per-feature contributions for one instance and one output.

    `phi_matrix` holds the contributions to every model output, one column
    per output, of which `phi` is the explained column; `global_importance`
    reduces it. `model_rows` counts the rows the model function was given.
    Neither is serialised.
    """

    feature_names: tuple[str, ...]
    phi: np.ndarray
    base_value: float
    fx: float
    explained_class: Optional[int]
    method: str  # "exact" | "sampled"
    stderr: Optional[np.ndarray] = None
    n_permutations: Optional[int] = None
    phi_matrix: Optional[np.ndarray] = None  # (d, n_outputs)
    model_rows: Optional[int] = None

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        if phi.shape != (len(self.feature_names),):
            raise ValueError("one contribution per feature required")
        object.__setattr__(self, "phi", phi)

    @property
    def efficiency_gap(self) -> float:
        return abs(float(self.phi.sum()) + self.base_value - self.fx)

    def to_dict(self) -> dict:
        stderr = None
        if self.stderr is not None:
            stderr = [float(s) if np.isfinite(s) else None for s in self.stderr]
        return {
            "feature_names": list(self.feature_names),
            "phi": [float(p) for p in self.phi],
            "base_value": self.base_value,
            "fx": self.fx,
            "explained_class": self.explained_class,
            "method": self.method,
            "stderr": stderr,
            "n_permutations": self.n_permutations,
        }


@dataclass(frozen=True)
class GlobalImportance:
    """Mean absolute contribution per feature, per class and overall."""

    feature_names: tuple[str, ...]
    per_class: np.ndarray  # (d, n_classes)
    overall: np.ndarray  # (d,), mean of per_class across classes
    ranking: tuple[int, ...]  # feature indices, most important first

    def ranked_names(self) -> tuple[str, ...]:
        return tuple(self.feature_names[i] for i in self.ranking)


# ---------------------------------------------------------------------------
# value-function plumbing


def _eval_outputs(model_fn: ModelFn, x: np.ndarray) -> np.ndarray:
    """Evaluate the model in chunks; always returns (n, n_outputs)."""
    outs = []
    for start in range(0, x.shape[0], _EVAL_CHUNK):
        out = np.asarray(model_fn(x[start : start + _EVAL_CHUNK]), dtype=np.float64)
        if out.ndim == 1:
            out = out[:, np.newaxis]
        outs.append(out)
    return np.concatenate(outs, axis=0)


def _check_instance(x: np.ndarray, baseline: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    baseline = np.asarray(baseline, dtype=np.float64)
    if x.ndim != 1 or baseline.ndim != 1:
        raise ValueError("explain one instance at a time against one baseline; both must be vectors")
    if x.shape != baseline.shape:
        raise ValueError(f"instance width {x.shape[0]} does not match baseline width {baseline.shape[0]}")
    return x, baseline


def _default_names(d: int) -> tuple[str, ...]:
    return FEATURE_NAMES if d == len(FEATURE_NAMES) else tuple(f"x{i}" for i in range(d))


def _attribution(
    method: str,
    phi: np.ndarray,
    base: np.ndarray,
    fx: np.ndarray,
    explained_class: Optional[int],
    model_rows: int,
    stderr: Optional[np.ndarray] = None,
    n_permutations: Optional[int] = None,
) -> Attribution:
    """The attribution of one output column of the per-output results."""
    n_outputs = phi.shape[1]
    if explained_class is None:
        if n_outputs != 1:
            raise ValueError(f"model returns {n_outputs} outputs; pass explained_class")
        col = 0
    elif 0 <= explained_class < n_outputs:
        col = explained_class
    else:
        raise ValueError(f"explained_class {explained_class} out of range for {n_outputs} outputs")
    return Attribution(
        feature_names=_default_names(phi.shape[0]),
        phi=phi[:, col],
        base_value=float(base[col]),
        fx=float(fx[col]),
        explained_class=explained_class,
        method=method,
        stderr=None if stderr is None else stderr[:, col],
        n_permutations=n_permutations,
        phi_matrix=phi,
        model_rows=model_rows,
    )


def _coalition_values(
    model_fn: ModelFn, x: np.ndarray, baseline: np.ndarray, present: np.ndarray
) -> np.ndarray:
    """v(S) for each coalition, shape (n_coalitions, n_outputs).

    `present[k, i]` is True when feature i is in coalition k; absent
    features take the baseline's values.
    """
    return _eval_outputs(model_fn, np.where(present, x, baseline))


def _shapley_weights(d: int) -> np.ndarray:
    # w[s] = s! (d-1-s)! / d! for coalition size s, computed exactly
    fact_d = math.factorial(d)
    return np.array(
        [math.factorial(s) * math.factorial(d - 1 - s) / fact_d for s in range(d)],
        dtype=np.float64,
    )


def exact_shapley(
    model_fn: ModelFn,
    x: np.ndarray,
    baseline: np.ndarray,
    explained_class: Optional[int] = None,
) -> Attribution:
    """Exact coalition-enumeration Shapley attribution.

    Every model output is attributed at once (`phi_matrix`); `phi` is the
    explained column. The coalition count is 2^d, so d is capped at the
    pipeline's feature count.
    """
    x, baseline = _check_instance(x, baseline)
    d = x.shape[0]
    if d > N_FEATURES:
        raise ValueError(f"{d} features need 2^{d} coalitions; exact enumeration "
                         f"takes at most {N_FEATURES} features, so use sampled_shapley")
    masks = np.arange(1 << d, dtype=np.int64)
    # membership[m, i] is True when feature i is present in coalition bitmask m
    membership = ((masks[:, np.newaxis] >> np.arange(d)) & 1).astype(bool)
    values = _coalition_values(model_fn, x, baseline, membership)
    sizes = np.bitwise_count(masks)
    weights = _shapley_weights(d)
    phi = np.empty((d, values.shape[1]), dtype=np.float64)
    for i in range(d):
        without = masks[(masks >> i) & 1 == 0]
        w = weights[sizes[without]]
        delta = values[without + (1 << i)] - values[without]
        phi[i] = w @ delta
    return _attribution("exact", phi, values[0], values[-1], explained_class, masks.size)


def sampled_shapley(
    model_fn: ModelFn,
    x: np.ndarray,
    baseline: np.ndarray,
    explained_class: Optional[int] = None,
    n_permutations: int = 200,
    seed: int = 0,
) -> Attribution:
    """Monte-Carlo Shapley attribution with per-feature standard errors.

    Each permutation contributes one marginal per feature from its d+1
    prefix coalitions; a coalition that several prefixes share is
    evaluated once. Every model output is attributed at once
    (`phi_matrix`).
    """
    x, baseline = _check_instance(x, baseline)
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be at least 1, got {n_permutations}")
    rng = np.random.default_rng(seed)
    perms = np.array([rng.permutation(x.shape[0]) for _ in range(n_permutations)], dtype=np.int64)
    return _permutation_shapley(model_fn, x, baseline, explained_class, perms)


def _permutation_shapley(
    model_fn: ModelFn,
    x: np.ndarray,
    baseline: np.ndarray,
    explained_class: Optional[int],
    perms: np.ndarray,
) -> Attribution:
    """The mean marginal of each feature over the feature orders `perms`,
    one order per row; x and baseline are checked."""
    n_used, d = perms.shape
    # pos[p, i] = step at which feature i joins the coalition in permutation p
    pos = np.empty_like(perms)
    np.put_along_axis(pos, perms, np.broadcast_to(np.arange(d), perms.shape), axis=1)
    # present[p, k, i]: feature i is present after k insertion steps
    present = (pos[:, np.newaxis, :] < np.arange(d + 1)[np.newaxis, :, np.newaxis]).reshape(-1, d)
    # the prefixes repeat across permutations (every one starts empty and
    # ends full), so each distinct coalition is evaluated once. Its key is
    # its membership bits packed into bytes: a 1-D unique is some 25 times
    # faster than np.unique(present, axis=0), and unlike an int64 bitmask
    # it holds any d
    packed = np.packbits(present, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    values = _coalition_values(model_fn, x, baseline, present[first])
    n_outputs = values.shape[1]
    values = values[inverse].reshape(n_used, d + 1, n_outputs)

    step_marginals = np.diff(values, axis=1)  # (n_used, d, n_outputs), permutation order
    samples = np.take_along_axis(step_marginals, pos[:, :, np.newaxis], axis=1)
    phi = samples.mean(axis=0)
    if n_used > 1:
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(n_used)
    else:
        stderr = np.full((d, n_outputs), np.nan)
    # the empty and full coalitions are identical across permutations
    return _attribution("sampled", phi, values[0, 0], values[0, -1], explained_class,
                        first.size, stderr, n_used)


def global_importance(attributions: Sequence[Attribution]) -> GlobalImportance:
    """Mean |phi| per feature over explained rows, per class and overall.

    Reduces the per-class matrices of the rows' own attributions, so the
    ranking and the local explanations come from the same values. The
    ranking sorts by the class-averaged importance, descending, with ties
    resolved by feature declaration order.
    """
    if not attributions:
        raise ValueError("global importance needs at least one attribution")
    matrices = [att.phi_matrix for att in attributions]
    if any(m is None for m in matrices):
        raise ValueError("global importance needs each attribution's per-class phi_matrix")
    if len({m.shape for m in matrices}) != 1:
        raise ValueError("attributions differ in feature or output count")
    n = len(matrices)
    per_class = sum(np.abs(m) for m in matrices) / n
    overall = per_class.mean(axis=1)
    ranking = tuple(int(i) for i in np.argsort(-overall, kind="stable"))
    return GlobalImportance(
        feature_names=attributions[0].feature_names,
        per_class=per_class,
        overall=overall,
        ranking=ranking,
    )


def local_report(attribution: Attribution) -> dict:
    """Force-style listing: contributions split by sign, largest first, as
    `[name, phi]` pairs. `checksum` is the base value plus every
    contribution; it equals fx up to method error."""
    pairs = [[name, float(v)] for name, v in zip(attribution.feature_names, attribution.phi)]
    return {
        "explained_class": attribution.explained_class,
        "base_value": attribution.base_value,
        "fx": attribution.fx,
        "positive": sorted((p for p in pairs if p[1] > 0), key=lambda p: -p[1]),
        "negative": sorted((p for p in pairs if p[1] < 0), key=lambda p: p[1]),
        "checksum": float(attribution.base_value + attribution.phi.sum()),
    }


def classifier_model_fn(classifier: TrainedModel, ae: Optional[TrainedModel] = None) -> ModelFn:
    """Adapt trained networks to a (n, d) -> (n, classes) probability function.

    With an autoencoder's encoder the value function composes it, so
    attributions stay over the original input features even though the
    classifier consumes latent codes.
    """

    def fn(x: np.ndarray) -> np.ndarray:
        if ae is not None:
            x = encode(ae, x)
        return forward(classifier, x)

    return fn


def write_importance_csv(
    path: Path | str, importance: GlobalImportance, header_comment: Optional[str] = None
) -> None:
    """Write the global ranking table: one row per feature, best first."""
    n_classes = importance.per_class.shape[1]
    if n_classes == N_LEVELS:
        class_columns = [LEVEL_NAMES[HospitalLevel(c)] for c in range(n_classes)]
    else:
        class_columns = [f"output_{c}" for c in range(n_classes)]
    rows = ([rank, importance.feature_names[idx], "%.17g" % importance.overall[idx],
             *("%.17g" % v for v in importance.per_class[idx])]
            for rank, idx in enumerate(importance.ranking, start=1))
    write_csv(path, ["rank", "feature", "mean_abs_phi", *class_columns], rows, header_comment)
