"""Shapley-value attributions for visit-level predictions.

Feature absence is represented by substituting values from a background
set. The exact method enumerates every coalition; the sampled method
averages marginal contributions over random feature permutations. Both
satisfy efficiency: contributions plus the base value reconstruct the
model output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import permutations as all_permutations
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .atomic import open_atomic
from .domain import LEVEL_NAMES, N_LEVELS, HospitalLevel
from .features import FEATURE_NAMES
from .neuralnet import TrainedModel, encode, forward, forward_logits

# A model function maps a (n, d) matrix to (n,) scores or (n, n_classes)
# per-class scores; all classes of a multi-output model are computed in
# one pass over the coalition matrix.
ModelFn = Callable[[np.ndarray], np.ndarray]

EXACT_LIMIT_DEFAULT = 12
EXHAUSTIVE_LIMIT = 8  # 8! permutations is the most the exhaustive mode will enumerate
_EVAL_CHUNK = 8192


class ExactLimitError(ValueError):
    """Raised when exact enumeration would exceed the coalition budget."""


@dataclass(frozen=True)
class BackgroundSet:
    """Scaled rows that stand in for absent features.

    mode "mean" substitutes the per-feature mean (one synthetic row);
    mode "samples" averages the model over every background row.
    """

    rows: np.ndarray
    mode: str = "mean"

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ValueError("background must be a nonempty (n, d) matrix")
        if self.mode not in ("mean", "samples"):
            raise ValueError(f"unknown background mode {self.mode!r}")
        object.__setattr__(self, "rows", rows)

    @property
    def width(self) -> int:
        return self.rows.shape[1]

    @property
    def substitution_rows(self) -> np.ndarray:
        if self.mode == "mean":
            return self.rows.mean(axis=0, keepdims=True)
        return self.rows


@dataclass(frozen=True)
class Attribution:
    """Signed per-feature contributions for one instance and one output.

    `phi_matrix` holds the contributions to every model output, one column
    per output, of which `phi` is the explained column; `global_importance`
    reduces it, and it is not serialised.
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


def _check_instance(x: np.ndarray, background: BackgroundSet) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("explain one instance at a time; x must be a vector")
    if x.shape[0] != background.width:
        raise ValueError(f"instance width {x.shape[0]} does not match background width {background.width}")
    return x


def _default_names(d: int) -> tuple[str, ...]:
    return FEATURE_NAMES if d == len(FEATURE_NAMES) else tuple(f"x{i}" for i in range(d))


def _attribution(
    method: str,
    phi: np.ndarray,
    base: np.ndarray,
    fx: np.ndarray,
    explained_class: Optional[int],
    feature_names: Optional[Sequence[str]],
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
        feature_names=tuple(feature_names) if feature_names is not None else _default_names(phi.shape[0]),
        phi=phi[:, col],
        base_value=float(base[col]),
        fx=float(fx[col]),
        explained_class=explained_class,
        method=method,
        stderr=None if stderr is None else stderr[:, col],
        n_permutations=n_permutations,
        phi_matrix=phi,
    )


def _coalition_values(
    model_fn: ModelFn, x: np.ndarray, background: BackgroundSet, present: np.ndarray
) -> np.ndarray:
    """v(S) for each coalition, shape (n_coalitions, n_outputs).

    `present[k, i]` is True when feature i is in coalition k; absent
    features take the background's values, averaged over its rows.
    """
    total: Optional[np.ndarray] = None
    subs = background.substitution_rows
    for b in subs:
        out = _eval_outputs(model_fn, np.where(present, x, b))
        total = out if total is None else total + out
    return total / subs.shape[0]


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
    background: BackgroundSet,
    explained_class: Optional[int] = None,
    feature_names: Optional[Sequence[str]] = None,
    exact_limit: int = EXACT_LIMIT_DEFAULT,
) -> Attribution:
    """Exact coalition-enumeration Shapley attribution.

    Every model output is attributed at once (`phi_matrix`); `phi` is the
    explained column. The coalition count is 2^d, so d is capped at
    `exact_limit`; callers that can afford the full 18-feature enumeration
    raise the cap explicitly.
    """
    x = _check_instance(x, background)
    d = x.shape[0]
    if d > exact_limit:
        raise ExactLimitError(
            f"{d} features need 2^{d} coalitions, over the exact limit {exact_limit}; "
            "raise exact_limit explicitly or use sampled_shapley"
        )
    masks = np.arange(1 << d, dtype=np.int64)
    # membership[m, i] is True when feature i is present in coalition bitmask m
    membership = ((masks[:, np.newaxis] >> np.arange(d)) & 1).astype(bool)
    values = _coalition_values(model_fn, x, background, membership)
    sizes = np.bitwise_count(masks)
    weights = _shapley_weights(d)
    phi = np.empty((d, values.shape[1]), dtype=np.float64)
    for i in range(d):
        without = masks[(masks >> i) & 1 == 0]
        w = weights[sizes[without]]
        delta = values[without + (1 << i)] - values[without]
        phi[i] = w @ delta
    return _attribution("exact", phi, values[0], values[-1], explained_class, feature_names)


def sampled_shapley(
    model_fn: ModelFn,
    x: np.ndarray,
    background: BackgroundSet,
    explained_class: Optional[int] = None,
    n_permutations: int = 200,
    seed: int = 0,
    exhaustive: bool = False,
    feature_names: Optional[Sequence[str]] = None,
) -> Attribution:
    """Monte-Carlo Shapley attribution with per-feature standard errors.

    Each permutation contributes one marginal per feature at a cost of
    d+1 model evaluations; every model output is attributed at once
    (`phi_matrix`). `exhaustive` enumerates every permutation instead of
    sampling, which reproduces the exact values and is only allowed for
    small d.
    """
    x = _check_instance(x, background)
    d = x.shape[0]
    if exhaustive:
        if d > EXHAUSTIVE_LIMIT:
            raise ValueError(f"exhaustive mode enumerates d! permutations; d={d} exceeds {EXHAUSTIVE_LIMIT}")
        perms = np.array(list(all_permutations(range(d))), dtype=np.int64)
    else:
        if n_permutations < 1:
            raise ValueError(f"n_permutations must be at least 1, got {n_permutations}")
        rng = np.random.default_rng(seed)
        perms = np.array([rng.permutation(d) for _ in range(n_permutations)], dtype=np.int64)
    n_used = perms.shape[0]

    # pos[p, i] = step at which feature i joins the coalition in permutation p
    pos = np.empty_like(perms)
    np.put_along_axis(pos, perms, np.broadcast_to(np.arange(d), perms.shape), axis=1)
    # present[p, k, i]: feature i is present after k insertion steps
    present = pos[:, np.newaxis, :] < np.arange(d + 1)[np.newaxis, :, np.newaxis]
    values = _coalition_values(model_fn, x, background, present.reshape(-1, d))
    n_outputs = values.shape[1]
    values = values.reshape(n_used, d + 1, n_outputs)

    step_marginals = np.diff(values, axis=1)  # (n_used, d, n_outputs), permutation order
    samples = np.take_along_axis(step_marginals, pos[:, :, np.newaxis], axis=1)
    phi = samples.mean(axis=0)
    if n_used > 1:
        stderr = samples.std(axis=0, ddof=1) / math.sqrt(n_used)
    else:
        stderr = np.full((d, n_outputs), np.nan)
    # the empty and full coalitions are identical across permutations
    return _attribution("sampled", phi, values[0, 0], values[0, -1], explained_class,
                        feature_names, stderr, n_used)


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


def classifier_model_fn(
    classifier: TrainedModel,
    ae: Optional[TrainedModel] = None,
    output: str = "probability",
) -> ModelFn:
    """Adapt trained networks to a (n, d) -> (n, classes) model function.

    With an autoencoder the value function composes the encoder, so
    attributions stay over the original input features even though the
    classifier consumes latent codes.
    """
    if output not in ("probability", "logit"):
        raise ValueError(f"unknown output mode {output!r}")

    def fn(x: np.ndarray) -> np.ndarray:
        h = np.asarray(x, dtype=np.float64)
        if ae is not None:
            h = encode(ae, h)
        return forward(classifier, h) if output == "probability" else forward_logits(classifier, h)

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
    with open_atomic(path) as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["rank", "feature", "mean_abs_phi", *class_columns])
        for rank, idx in enumerate(importance.ranking, start=1):
            writer.writerow(
                [
                    rank,
                    importance.feature_names[idx],
                    "%.17g" % importance.overall[idx],
                    *("%.17g" % v for v in importance.per_class[idx]),
                ]
            )
