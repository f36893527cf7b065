"""From-scratch feed-forward networks trained by mini-batch SGD.

Two architectures: a softmax classifier over the four hospital levels and
an autoencoder with a sigmoid latent layer, of which a fit keeps only the
encoder. Both run on float64 numpy, share one backpropagation core, and
are deterministic given a seed.

OpenBLAS splits a matrix product differently at different thread counts,
which changes the last bits of the result, so every fit runs on one BLAS
thread (`single_blas_thread`) and a seed gives the same model bytes on
any machine and under any OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import base64
import ctypes
import functools
import glob
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .domain import N_LEVELS
from .features import N_FEATURES

MODEL_FORMAT_VERSION = 5
_ACTIVATIONS = ("relu", "sigmoid", "linear", "softmax")

# A fit skips its full-set guard pass when `_bounded` proves every forward
# value, and each output's distance from its target, below this bound in
# magnitude. Then a squared error is under 1e200, and the n * d of them sum
# to under 1e200 * n * d, which cannot overflow float64 (1.8e308) for any
# n * d below 1e108; a softmax cross-entropy is under 2e100 + log(d) a row.
_FINITE_BOUND = 1e100


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite.

    Carries the 1-based epoch at which divergence was detected, so the
    caller can retry with a lower learning rate.
    """

    def __init__(self, epoch: int, kind: str):
        self.epoch = epoch
        self.kind = kind
        super().__init__(
            f"{kind} training diverged at epoch {epoch}: loss is not finite; "
            "retry with a lower learning rate"
        )

    def __reduce__(self):
        # fits run in worker processes, which send the error back pickled
        return type(self), (self.epoch, self.kind)


# ---------------------------------------------------------------------------
# BLAS


class _OpenBlas(NamedTuple):
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    corename: str
    dgemm: Callable  # cblas_dgemm with 64-bit integer arguments


# CBLAS enum values
_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[_OpenBlas]:
    """The thread-count functions, core name and cblas_dgemm of numpy's
    bundled OpenBLAS, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])  # already loaded by numpy, so this returns the same handle
    try:
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
        corename = lib.scipy_openblas_get_corename64_
        dgemm = lib.scipy_cblas_dgemm64_
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    index, real, pointer = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    dgemm.argtypes = [ctypes.c_int] * 3 + [index] * 3 + [real, pointer, index, pointer, index, real, pointer, index]
    dgemm.restype = None
    return _OpenBlas(get, set_, corename().decode("ascii"), dgemm)


def blas_threads() -> Optional[int]:
    """Current thread count of numpy's bundled OpenBLAS; None if it is absent."""
    api = _openblas()
    return api.get_threads() if api is not None else None


def blas_corename() -> Optional[str]:
    """The CPU core whose kernels numpy's bundled OpenBLAS runs (such as
    "SkylakeX"), which set the last bits of every product; None if it is
    absent."""
    api = _openblas()
    return api.corename if api is not None else None


@contextmanager
def single_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the previous count.

    The count is process-wide, so blocks must not run concurrently in
    threads of one process. Without numpy's bundled OpenBLAS this does
    nothing.
    """
    api = _openblas()
    if api is None:
        yield
        return
    previous = api.get_threads()
    api.set_threads(1)
    try:
        yield
    finally:
        api.set_threads(previous)


# the paper's shapes: a classifier of three 100-wide ReLU layers, and an
# autoencoder whose encoder narrows to a 100-wide code and whose decoder
# mirrors it
CLASSIFIER_SIZES = (N_FEATURES, 100, 100, 100, N_LEVELS)
ENCODER_SIZES = (N_FEATURES, 500, 250, 100)


def _network(kind: str, sizes: Sequence[int]) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """The layer sizes and activations of a network: ReLU hidden layers,
    then a softmax for a "classifier"; for an "autoencoder", `sizes` is the
    encoder, whose code is sigmoid, and the decoder mirrors it up to a
    linear reconstruction."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"bad layer sizes {sizes}")
    hidden = ("relu",) * (len(sizes) - 2)
    if kind == "classifier":
        return sizes, hidden + ("softmax",)
    return sizes + sizes[-2::-1], hidden + ("sigmoid",) + hidden + ("linear",)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 64
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")


@dataclass(frozen=True)
class TrainedModel:
    """A trained (or merely initialized) network: a classifier, or the
    encoder half of an autoencoder. Layer i is the pair (weights, biases)
    of shapes (layer_sizes[i+1], layer_sizes[i]) and (layer_sizes[i+1],),
    and computes z = x @ weights.T + biases.

    `loss_trace[e]` is the row-weighted mean of the batch losses of epoch
    e+1, each taken on the weights before that batch's update, so the
    trace always has exactly `config.epochs` entries. An encoder's trace
    is the loss of the whole autoencoder it was fitted in.
    """

    kind: str  # "classifier" | "encoder"
    layer_sizes: tuple[int, ...]
    activations: tuple[str, ...]
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    config: TrainConfig
    loss_trace: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("classifier", "encoder"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if len(self.layers) != len(self.layer_sizes) - 1:
            raise ValueError("layer count does not match layer_sizes")
        if len(self.activations) != len(self.layers):
            raise ValueError("one activation per layer required")
        for name in self.activations:
            if name not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {name!r}")
        layers = tuple((np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
                       for w, b in self.layers)
        for i, (w, b) in enumerate(layers):
            fan_in, fan_out = self.layer_sizes[i], self.layer_sizes[i + 1]
            if (w.shape, b.shape) != ((fan_out, fan_in), (fan_out,)):
                raise ValueError(f"layer {i} has shapes {w.shape} / {b.shape}, expected "
                                 f"({fan_out}, {fan_in}) / ({fan_out},)")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i} has a non-finite parameter")
        object.__setattr__(self, "layers", layers)

    @property
    def final_loss(self) -> float:
        """The last epoch's mean batch loss; NaN for a model of 0 epochs."""
        return self.loss_trace[-1] if self.loss_trace else float("nan")


# ---------------------------------------------------------------------------
# forward / backward core


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    """The activation of the pre-activation `z`, written over `z` except
    for softmax, whose logits the cross-entropy still reads."""
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "sigmoid":
        # 1 / (1 + exp(-z)) in place, on numpy's SIMD exp as the softmax is;
        # exp(-z) overflows to inf below z = -709, which gives exactly 0
        np.negative(z, out=z)
        with np.errstate(over="ignore"):
            np.exp(z, out=z)
        z += 1.0
        return np.reciprocal(z, out=z)
    if name == "linear":
        return z
    if name == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    raise ValueError(f"unknown activation {name!r}")


def _times_activation_grad(name: str, da: np.ndarray, a: np.ndarray) -> np.ndarray:
    """`da` times the activation's derivative, written over `da`; `a` is the
    layer's activation, from which each derivative is read."""
    if name == "relu":
        # a > 0 exactly where z > 0, and a bool multiplies as exactly 1.0 or 0.0
        return np.multiply(da, a > 0, out=da)
    if name == "sigmoid":
        da *= a * (1.0 - a)
        return da
    if name == "linear":
        return da
    raise ValueError(f"no elementwise gradient for activation {name!r}")


def _layer_outputs(layers: Sequence, activations: Sequence[str], x: np.ndarray):
    """Yield each (weights, biases) layer's (pre-activation, activation) for
    the rows `x`.

    The activation overwrites the pre-activation (see `_activate`), so only
    a softmax layer's pre-activation survives as its own array.
    """
    a = x
    for (w, b), name in zip(layers, activations):
        z = a @ w.T
        z += b
        a = _activate(name, z)
        yield z, a


def _as_batch(x: np.ndarray, expected_dim: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != expected_dim:
        raise ValueError(f"{what} expects a batch of rows of width {expected_dim}, got shape {x.shape}")
    return x


def _outputs(layers: Sequence, activations: Sequence[str], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pre-activation, activation) of the last layer, as `_layer_outputs`
    gives them, holding only the current layer's arrays, so a pass over a
    whole training set stays small."""
    z = a = x
    for z, a in _layer_outputs(layers, activations, x):
        pass
    return z, a


def forward(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """Run the network on a batch of rows.

    Classifier output is a probability vector per row; encoder output is
    the latent code.
    """
    batch = _as_batch(x, model.layer_sizes[0], f"{model.kind} input")
    _, out = _outputs(model.layers, model.activations, batch)
    return out


def encode(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """Map input rows to the sigmoid latent code."""
    if model.kind != "encoder":
        raise ValueError("encode requires an encoder model")
    return forward(model, x)


def _cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy of integer labels under the softmax of the logits."""
    labels = np.asarray(targets, dtype=np.int64)
    m = logits.max(axis=1, keepdims=True)
    log_probs = logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))
    return float(-log_probs[np.arange(labels.size), labels].mean())


def _loss(layers: Sequence, activations: Sequence[str], x: np.ndarray, targets: np.ndarray) -> float:
    """Mean loss over the rows: cross-entropy on the logits for a softmax
    output (targets are integer labels), mean squared error otherwise."""
    logits, out = _outputs(layers, activations, x)
    if activations[-1] == "softmax":
        return _cross_entropy(logits, targets)
    return float(np.mean((out - np.asarray(targets, dtype=np.float64)) ** 2))


def _bounded(layers: Sequence, activations: Sequence[str], x: np.ndarray, targets: np.ndarray) -> bool:
    """True when the weights prove every forward value over the rows `x`
    below _FINITE_BOUND, and so `_loss` finite, in O(parameters).

    An interval bound on |value|, carried layer by layer: |z| <= B times the
    largest row sum of |W|, plus max|b|, and a sigmoid resets B to 1. Every
    layer is checked: a sigmoid maps any input into [0, 1] but a NaN, which
    an overflow in a layer before it gives through 0 * inf. A NaN or
    infinite weight fails the comparison, so False only means "not proven".
    """
    bound = np.abs(x).max()
    for (w, b), name in zip(layers, activations):
        bound = np.abs(w).sum(axis=1).max() * bound + np.abs(b).max()
        if not bound < _FINITE_BOUND:
            return False
        if name == "sigmoid":
            bound = 1.0
    if activations[-1] != "softmax":
        bound += np.abs(targets).max()  # the squared error's other term
    return bool(bound < _FINITE_BOUND)


def _backprop(
    layers: Sequence,
    activations: Sequence[str],
    x: np.ndarray,
    targets: np.ndarray,
    take: Callable[[int, np.ndarray, np.ndarray], None],
) -> float:
    """The mean loss over the batch, read off the forward pass (the `_loss`
    value), and the gradients that go with it.

    Layer i's output gradient dz = dL/dz (rows by outputs) and its input
    rows a go to `take(i, dz, a)`, last layer first, once backprop has read
    layer i's weights, so `take` may update the layer in place while the
    next one's weights are still in cache. The layer's weight gradient is
    dz.T @ a and its bias gradient dz.sum(0); `take` must not write to
    either array.
    """
    acts = [x]
    for z, a in _layer_outputs(layers, activations, x):
        acts.append(a)
    n = x.shape[0]
    out = acts[-1]
    if activations[-1] == "softmax":
        loss = _cross_entropy(z, targets)
        # Softmax and cross-entropy fused: dL/dz = (p - onehot) / n.
        onehot = np.zeros_like(out)
        onehot[np.arange(n), np.asarray(targets, dtype=np.int64)] = 1.0
        dz = (out - onehot) * (1.0 / n)
    else:
        d = out.shape[1]
        diff = out - np.asarray(targets, dtype=np.float64)
        loss = float(np.mean(diff**2))
        diff *= 2.0 / (n * d)
        dz = _times_activation_grad(activations[-1], diff, out)
    for i in reversed(range(len(layers))):
        if i > 0:
            da = dz @ layers[i][0]
        take(i, dz, acts[i])
        if i > 0:
            dz = _times_activation_grad(activations[i - 1], da, acts[i])
    return loss


# ---------------------------------------------------------------------------
# training


def _init_layers(sizes: Sequence[int], rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    # Scaled-uniform fan-in init: U(-1/sqrt(fan_in), 1/sqrt(fan_in)), zero biases.
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        layers.append((rng.uniform(-bound, bound, size=(fan_out, fan_in)), np.zeros(fan_out)))
    return layers


# A layer with fewer weights takes numpy's step: on a matrix this small the
# two passes over the weights that the GEMM saves cost less than calling it
# through ctypes (measured on an AVX-512 host: numpy is faster at 10,000
# weights, the GEMM at 25,000, at batches 16 and 64).
_GEMM_STEP_MIN_WEIGHTS = 16_384


def _descend(weights: np.ndarray, lr: float, dz: np.ndarray, a: np.ndarray) -> None:
    """`weights -= lr * (dz.T @ a)` in place: one SGD step of a layer whose
    output gradient is `dz` on the input rows `a`.

    For a layer of at least _GEMM_STEP_MIN_WEIGHTS weights, numpy's bundled
    OpenBLAS writes the step straight into the weights in one GEMM,
    w <- -lr * dz.T @ a + 1 * w, with no gradient matrix in between. Its
    large-matrix kernel rounds -lr * dz.T @ a + w once where numpy's form
    rounds the product, the scaling and the difference apart. The two agree
    bit for bit when lr is a power of two and the batch fits in one pass of
    the kernel's inner loop (384 rows on SkylakeX), and when
    out * in * batch <= 1e6, where OpenBLAS's small-matrix kernel rounds as
    numpy does. Smaller layers, and every layer without that OpenBLAS, take
    numpy's step.
    """
    blas = _openblas()
    if blas is None or weights.size < _GEMM_STEP_MIN_WEIGHTS:
        dw = dz.T @ a
        dw *= lr
        weights -= dw
        return
    if not (weights.dtype == np.float64 and weights.flags.c_contiguous and weights.flags.writeable):
        raise ValueError("the GEMM writes only into a writeable C-contiguous float64 weight matrix")
    dz, a = np.ascontiguousarray(dz, np.float64), np.ascontiguousarray(a, np.float64)
    out_dim, in_dim = weights.shape
    if dz.shape != (a.shape[0], out_dim) or a.shape[1:] != (in_dim,):
        raise ValueError(f"gradient {dz.shape} and rows {a.shape} do not fit weights {weights.shape}")
    blas.dgemm(_ROW_MAJOR, _TRANS, _NO_TRANS, out_dim, in_dim, dz.shape[0], -lr,
               dz.ctypes.data, out_dim, a.ctypes.data, in_dim, 1.0, weights.ctypes.data, in_dim)


@single_blas_thread()
def _run_sgd(
    kind: str,
    layer_sizes: tuple[int, ...],
    activations: tuple[str, ...],
    x: np.ndarray,
    targets: np.ndarray,
    config: TrainConfig,
) -> tuple[tuple[tuple[np.ndarray, np.ndarray], ...], tuple[float, ...]]:
    """The fitted (weights, biases) layers and the loss trace of an SGD fit
    from a seeded initialization, whose arrays each batch updates in place;
    `kind` names the network in a divergence error."""
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot train on zero rows")
    if config.batch_size > n:
        raise ValueError(f"batch_size {config.batch_size} exceeds {n} training rows")
    rng = np.random.default_rng(config.seed)
    layers = _init_layers(layer_sizes, rng)
    lr = config.learning_rate

    def update(i: int, dz: np.ndarray, a: np.ndarray) -> None:
        w, b = layers[i]
        _descend(w, lr, dz, a)
        db = dz.sum(axis=0)
        db *= lr
        b -= db

    trace: list[float] = []
    # divergence is detected by the finiteness checks below, so the overflow
    # warnings numpy would raise on the way there are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                loss = _backprop(layers, activations, x[idx], targets[idx], update)
                total += loss * idx.size
            if not np.isfinite(total):
                raise TrainingDivergedError(epoch, kind)
            trace.append(total / n)
        # each batch loss is taken before its batch's update, so what the last
        # update did is proven finite from the weights, or else by a full pass
        if (config.epochs and not _bounded(layers, activations, x, targets)
                and not np.isfinite(_loss(layers, activations, x, targets))):
            raise TrainingDivergedError(config.epochs, kind)

    return tuple(layers), tuple(trace)


def train_classifier(
    x: np.ndarray,
    labels: np.ndarray,
    layer_sizes: Sequence[int] = CLASSIFIER_SIZES,
    config: TrainConfig = TrainConfig(),
) -> TrainedModel:
    """Fit the softmax classifier of `layer_sizes` with mini-batch SGD.

    `x` is a scaled (n, input) matrix and `labels` an integer class
    vector. Raises TrainingDivergedError when the loss leaves the finite
    range; the fix is a smaller learning rate.
    """
    sizes, activations = _network("classifier", layer_sizes)
    x = _as_batch(x, sizes[0], "training")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (x.shape[0],):
        raise ValueError("one label per training row required")
    if labels.size and (labels.min() < 0 or labels.max() >= sizes[-1]):
        raise ValueError(f"labels must lie in [0, {sizes[-1]})")
    layers, trace = _run_sgd("classifier", sizes, activations, x, labels, config)
    return TrainedModel("classifier", sizes, activations, layers, config, trace)


def train_autoencoder(
    x: np.ndarray,
    encoder_sizes: Sequence[int] = ENCODER_SIZES,
    config: TrainConfig = TrainConfig(),
) -> TrainedModel:
    """Fit the autoencoder of `encoder_sizes` and its mirrored decoder to
    reconstruct its input under MSE, and return its encoder: no stage reads
    the decoder, and the same config refits it bit for bit."""
    sizes, activations = _network("autoencoder", encoder_sizes)
    x = _as_batch(x, sizes[0], "training")
    layers, trace = _run_sgd("autoencoder", sizes, activations, x, x, config)
    k = len(sizes) // 2  # the encoder's layers
    return TrainedModel("encoder", sizes[: k + 1], activations[:k], layers[:k], config, trace)


# ---------------------------------------------------------------------------
# prediction


def predict_batch(
    classifier: TrainedModel,
    x: np.ndarray,
    ae: Optional[TrainedModel] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Class labels and probability rows for a feature matrix.

    With an encoder the classifier consumes the latent code. Ties in
    the probabilities resolve to the smallest class index.
    """
    if classifier.kind != "classifier":
        raise ValueError("predict requires a classifier model")
    probs = forward(classifier, x if ae is None else encode(ae, x))
    labels = np.argmax(probs, axis=1)  # first maximum, so ties pick the smallest index
    return labels, probs


# ---------------------------------------------------------------------------
# serialization


def _encode(a: np.ndarray) -> str:
    """Base64 of the array's little-endian float64 bytes in C order: the
    exact bits, at a fraction of the cost of writing each float as text."""
    return base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")


def _decode(text: str, shape: tuple[int, ...]) -> np.ndarray:
    """The array `_encode` wrote; a bad character or length is a ValueError."""
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8").reshape(shape)


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "layer_sizes": list(model.layer_sizes),
        "activations": list(model.activations),
        "config": asdict(model.config),
        "loss_trace": list(model.loss_trace),
        "layers": [
            {"weights": _encode(w), "biases": _encode(b)}
            for w, b in model.layers
        ],
    }


def model_from_dict(d: dict) -> TrainedModel:
    if not isinstance(d, dict):
        raise ValueError(f"a model is a JSON object, not {type(d).__name__}")
    version = d.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    sizes = tuple(d["layer_sizes"])
    model = TrainedModel(
        kind=d["kind"],
        layer_sizes=sizes,
        activations=tuple(d["activations"]),
        layers=tuple(
            (_decode(layer["weights"], (fan_out, fan_in)), _decode(layer["biases"], (fan_out,)))
            for layer, fan_in, fan_out in zip(d["layers"], sizes[:-1], sizes[1:], strict=True)
        ),
        config=TrainConfig(**d["config"]),
        loss_trace=tuple(d["loss_trace"]),
    )
    # the activations follow from the kind and the sizes, as training sets
    # them; an encoder's are the first of its autoencoder's
    expected = _network(model.kind, sizes)[1][: len(model.layers)]
    if model.activations != expected:
        raise ValueError(f"a {model.kind} of sizes {list(sizes)} has activations {list(expected)}, "
                         f"not {list(model.activations)}")
    return model


def load_model(path: Path | str) -> TrainedModel:
    return model_from_dict(json.loads(Path(path).read_text()))

