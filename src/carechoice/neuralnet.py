"""From-scratch feed-forward networks trained by mini-batch SGD.

Two architectures: a softmax classifier over the four hospital levels and
an autoencoder with a sigmoid latent layer. Both run on float64 numpy,
share one backpropagation core, and are deterministic given a seed. A
finite-difference gradient check guards the backprop implementation.

OpenBLAS splits a matrix product differently at different thread counts,
which changes the last bits of the result, so every fit runs on one BLAS
thread (`single_blas_thread`) and a seed gives the same model bytes on
any machine and under any OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .domain import N_LEVELS
from .features import N_FEATURES

MODEL_FORMAT_VERSION = 2


class MissingDependencyError(Exception):
    """An optional package the requested model needs is not installed."""


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
# BLAS threads


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[tuple]:
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])  # already loaded by numpy, so this returns the same handle
    get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if get is None or set_ is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def blas_threads() -> Optional[int]:
    """Current thread count of numpy's bundled OpenBLAS; None if it is absent."""
    api = _openblas()
    return api[0]() if api is not None else None


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
    get, set_ = api
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


@dataclass(frozen=True)
class LayerParams:
    """One affine layer: z = x @ weights.T + biases."""

    weights: np.ndarray  # (out_dim, in_dim)
    biases: np.ndarray  # (out_dim,)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.biases, dtype=np.float64)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ValueError(f"inconsistent layer shapes {w.shape} / {b.shape}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("layer parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class MlpConfig:
    """Classifier shape: ReLU hidden layers, softmax output."""

    layer_sizes: tuple[int, ...] = (N_FEATURES, 100, 100, 100, N_LEVELS)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"bad layer sizes {sizes}")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def activations(self) -> tuple[str, ...]:
        return ("relu",) * (len(self.layer_sizes) - 2) + ("softmax",)


@dataclass(frozen=True)
class AeConfig:
    """Autoencoder shape.

    Encoder hidden layers are ReLU and the final encoder layer (the
    latent code) is sigmoid; decoder hidden layers are ReLU and the
    reconstruction layer is linear.
    """

    encoder_sizes: tuple[int, ...] = (N_FEATURES, 500, 250, 100)
    decoder_sizes: tuple[int, ...] = (100, 250, 500, N_FEATURES)

    def __post_init__(self):
        enc = tuple(int(s) for s in self.encoder_sizes)
        dec = tuple(int(s) for s in self.decoder_sizes)
        if len(enc) < 2 or len(dec) < 2 or any(s < 1 for s in enc + dec):
            raise ValueError(f"bad autoencoder sizes {enc} / {dec}")
        if enc[-1] != dec[0]:
            raise ValueError(f"latent width mismatch: encoder ends at {enc[-1]}, decoder starts at {dec[0]}")
        if dec[-1] != enc[0]:
            raise ValueError(f"reconstruction width {dec[-1]} differs from input width {enc[0]}")
        object.__setattr__(self, "encoder_sizes", enc)
        object.__setattr__(self, "decoder_sizes", dec)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return self.encoder_sizes + self.decoder_sizes[1:]

    @property
    def n_encoder_layers(self) -> int:
        return len(self.encoder_sizes) - 1

    @property
    def latent_dim(self) -> int:
        return self.encoder_sizes[-1]

    @property
    def activations(self) -> tuple[str, ...]:
        enc = ("relu",) * (len(self.encoder_sizes) - 2) + ("sigmoid",)
        dec = ("relu",) * (len(self.decoder_sizes) - 2) + ("linear",)
        return enc + dec


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
    """An immutable trained (or merely initialized) network.

    `loss_trace[e]` is the full-training-set loss after epoch e+1, so the
    trace always has exactly `config.epochs` entries; `initial_loss` is
    the loss before any update.
    """

    kind: str  # "classifier" | "autoencoder"
    layer_sizes: tuple[int, ...]
    activations: tuple[str, ...]
    layers: tuple[LayerParams, ...]
    config: TrainConfig
    initial_loss: float
    loss_trace: tuple[float, ...]
    n_encoder_layers: Optional[int] = None  # autoencoder only

    def __post_init__(self):
        if self.kind not in ("classifier", "autoencoder"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if len(self.layers) != len(self.layer_sizes) - 1:
            raise ValueError("layer count does not match layer_sizes")
        if len(self.activations) != len(self.layers):
            raise ValueError("one activation per layer required")
        for i, layer in enumerate(self.layers):
            if (layer.in_dim, layer.out_dim) != (self.layer_sizes[i], self.layer_sizes[i + 1]):
                raise ValueError(f"layer {i} has shape {layer.weights.shape}, expected "
                                 f"({self.layer_sizes[i + 1]}, {self.layer_sizes[i]})")
        if self.kind == "autoencoder" and self.n_encoder_layers is None:
            raise ValueError("autoencoder model needs n_encoder_layers")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def latent_dim(self) -> int:
        if self.kind != "autoencoder":
            raise ValueError("latent_dim is only defined for autoencoders")
        return self.layer_sizes[self.n_encoder_layers]

    @property
    def final_loss(self) -> float:
        return self.loss_trace[-1] if self.loss_trace else self.initial_loss


def n_parameters(model: TrainedModel) -> int:
    return sum(layer.weights.size + layer.biases.size for layer in model.layers)


# ---------------------------------------------------------------------------
# forward / backward core


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        # SciPy's expit, not 1 / (1 + np.exp(-z)): numpy's vectorised exp can
        # differ from it in the last bit, which would change trained models;
        # imported here so that only the autoencoder needs SciPy
        try:
            from scipy.special import expit
        except ImportError as exc:
            raise MissingDependencyError(
                "the autoencoder's sigmoid layer needs SciPy; install carechoice[ae]"
            ) from exc
        return expit(z)
    if name == "linear":
        return z
    if name == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    raise ValueError(f"unknown activation {name!r}")


def _activation_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    # Derivative w.r.t. z, expressed with whichever of z/a is cheaper.
    if name == "relu":
        return (z > 0).astype(np.float64)
    if name == "sigmoid":
        return a * (1.0 - a)
    if name == "linear":
        return np.ones_like(z)
    raise ValueError(f"no elementwise gradient for activation {name!r}")


def _forward_pass(
    layers: Sequence, activations: Sequence[str], x: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Return (pre-activations per layer, activations including the input).

    Accepts anything with .weights/.biases so the SGD scratch layers and
    the immutable LayerParams both work.
    """
    a = x
    zs: list[np.ndarray] = []
    acts: list[np.ndarray] = [x]
    for layer, name in zip(layers, activations):
        z = a @ layer.weights.T + layer.biases
        zs.append(z)
        a = _activate(name, z)
        acts.append(a)
    return zs, acts


def _as_batch(x: np.ndarray, expected_dim: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    batch = x[np.newaxis, :] if single else x
    if batch.ndim != 2 or batch.shape[1] != expected_dim:
        raise ValueError(f"{what} expects width {expected_dim}, got shape {x.shape}")
    return batch, single


def _outputs(layers: Sequence, activations: Sequence[str], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pre-activation, activation) of the last layer.

    The same arithmetic as `_forward_pass`, holding only the current
    layer's arrays, so a pass over a whole training set stays small.
    """
    z = a = x
    for layer, name in zip(layers, activations):
        z = a @ layer.weights.T + layer.biases
        a = _activate(name, z)
    return z, a


def forward(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """Run the network on one vector or a batch.

    Classifier output is a probability vector per row; autoencoder output
    is the reconstruction. A 1-D input yields a 1-D output.
    """
    batch, single = _as_batch(x, model.input_dim, f"{model.kind} input")
    _, out = _outputs(model.layers, model.activations, batch)
    return out[0] if single else out


def forward_logits(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """Pre-softmax scores of a classifier; shape mirrors forward()."""
    if model.activations[-1] != "softmax":
        raise ValueError("forward_logits requires a softmax classifier")
    batch, single = _as_batch(x, model.input_dim, "classifier input")
    out, _ = _outputs(model.layers, model.activations, batch)
    return out[0] if single else out


def encode(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """Map input rows to the sigmoid latent code."""
    if model.kind != "autoencoder":
        raise ValueError("encode requires an autoencoder model")
    batch, single = _as_batch(x, model.input_dim, "encoder input")
    k = model.n_encoder_layers
    _, z = _outputs(model.layers[:k], model.activations[:k], batch)
    return z[0] if single else z


def _loss(layers: Sequence, activations: Sequence[str], x: np.ndarray, targets: np.ndarray) -> float:
    """Mean loss over the rows: cross-entropy on the logits for a softmax
    output (targets are integer labels), mean squared error otherwise."""
    logits, out = _outputs(layers, activations, x)
    if activations[-1] == "softmax":
        labels = np.asarray(targets, dtype=np.int64)
        m = logits.max(axis=1, keepdims=True)
        log_probs = logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))
        return float(-log_probs[np.arange(labels.size), labels].mean())
    return float(np.mean((out - np.asarray(targets, dtype=np.float64)) ** 2))


def dataset_loss(model: TrainedModel, x: np.ndarray, targets: np.ndarray) -> float:
    """Loss of the model on a dataset: cross-entropy for classifiers
    (targets are integer labels), mean squared error otherwise."""
    batch, _ = _as_batch(x, model.input_dim, f"{model.kind} input")
    return _loss(model.layers, model.activations, batch, targets)


def _gradients(
    layers: Sequence,
    activations: Sequence[str],
    x: np.ndarray,
    targets: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Analytic (dW, db) per layer for the mean loss over the batch."""
    zs, acts = _forward_pass(layers, activations, x)
    n = x.shape[0]
    out = acts[-1]
    if activations[-1] == "softmax":
        # Softmax and cross-entropy fused: dL/dz = (p - onehot) / n.
        onehot = np.zeros_like(out)
        onehot[np.arange(n), np.asarray(targets, dtype=np.int64)] = 1.0
        dz = (out - onehot) * (1.0 / n)
    else:
        d = out.shape[1]
        dout = (out - np.asarray(targets, dtype=np.float64)) * (2.0 / (n * d))
        dz = dout * _activation_grad(activations[-1], zs[-1], out)
    grads: list[tuple[np.ndarray, np.ndarray]] = []
    for i in reversed(range(len(layers))):
        grads.append((dz.T @ acts[i], dz.sum(axis=0)))
        if i > 0:
            da = dz @ layers[i].weights
            dz = da * _activation_grad(activations[i - 1], zs[i - 1], acts[i])
    grads.reverse()
    return grads


# ---------------------------------------------------------------------------
# training


def _init_layers(sizes: Sequence[int], rng: np.random.Generator) -> tuple[LayerParams, ...]:
    # Scaled-uniform fan-in init: U(-1/sqrt(fan_in), 1/sqrt(fan_in)), zero biases.
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(LayerParams(weights=weights, biases=np.zeros(fan_out)))
    return tuple(layers)


class _ScratchLayer:
    """Mutable (weights, biases) pair for the SGD inner loop.

    Skips LayerParams validation, which would otherwise scan every
    parameter for finiteness after each batch update.
    """

    __slots__ = ("weights", "biases")

    def __init__(self, weights: np.ndarray, biases: np.ndarray):
        self.weights = weights
        self.biases = biases


@single_blas_thread()
def _run_sgd(
    kind: str,
    layer_sizes: tuple[int, ...],
    activations: tuple[str, ...],
    x: np.ndarray,
    targets: np.ndarray,
    config: TrainConfig,
    n_encoder_layers: Optional[int] = None,
) -> TrainedModel:
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot train on zero rows")
    if config.batch_size > n:
        raise ValueError(f"batch_size {config.batch_size} exceeds {n} training rows")
    rng = np.random.default_rng(config.seed)
    layers = [
        _ScratchLayer(p.weights.copy(), p.biases.copy())
        for p in _init_layers(layer_sizes, rng)
    ]

    initial_loss = _loss(layers, activations, x, targets)
    if not np.isfinite(initial_loss):
        raise TrainingDivergedError(0, kind)

    lr = config.learning_rate
    trace: list[float] = []
    # divergence is detected by the finiteness check below, so the overflow
    # warnings numpy would raise on the way there are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = order[start : start + config.batch_size]
                grads = _gradients(layers, activations, x[idx], targets[idx])
                for layer, (dw, db) in zip(layers, grads):
                    layer.weights -= lr * dw
                    layer.biases -= lr * db
            loss = _loss(layers, activations, x, targets)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, kind)
            trace.append(loss)

    return TrainedModel(
        kind=kind,
        layer_sizes=layer_sizes,
        activations=activations,
        layers=tuple(LayerParams(weights=l.weights, biases=l.biases) for l in layers),
        config=config,
        initial_loss=initial_loss,
        loss_trace=tuple(trace),
        n_encoder_layers=n_encoder_layers,
    )


def train_classifier(
    x: np.ndarray,
    labels: np.ndarray,
    mlp: MlpConfig = MlpConfig(),
    config: TrainConfig = TrainConfig(),
) -> TrainedModel:
    """Fit the softmax classifier with mini-batch SGD.

    `x` is a scaled (n, input) matrix and `labels` an integer class
    vector. Raises TrainingDivergedError when the loss leaves the finite
    range; the fix is a smaller learning rate.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[1] != mlp.layer_sizes[0]:
        raise ValueError(f"training matrix must be (n, {mlp.layer_sizes[0]}), got {x.shape}")
    if labels.shape != (x.shape[0],):
        raise ValueError("one label per training row required")
    n_classes = mlp.layer_sizes[-1]
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes})")
    return _run_sgd("classifier", mlp.layer_sizes, mlp.activations, x, labels, config)


def train_autoencoder(
    x: np.ndarray,
    ae: AeConfig = AeConfig(),
    config: TrainConfig = TrainConfig(),
) -> TrainedModel:
    """Fit the autoencoder to reconstruct its input under MSE."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != ae.encoder_sizes[0]:
        raise ValueError(f"training matrix must be (n, {ae.encoder_sizes[0]}), got {x.shape}")
    return _run_sgd(
        "autoencoder",
        ae.layer_sizes,
        ae.activations,
        x,
        x,
        config,
        n_encoder_layers=ae.n_encoder_layers,
    )


# ---------------------------------------------------------------------------
# prediction


def predict_batch(
    classifier: TrainedModel,
    x: np.ndarray,
    ae: Optional[TrainedModel] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Class labels and probability rows for a feature matrix.

    With an autoencoder the classifier consumes the latent code. Ties in
    the probabilities resolve to the smallest class index.
    """
    if classifier.kind != "classifier":
        raise ValueError("predict requires a classifier model")
    batch, _ = _as_batch(x, ae.input_dim if ae is not None else classifier.input_dim, "input")
    if ae is not None:
        batch = encode(ae, batch)
    if batch.shape[1] != classifier.input_dim:
        raise ValueError(
            f"classifier expects width {classifier.input_dim}, "
            f"but this path produces width {batch.shape[1]}"
        )
    probs = forward(classifier, batch)
    labels = np.argmax(probs, axis=1)  # first maximum, so ties pick the smallest index
    return labels, probs


# ---------------------------------------------------------------------------
# gradient verification

GRADIENT_CHECK_STEP = 1e-5
GRADIENT_CHECK_PARAM_LIMIT = 10_000


def gradient_check(
    model: TrainedModel,
    x: np.ndarray,
    targets: np.ndarray,
    step: float = GRADIENT_CHECK_STEP,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    `targets` are integer labels for classifiers and a real matrix for
    MSE models. Intended for small models; refuses anything over
    10k parameters because the numeric sweep is quadratic in cost.
    """
    if n_parameters(model) > GRADIENT_CHECK_PARAM_LIMIT:
        raise ValueError(f"gradient_check is limited to {GRADIENT_CHECK_PARAM_LIMIT} parameters")
    x = np.asarray(x, dtype=np.float64)
    layers = [
        LayerParams(weights=p.weights.copy(), biases=p.biases.copy()) for p in model.layers
    ]
    analytic = _gradients(layers, model.activations, x, targets)

    worst = 0.0
    for li, layer in enumerate(layers):
        for arr, grad in ((layer.weights, analytic[li][0]), (layer.biases, analytic[li][1])):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                hi = _loss(layers, model.activations, x, targets)
                flat[j] = orig - step
                lo = _loss(layers, model.activations, x, targets)
                flat[j] = orig
                numeric = (hi - lo) / (2.0 * step)
                denom = max(abs(gflat[j]), abs(numeric), 1e-8)
                worst = max(worst, abs(gflat[j] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# serialization


def model_to_dict(model: TrainedModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "layer_sizes": list(model.layer_sizes),
        "activations": list(model.activations),
        "n_encoder_layers": model.n_encoder_layers,
        "config": asdict(model.config),
        "initial_loss": model.initial_loss,
        "loss_trace": list(model.loss_trace),
        "layers": [
            {"weights": layer.weights.tolist(), "biases": layer.biases.tolist()}
            for layer in model.layers
        ],
    }


def model_from_dict(d: dict) -> TrainedModel:
    if not isinstance(d, dict):
        raise ValueError(f"a model is a JSON object, not {type(d).__name__}")
    version = d.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    return TrainedModel(
        kind=d["kind"],
        layer_sizes=tuple(d["layer_sizes"]),
        activations=tuple(d["activations"]),
        layers=tuple(
            LayerParams(
                weights=np.asarray(layer["weights"], dtype=np.float64),
                biases=np.asarray(layer["biases"], dtype=np.float64),
            )
            for layer in d["layers"]
        ),
        config=TrainConfig(**d["config"]),
        initial_loss=d["initial_loss"],
        loss_trace=tuple(d["loss_trace"]),
        n_encoder_layers=d["n_encoder_layers"],
    )


def load_model(path: Path | str) -> TrainedModel:
    return model_from_dict(json.loads(Path(path).read_text()))

