"""From-scratch networks: initialization, forward math, gradients, SGD."""

import dataclasses
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from carechoice import neuralnet
from carechoice.domain import HospitalLevel
from carechoice.neuralnet import (
    CLASSIFIER_SIZES,
    ENCODER_SIZES,
    TrainConfig,
    TrainedModel,
    TrainingDivergedError,
    blas_threads,
    encode,
    forward,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_batch,
    train_autoencoder,
    train_classifier,
)
from oracles import gradient_check, n_parameters, naive_sigmoid, whole_autoencoder


def blob_data(n=120, d=6, classes=3, seed=0, spread=4.0):
    """Linearly separable class blobs."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, spread, size=(classes, d))
    labels = rng.integers(0, classes, size=n)
    x = centers[labels] + rng.normal(0, 0.5, size=(n, d))
    return x, labels


def manual_model(weights_list, activations, kind="classifier"):
    layers = tuple((np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)) for w, b in weights_list)
    sizes = (layers[0][0].shape[1],) + tuple(w.shape[0] for w, _ in layers)
    return TrainedModel(
        kind=kind, layer_sizes=sizes, activations=activations, layers=layers,
        config=TrainConfig(), loss_trace=(),
    )


def fitted_networks(monkeypatch):
    """A list that receives the (kind, layer sizes, activations) of each SGD fit."""
    seen = []
    run_sgd = neuralnet._run_sgd

    def recording(kind, sizes, activations, *args):
        seen.append((kind, sizes, activations))
        return run_sgd(kind, sizes, activations, *args)

    monkeypatch.setattr(neuralnet, "_run_sgd", recording)
    return seen


class TestConfigs:
    ZERO_EPOCHS = TrainConfig(epochs=0, batch_size=1)

    def test_classifier_activations(self):
        x, y = blob_data(d=18, classes=4)
        assert train_classifier(x, y, (18, 8, 4), self.ZERO_EPOCHS).activations == ("relu", "softmax")
        assert train_classifier(x, y, (18, 4), self.ZERO_EPOCHS).activations == ("softmax",)

    def test_default_shapes(self, monkeypatch):
        # the paper's shapes, and an autoencoder fit that runs the whole
        # 18-500-250-100-250-500-18 network, as `whole_autoencoder` does
        assert CLASSIFIER_SIZES == (18, 100, 100, 100, 4)
        assert ENCODER_SIZES == (18, 500, 250, 100)
        fits = fitted_networks(monkeypatch)
        x, y = blob_data(d=18, classes=4)
        assert train_classifier(x, y, config=self.ZERO_EPOCHS).layer_sizes == CLASSIFIER_SIZES
        assert train_autoencoder(x, config=self.ZERO_EPOCHS).layer_sizes == ENCODER_SIZES
        whole = whole_autoencoder(x, ENCODER_SIZES, self.ZERO_EPOCHS)
        assert [sizes for _, sizes, _ in fits] == [CLASSIFIER_SIZES, (18, 500, 250, 100, 250, 500, 18),
                                                   whole.layer_sizes]
        assert fits[1] == fits[2]
        assert [w.shape for w, _ in whole.layers] == [(500, 18), (250, 500), (100, 250),
                                                      (250, 100), (500, 250), (18, 500)]

    def test_autoencoder_activations(self, monkeypatch):
        fits = fitted_networks(monkeypatch)
        x, _ = blob_data(d=18)
        encoder = train_autoencoder(x, (18, 20, 8), self.ZERO_EPOCHS)
        assert fits == [("autoencoder", (18, 20, 8, 20, 18), ("relu", "sigmoid", "relu", "linear"))]
        assert (encoder.layer_sizes, encoder.activations) == ((18, 20, 8), ("relu", "sigmoid"))

    @pytest.mark.parametrize("sizes", [(), (18,), (18, 0, 4), (18, -3)])
    def test_bad_sizes_rejected(self, sizes):
        x, y = blob_data(d=18, classes=4)
        with pytest.raises(ValueError, match="bad layer sizes"):
            train_classifier(x, y, sizes, self.ZERO_EPOCHS)
        with pytest.raises(ValueError, match="bad layer sizes"):
            train_autoencoder(x, sizes, self.ZERO_EPOCHS)

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)


def initial_classifier(seed, x=None, y=None, epochs=0):
    """A classifier fit for `epochs` epochs; at 0, the layers training starts from."""
    if x is None:
        x, y = blob_data(d=18, classes=4)
    cfg = TrainConfig(epochs=epochs, seed=seed, batch_size=16)
    return train_classifier(x, y, (18, 8, 4), cfg)


def initial_loss(fit, *args, config: TrainConfig):
    """`_loss` over the rows of the layers that `fit(*args, config)` starts
    from: the layers of the same fit at 0 epochs."""
    x, targets = args[0], (args[1] if fit is train_classifier else args[0])
    model = fit(*args, dataclasses.replace(config, epochs=0))
    return neuralnet._loss(model.layers, model.activations, x, targets)


def first_batch(monkeypatch):
    """A dict that receives the first SGD batch's weights (copied before its
    update), rows, targets and loss."""
    seen = {}
    backprop = neuralnet._backprop

    def recording(layers, activations, x, targets, *args):
        weights = [w.copy() for w, _ in layers]
        loss = backprop(layers, activations, x, targets, *args)
        if not seen:
            seen.update(weights=weights, x=x, targets=targets, loss=loss)
        return loss

    monkeypatch.setattr(neuralnet, "_backprop", recording)
    return seen


def starts_from(model, batch) -> bool:
    """Whether the recorded first batch read `model`'s layers: its weights,
    and the `_loss` of those layers over its rows."""
    return (all(np.array_equal(w, layer[0]) for w, layer in zip(batch["weights"], model.layers, strict=True))
            and neuralnet._loss(model.layers, model.activations, batch["x"], batch["targets"]) == batch["loss"])


class TestInitialization:
    def test_fan_in_bound_and_zero_biases(self):
        layers = initial_classifier(seed=0).layers
        for (w, b), fan_in in zip(layers, (18, 8)):
            assert np.max(np.abs(w)) <= 1.0 / math.sqrt(fan_in)
            assert np.all(b == 0.0)

    def test_deterministic_per_seed(self):
        a = initial_classifier(seed=5).layers
        b = initial_classifier(seed=5).layers
        c = initial_classifier(seed=6).layers
        assert all(np.array_equal(wa, wb) for (wa, _), (wb, _) in zip(a, b))
        assert not np.array_equal(a[0][0], c[0][0])

    def test_zero_epoch_training_equals_initialization(self, monkeypatch):
        x, y = blob_data(d=18, classes=4)
        model = initial_classifier(seed=9, x=x, y=y)
        assert model.loss_trace == ()
        assert math.isnan(model.final_loss)
        batch = first_batch(monkeypatch)
        trained = initial_classifier(seed=9, x=x, y=y, epochs=2)
        assert starts_from(model, batch)
        assert not np.array_equal(trained.layers[0][0], model.layers[0][0])

    def test_zero_epoch_autoencoder_matches_too(self, monkeypatch):
        x, _ = blob_data(d=18)
        ae, cfg = (18, 6, 3), TrainConfig(epochs=0, seed=4, batch_size=16)
        model = train_autoencoder(x, ae, cfg)
        assert model.loss_trace == ()
        assert math.isnan(model.final_loss)
        initial = whole_autoencoder(x, ae, cfg)
        batch = first_batch(monkeypatch)
        train_autoencoder(x, ae, dataclasses.replace(cfg, epochs=1))
        assert starts_from(initial, batch)


class TestForwardMath:
    def test_softmax_probabilities_golden(self):
        # identity weights turn x into logits; check softmax by hand
        model = manual_model([([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])], ("softmax",))
        probs = forward(model, np.array([[math.log(2.0), 0.0]]))
        assert probs[0] == pytest.approx([2 / 3, 1 / 3], abs=1e-15)

    def test_relu_hidden_layer_golden(self):
        # first unit fires, second is clipped at zero
        model = manual_model(
            [
                ([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0]),
                ([[1.0, 1.0], [0.0, 0.0]], [0.0, 0.0]),
            ],
            ("relu", "softmax"),
        )
        x = np.array([[2.0, 7.0]])
        # hidden = relu([2, -2]) = [2, 0]; logits = [2, 0]
        expected = np.exp([2.0, 0.0]) / np.exp([2.0, 0.0]).sum()
        assert forward(model, x)[0] == pytest.approx(expected, abs=1e-15)

    def test_probability_rows_sum_to_one(self):
        x, y = blob_data(d=18, classes=4)
        model = train_classifier(x, y, (18, 8, 4), TrainConfig(epochs=2, batch_size=16))
        probs = forward(model, x)
        assert probs.shape == (len(x), 4)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert probs.min() >= 0.0

    def test_uniform_model_cross_entropy_is_log_c(self):
        model = manual_model([(np.zeros((4, 18)), np.zeros(4))], ("softmax",))
        x, y = blob_data(d=18, classes=4)
        assert neuralnet._loss(model.layers, model.activations, x, y) == pytest.approx(
            math.log(4.0), abs=1e-12
        )

    def test_zero_autoencoder_mse_is_mean_square(self):
        model = manual_model(
            [(np.zeros((2, 2)), np.zeros(2)), (np.zeros((2, 2)), np.zeros(2))],
            ("sigmoid", "linear"),
            kind="encoder",
        )
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert neuralnet._loss(model.layers, model.activations, x, x) == pytest.approx(
            np.mean(x**2), abs=1e-15
        )

    def test_loss_and_outputs_match_the_forward_pass_bit_for_bit(self):
        # _loss, forward and encode keep one layer's arrays at
        # a time; their values must be those read off the arrays of every
        # layer that backprop keeps, and backprop's loss must be _loss;
        # encode's are those of the whole autoencoder's latent layer
        x, y = blob_data(n=300, d=18, classes=4)
        clf = train_classifier(x, y, (18, 32, 16, 4),
                               TrainConfig(epochs=2, batch_size=16, seed=3))
        logits, probs = list(neuralnet._layer_outputs(clf.layers, clf.activations, x))[-1]
        m = logits.max(axis=1, keepdims=True)
        log_probs = logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))
        loss = neuralnet._loss(clf.layers, clf.activations, x, y)
        assert loss == float(-log_probs[np.arange(y.size), y].mean())
        assert loss == self.backprop_loss(clf, x, y)
        assert np.array_equal(forward(clf, x), probs)

        encoder_sizes, cfg = (18, 24, 8), TrainConfig(epochs=2, batch_size=16, seed=3)
        ae = whole_autoencoder(x, encoder_sizes, cfg)
        acts = [a for _, a in neuralnet._layer_outputs(ae.layers, ae.activations, x)]
        loss = neuralnet._loss(ae.layers, ae.activations, x, x)
        assert loss == float(np.mean((acts[-1] - x) ** 2))
        assert loss == self.backprop_loss(ae, x, x)
        encoder = train_autoencoder(x, encoder_sizes, cfg)
        assert np.array_equal(forward(encoder, x), acts[1])
        assert np.array_equal(encode(encoder, x), acts[1])

    @staticmethod
    def backprop_loss(model, x, targets):
        return neuralnet._backprop(model.layers, model.activations, x, targets, lambda i, dz, a: None)

    def test_encode_is_sigmoid_bounded(self):
        x, _ = blob_data(d=18)
        ae = train_autoencoder(x, (18, 6, 3),
                               TrainConfig(epochs=2, batch_size=16))
        z = encode(ae, x)
        assert z.shape == (len(x), 3)
        assert np.all((z > 0.0) & (z < 1.0))


class TestSigmoid:
    @staticmethod
    def sigmoid(z):
        return neuralnet._activate("sigmoid", np.array(z, dtype=np.float64))

    def test_within_two_ulp_of_the_math_exp_reference(self):
        rng = np.random.default_rng(7)
        z = np.concatenate([np.linspace(-750.0, 750.0, 100_001), rng.normal(0.0, 5.0, 20_000),
                            rng.normal(0.0, 300.0, 20_000), [-709.79, -709.78, -708.4, 36.8, 37.5]])
        want = np.array([naive_sigmoid(v) for v in z.tolist()])
        got = self.sigmoid(z)
        # both are non-negative, so their bit patterns count ulps
        assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 2

    def test_saturates_exactly_and_keeps_nan(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = self.sigmoid([-800.0, 0.0, 800.0, np.nan])
        assert out[:3].tolist() == [0.0, 0.5, 1.0]
        assert np.isnan(out[3])

    def test_encode_of_a_deeply_negative_latent_raises_no_warning(self):
        # the latent pre-activation is -1000, so exp(1000) overflows to inf
        ae = manual_model([(np.full((1, 2), -500.0), np.zeros(1))], ("sigmoid",), kind="encoder")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = encode(ae, np.ones((1, 2)))
        assert z.tolist() == [[0.0]]


class TestGradients:
    def test_classifier_backprop_matches_finite_differences(self):
        x, y = blob_data(n=20, d=6, classes=3, seed=1)
        model = train_classifier(x, y, (6, 5, 3), TrainConfig(epochs=1, batch_size=10))
        assert gradient_check(model, x, y) < 1e-4

    def test_autoencoder_backprop_matches_finite_differences(self):
        x, _ = blob_data(n=15, d=6, seed=2)
        model = whole_autoencoder(x, (6, 4, 2), TrainConfig(epochs=1, batch_size=5))
        assert gradient_check(model, x, x) < 1e-4

    def test_checks_the_backprop_that_sgd_runs(self, monkeypatch):
        calls = []
        backprop = neuralnet._backprop

        def recording(*args):
            calls.append(args[0])
            return backprop(*args)

        monkeypatch.setattr(neuralnet, "_backprop", recording)
        x, y = blob_data(n=20, d=6, classes=3, seed=1)
        model = train_classifier(x, y, (6, 5, 3), TrainConfig(epochs=1, batch_size=10))
        assert len(calls) == 2  # one call per batch
        assert gradient_check(model, x, y) < 1e-4
        assert len(calls) == 3

    def test_refuses_large_models(self):
        x, y = blob_data(d=18, classes=4)
        model = train_classifier(x, y, config=TrainConfig(epochs=0))
        with pytest.raises(ValueError, match="10"):
            gradient_check(model, x, y)


class TestTraining:
    def test_loss_decreases_on_separable_data(self):
        x, y = blob_data(n=200, d=6, classes=3, seed=3)
        cfg = TrainConfig(epochs=25, batch_size=16, seed=0)
        model = train_classifier(x, y, (6, 16, 3), cfg)
        assert len(model.loss_trace) == 25
        assert model.final_loss < initial_loss(train_classifier, x, y, (6, 16, 3), config=cfg) / 3
        labels, _ = predict_batch(model, x)
        assert np.mean(labels == y) > 0.9

    def test_autoencoder_reconstruction_improves(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, size=(150, 6))
        ae, cfg = (6, 8, 4), TrainConfig(epochs=30, batch_size=10, learning_rate=0.3)
        model = train_autoencoder(x, ae, cfg)
        assert model.final_loss < initial_loss(whole_autoencoder, x, ae, config=cfg)

    def test_same_seed_reproduces_bit_exactly(self):
        x, y = blob_data(d=18, classes=4)
        cfg = TrainConfig(epochs=3, batch_size=16, seed=12)
        a = train_classifier(x, y, (18, 8, 4), cfg)
        b = train_classifier(x, y, (18, 8, 4), cfg)
        assert model_to_dict(a) == model_to_dict(b)
        c = train_classifier(x, y, (18, 8, 4),
                             TrainConfig(epochs=3, batch_size=16, seed=13))
        assert model_to_dict(a) != model_to_dict(c)

    def test_divergence_raises_with_epoch_number(self):
        x, y = blob_data(d=6, classes=3)
        with pytest.raises(TrainingDivergedError, match="lower learning rate") as err:
            train_classifier(x, y, (6, 5, 3),
                             TrainConfig(learning_rate=1e12, epochs=5, batch_size=16))
        assert err.value.epoch >= 1

    def test_divergence_in_the_last_batch_is_caught(self):
        # one batch, one epoch: no batch loss sees the only update, so the
        # full-set pass after the last epoch is what catches it
        x, y = blob_data(d=6, classes=3)
        with pytest.raises(TrainingDivergedError) as err:
            train_classifier(x, y, (6, 5, 3),
                             TrainConfig(learning_rate=1e305, epochs=1, batch_size=len(x)))
        assert err.value.epoch == 1

    def test_one_batch_epoch_traces_the_initial_loss(self):
        # the batch loss is taken before the update, on every row
        x, y = blob_data(d=18, classes=4)
        cfg = TrainConfig(epochs=1, batch_size=len(x), seed=2)
        model = train_classifier(x, y, (18, 8, 4), cfg)
        assert model.loss_trace[0] == pytest.approx(
            initial_loss(train_classifier, x, y, (18, 8, 4), config=cfg), abs=1e-12)

    # sha256 of the weights and biases of the two fits below, recorded before
    # the trace came from batch losses: tracing must not move a weight bit.
    # Re-recorded once when the sigmoid moved from SciPy's expit to numpy's exp,
    # and once when an autoencoder fit began to return its encoder alone, to
    # the digest of the classifier and the first two autoencoder layers of a
    # fit that still returned the decoder: no weight bit moved
    # (digest with the decoder: 6b61be91b1fe9c652cbdd4833c60beb49c55476b58aa4c3f019069ac3e56ab1d).
    WEIGHTS_SHA256 = "9527349e815d0b0433c38cb6af3f2b05026b26ca12383e1f969da86ce4db9f1a"

    def test_weights_match_the_recorded_bytes(self):
        x, y = blob_data(d=18, classes=4)  # 120 rows: the last batch of 16 has 8
        clf = train_classifier(x, y, (18, 8, 4),
                               TrainConfig(epochs=3, batch_size=16, seed=21))
        ae = train_autoencoder(x, (18, 6, 3),
                               TrainConfig(epochs=2, batch_size=16, seed=4))
        digest = hashlib.sha256()
        for w, b in clf.layers + ae.layers:
            digest.update(w.tobytes())
            digest.update(b.tobytes())
        assert digest.hexdigest() == self.WEIGHTS_SHA256

    # sha256 of the weights and biases, the loss of the initial layers (the
    # `initial_loss` that model files once held) and the loss trace of the
    # default-shaped fits below. The lr-0.5 autoencoder was recorded before
    # one GEMM applied each weight update, and keeps its bytes: at a
    # power-of-two rate the GEMM's single rounding gives numpy's two. The
    # lr-0.01 autoencoder was re-recorded then: its 250x500 layers at batch 16
    # run OpenBLAS's large-matrix kernel, which rounds -lr * dW + W once
    # (digest before: 121970e14876c95606babf4280e219a9cc48694ac4a04a3e15c1c017992bc4ca).
    # Both autoencoders were re-recorded once when the sigmoid moved from
    # SciPy's expit to numpy's exp; their losses kept every digit. They were
    # re-recorded again when the fit began to return its encoder alone, each
    # to the digest of the first three layers of a fit that still returned
    # the decoder (with it: b32850d9... at lr 0.01, cc51ff68... at lr 0.5);
    # the initial loss is still that of the whole network.
    DEFAULT_SHAPE_FITS = {
        ("encoder", 0.01): ("2718bcee281771795bc466ea0555190bd212dc34739b5b4ac3afcf61f9fc1f1e",
                            14.378386242097086, (14.103537542716294,)),
        ("encoder", 0.5): ("3b626d45219f18a7c40291af21b097bcd47253196db6657e9a7acb78d6a95948",
                           14.378386242097086, (58.04014279225042,)),
        ("classifier", 0.01): ("e5b9f4274d7bde4efd446b499ba224f9f51472322b0eefb13007967508b46f01",
                               1.3269303342963668, (1.3011524818157592, 1.2341701055052086)),
    }

    def test_default_shapes_match_the_recorded_bytes(self):
        x, _ = blob_data(n=150, d=18, classes=4)  # the last batch of 16 has 6 rows
        fits = []
        for lr in (0.01, 0.5):
            cfg = TrainConfig(epochs=1, batch_size=16, seed=5, learning_rate=lr)
            fits.append((train_autoencoder(x, config=cfg),
                         initial_loss(whole_autoencoder, x, ENCODER_SIZES, config=cfg)))
        x, y = blob_data(n=300, d=18, classes=4, seed=1)  # the last batch of 64 has 44
        cfg = TrainConfig(epochs=2, batch_size=64, seed=6)
        fits.append((train_classifier(x, y, config=cfg),
                     initial_loss(train_classifier, x, y, CLASSIFIER_SIZES, config=cfg)))
        for model, loss in fits:
            digest = hashlib.sha256()
            for w, b in model.layers:
                digest.update(w.tobytes())
                digest.update(b.tobytes())
            key = (model.kind, model.config.learning_rate)
            assert (digest.hexdigest(), loss, model.loss_trace) == self.DEFAULT_SHAPE_FITS[key]

    def test_without_the_bundled_openblas_the_fit_keeps_its_bytes(self, monkeypatch):
        # the lookup also pins the thread count, so the outer block keeps
        # both fits on one thread while the inner one runs numpy's update
        x, _ = blob_data(n=150, d=18, classes=4)
        cfg = TrainConfig(epochs=1, batch_size=16, seed=5, learning_rate=0.5)
        fused = whole_autoencoder(x, ENCODER_SIZES, cfg)
        with neuralnet.single_blas_thread():
            monkeypatch.setattr(neuralnet, "_openblas", lambda: None)
            fallback = whole_autoencoder(x, ENCODER_SIZES, cfg)
        assert fallback.loss_trace == fused.loss_trace
        for a, b in zip(fallback.layers, fused.layers, strict=True):
            assert (a[0].tobytes(), a[1].tobytes()) == (b[0].tobytes(), b[1].tobytes())

    def test_the_encoder_is_the_first_layers_of_the_whole_fit(self):
        x, _ = blob_data(n=150, d=18, classes=4)
        cfg = TrainConfig(epochs=2, batch_size=16, seed=5, learning_rate=0.5)
        encoder, whole = train_autoencoder(x, config=cfg), whole_autoencoder(x, ENCODER_SIZES, cfg)
        assert (encoder.kind, encoder.layer_sizes) == ("encoder", (18, 500, 250, 100))
        assert encoder.activations == whole.activations[:3] == ("relu", "relu", "sigmoid")
        assert (encoder.config, encoder.loss_trace) == (cfg, whole.loss_trace)
        for a, b in zip(encoder.layers, whole.layers[:3], strict=True):
            assert (a[0].tobytes(), a[1].tobytes()) == (b[0].tobytes(), b[1].tobytes())

    def test_divergence_error_survives_pickling(self):
        err = pickle.loads(pickle.dumps(TrainingDivergedError(7, "classifier")))
        assert isinstance(err, TrainingDivergedError)
        assert (err.epoch, err.kind) == (7, "classifier")
        assert str(err) == str(TrainingDivergedError(7, "classifier"))

    def test_batch_size_larger_than_data_rejected(self):
        x, y = blob_data(n=10, d=6, classes=3)
        with pytest.raises(ValueError, match="batch_size"):
            train_classifier(x, y, (6, 5, 3), TrainConfig(batch_size=11))

    def test_label_out_of_range_rejected(self):
        x, _ = blob_data(n=10, d=6)
        with pytest.raises(ValueError, match="labels"):
            train_classifier(x, np.full(10, 7), (6, 5, 3), TrainConfig(epochs=0))


class TestDescend:
    """`_descend` applies a large layer's SGD step in one GEMM; numpy's form
    `dw = dz.T @ a; dw *= lr; w -= dw` is the reference."""

    # the nine layer shapes of the default autoencoder and classifier: the
    # four with 25,000 weights or more take the GEMM, the others numpy's step
    SHAPES = ((500, 18), (250, 500), (100, 250), (250, 100), (500, 250), (18, 500),
              (100, 18), (100, 100), (4, 100))

    @staticmethod
    def steps(lr):
        rng = np.random.default_rng(int(lr * 100))
        for out_dim, in_dim in TestDescend.SHAPES:
            for n in range(1, 130):
                w = rng.uniform(-1, 1, size=(out_dim, in_dim)) / math.sqrt(in_dim)
                dz = rng.normal(0, 1e-3, size=(n, out_dim))
                a = rng.uniform(0, 1, size=(n, in_dim))
                with neuralnet.single_blas_thread():
                    dw = dz.T @ a
                    dw *= lr
                    reference = w - dw
                    neuralnet._descend(w, lr, dz, a)
                yield w, reference, dw

    def test_a_power_of_two_rate_gives_numpys_bits(self):
        for got, reference, _ in self.steps(0.5):
            assert np.array_equal(got, reference)

    def test_another_rate_is_within_one_spacing(self):
        # numpy rounds lr * dw and then w - lr * dw; a large-matrix kernel
        # rounds once, so the two differ by under one spacing of the larger
        # of the step and the result
        for got, reference, dw in self.steps(0.01):
            assert np.all(np.abs(got - reference) <= np.spacing(np.maximum(np.abs(reference), np.abs(dw))))

    def test_refuses_arrays_the_gemm_cannot_take(self):
        if neuralnet._openblas() is None:
            pytest.skip("numpy's bundled OpenBLAS is absent")
        rng = np.random.default_rng(0)
        w, dz, a = rng.normal(size=(250, 100)), rng.normal(size=(2, 250)), rng.normal(size=(2, 100))
        with pytest.raises(ValueError, match="C-contiguous"):
            neuralnet._descend(np.zeros((100, 250)).T, 0.5, dz, a)
        with pytest.raises(ValueError, match="do not fit"):
            neuralnet._descend(w, 0.5, dz, np.zeros((2, 101)))
        # gradients and rows in another layout are copied, not misread
        got = w.copy()
        neuralnet._descend(got, 0.5, np.asfortranarray(dz), np.asfortranarray(a))
        neuralnet._descend(w, 0.5, dz, a)
        assert np.array_equal(got, w)


class TestFiniteBound:
    """After the last epoch a fit proves the loss finite from its weights
    (`_bounded`), and runs a full-set pass only when that proof fails."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_proven_loss_is_finite(self, data):
        d, hidden, out = (data.draw(st.integers(1, 5)) for _ in range(3))
        if data.draw(st.booleans()):
            sizes, activations, kind = (d, hidden, out + 1), ("relu", "softmax"), "classifier"
        else:
            sizes, activations, kind = (d, hidden, out, hidden, d), ("relu", "sigmoid", "relu", "linear"), "autoencoder"
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = st.integers(-5, 160).map(lambda k: 10.0**k)
        layers = [
            (rng.uniform(-1, 1, (fan_out, fan_in)) * data.draw(scale),
             rng.uniform(-1, 1, fan_out) * data.draw(scale))
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
        ]
        x = rng.uniform(-1, 1, (data.draw(st.integers(1, 8)), d)) * data.draw(scale)
        targets = rng.integers(0, sizes[-1], size=len(x)) if kind == "classifier" else x
        with np.errstate(all="ignore"):
            if neuralnet._bounded(layers, activations, x, targets):
                assert np.isfinite(neuralnet._loss(layers, activations, x, targets))

    @staticmethod
    def sigmoid_after_an_overflow():
        # the second layer overflows and the sigmoid layer's zero weights make
        # 0 * inf = NaN, which the sigmoid keeps: its output bound of 1 needs
        # every value before it proven finite
        return ([(np.full((2, 2), 1e200), np.zeros(2)), (np.full((2, 2), 1e200), np.zeros(2)),
                 (np.zeros((1, 2)), np.zeros(1)), (np.ones((2, 1)), np.zeros(2))],
                ("relu", "relu", "sigmoid", "linear"), np.ones((1, 2)))

    @staticmethod
    def a_bias_alone():
        return ([(np.zeros((1, 2)), np.zeros(1)), (np.zeros((2, 1)), np.full(2, 1e160))],
                ("sigmoid", "linear"), np.ones((3, 2)))

    @staticmethod
    def targets_alone():
        # every output is 0, but its distance from a target of 1e160 squares to inf
        return ([(np.zeros((1, 2)), np.zeros(1)), (np.zeros((2, 1)), np.zeros(2))],
                ("sigmoid", "linear"), np.full((3, 2), 1e160))

    @pytest.mark.parametrize("case", ["sigmoid_after_an_overflow", "a_bias_alone", "targets_alone"])
    def test_an_overflowing_loss_is_not_proven(self, case):
        params, activations, x = getattr(self, case)()
        layers = [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64)) for w, b in params]
        assert not neuralnet._bounded(layers, activations, x, x)
        with np.errstate(all="ignore"):
            assert not np.isfinite(neuralnet._loss(layers, activations, x, x))

    def test_fits_at_the_default_shapes_run_no_full_set_pass(self, monkeypatch):
        monkeypatch.setattr(neuralnet, "_loss", lambda *args: pytest.fail("a full-set pass ran"))
        x, y = blob_data(n=150, d=18, classes=4)
        train_classifier(x, y, config=TrainConfig(epochs=2, batch_size=16))
        train_autoencoder(x, config=TrainConfig(epochs=2, batch_size=16, learning_rate=0.5))

    def test_finite_weights_that_overflow_the_forward_pass_are_caught(self, monkeypatch):
        # one batch, so no batch loss sees the update; it leaves every weight
        # finite, but their products overflow: the bound cannot prove the
        # loss finite, and the full-set pass finds it is not
        passes = []
        loss = neuralnet._loss

        def recording(layers, *args):
            finite = all(np.isfinite(w).all() and np.isfinite(b).all() for w, b in layers)
            passes.append((finite, loss(layers, *args)))
            return passes[-1][1]

        monkeypatch.setattr(neuralnet, "_loss", recording)
        x, y = blob_data(d=6, classes=3)
        cfg = TrainConfig(learning_rate=1e200, epochs=1, batch_size=len(x))
        with pytest.raises(TrainingDivergedError) as err:
            train_classifier(x, y, (6, 5, 3), cfg)
        assert err.value.epoch == cfg.epochs
        assert len(passes) == 1
        finite_weights, value = passes[0]
        assert finite_weights and not np.isfinite(value)


# trains one classifier large enough for OpenBLAS to split its products
# across threads, and prints the model's sha256
FIT_SCRIPT = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from carechoice.neuralnet import TrainConfig, model_to_dict, train_classifier
rng = np.random.default_rng(0)
x, y = rng.normal(size=(2000, 18)), rng.integers(0, 4, size=2000)
model = train_classifier(x, y, (18, 100, 100, 4), TrainConfig(epochs=2, seed=3))
print(hashlib.sha256(json.dumps(model_to_dict(model)).encode()).hexdigest())
"""


@pytest.mark.skipif(blas_threads() is None, reason="numpy's bundled OpenBLAS is absent")
class TestBlasThreads:
    def test_fit_runs_on_one_thread_and_restores_the_count(self, monkeypatch):
        seen = []
        backprop = neuralnet._backprop

        def recording(*args):
            seen.append(blas_threads())
            return backprop(*args)

        monkeypatch.setattr(neuralnet, "_backprop", recording)
        before = blas_threads()
        x, y = blob_data(d=6, classes=3)
        train_classifier(x, y, (6, 5, 3), TrainConfig(epochs=2, batch_size=16))
        assert seen and set(seen) == {1}
        assert blas_threads() == before

    def test_count_is_restored_when_the_fit_diverges(self):
        before = blas_threads()
        x, y = blob_data(d=6, classes=3)
        with pytest.raises(TrainingDivergedError):
            train_classifier(x, y, (6, 5, 3),
                             TrainConfig(learning_rate=1e12, epochs=5, batch_size=16))
        assert blas_threads() == before

    def test_same_model_bytes_under_any_openblas_thread_count(self):
        src = str(Path(neuralnet.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", FIT_SCRIPT, src],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, timeout=120, check=True,
            )
            digests.add(proc.stdout.strip())
        assert len(digests) == 1


class TestPrediction:
    def test_tied_probabilities_pick_smallest_class(self):
        model = manual_model([(np.zeros((4, 18)), np.zeros(4))], ("softmax",))
        labels, probs = predict_batch(model, np.zeros((1, 18)))
        assert HospitalLevel(int(labels[0])) is HospitalLevel.MEDICAL_CENTER
        assert probs[0] == pytest.approx([0.25] * 4)

    def test_latent_classifier_needs_the_autoencoder(self):
        x, y = blob_data(n=40, d=18, classes=4)
        ae = train_autoencoder(x, (18, 6, 3),
                               TrainConfig(epochs=1, batch_size=8))
        z = encode(ae, x)
        clf = train_classifier(z, y, (3, 5, 4), TrainConfig(epochs=1, batch_size=8))
        labels, probs = predict_batch(clf, x, ae=ae)
        assert labels.shape == (40,) and probs.shape == (40, 4)
        with pytest.raises(ValueError, match="width"):
            predict_batch(clf, x)  # raw 18-wide rows cannot feed the 3-wide classifier


class TestTrainedModel:
    """A model's layers are (weights, biases) pairs of finite float64
    arrays of the shapes its `layer_sizes` give."""

    # a (2, 3, 2) classifier
    LAYERS = ((np.zeros((3, 2)), np.zeros(3)), (np.zeros((2, 3)), np.zeros(2)))

    @classmethod
    def model(cls, layers):
        return TrainedModel("classifier", (2, 3, 2), ("relu", "softmax"), layers, TrainConfig(), ())

    def test_layers_become_float64_arrays(self):
        model = self.model((([[0, 1]] * 3, [0] * 3), self.LAYERS[1]))
        assert [(w.dtype, b.dtype) for w, b in model.layers] == [(np.float64, np.float64)] * 2

    @pytest.mark.parametrize("first, match", [
        ((np.zeros((2, 3)), np.zeros(3)), "shapes"),  # weights transposed
        ((np.zeros((3, 2)), np.zeros(2)), "shapes"),  # a bias short
        ((np.zeros((3, 2)), np.zeros((3, 1))), "shapes"),  # biases a column
        ((np.zeros(6), np.zeros(3)), "shapes"),  # weights flat
        ((np.full((3, 2), np.nan), np.zeros(3)), "non-finite"),
        ((np.zeros((3, 2)), np.array([0.0, np.inf, 0.0])), "non-finite"),
    ], ids=["transposed", "bias_short", "bias_column", "weights_flat", "nan_weight", "inf_bias"])
    def test_refuses_a_misshapen_or_non_finite_layer(self, first, match):
        with pytest.raises(ValueError, match=match):
            self.model((first, self.LAYERS[1]))

    def test_refuses_a_missing_layer(self):
        with pytest.raises(ValueError, match="layer count"):
            self.model(self.LAYERS[:1])

    @pytest.mark.parametrize("edit", [
        lambda d: d["layers"][0].update(weights=neuralnet._encode(np.full((3, 2), np.nan))),
        lambda d: d["layers"][1].update(biases=neuralnet._encode(np.array([np.inf, 0.0]))),
        lambda d: d["layers"][0].update(weights=neuralnet._encode(np.zeros((2, 2)))),
        lambda d: d["layers"].pop(),
        lambda d: d.update(layer_sizes=[2, 4, 2]),
    ], ids=["nan_weight", "inf_bias", "weights_short", "layer_dropped", "sizes_widened"])
    def test_model_from_dict_refuses_a_bad_layer(self, edit):
        d = json.loads(json.dumps(model_to_dict(self.model(self.LAYERS))))
        model_from_dict(d)
        edit(d)
        with pytest.raises(ValueError):
            model_from_dict(d)


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        x, y = blob_data(d=18, classes=4)
        model = train_classifier(x, y, (18, 8, 4),
                                 TrainConfig(epochs=2, batch_size=16))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(model)))
        assert model_to_dict(load_model(path)) == model_to_dict(model)

    def test_autoencoder_round_trip(self, tmp_path):
        x, _ = blob_data(d=18)
        model = train_autoencoder(x, (18, 6, 3),
                                  TrainConfig(epochs=1, batch_size=16))
        (tmp_path / "ae.json").write_text(json.dumps(model_to_dict(model)))
        loaded = load_model(tmp_path / "ae.json")
        assert model_to_dict(loaded) == model_to_dict(model)
        assert (loaded.kind, loaded.layer_sizes) == ("encoder", (18, 6, 3))

    def test_encode_gives_the_same_bits_on_the_loaded_file(self, tmp_path):
        x, _ = blob_data(d=18)
        model = train_autoencoder(x, config=TrainConfig(epochs=1, batch_size=16, learning_rate=0.5))
        (tmp_path / "ae.json").write_text(json.dumps(model_to_dict(model)))
        assert encode(load_model(tmp_path / "ae.json"), x).tobytes() == encode(model, x).tobytes()

    # -0.0, the smallest subnormal, a larger subnormal, the largest finite
    # magnitudes and a double with no short decimal form
    EDGE_DOUBLES = [-0.0, 5e-324, -5e-324, 1.5e-310, 1.7976931348623157e308,
                    -1.7976931348623157e308, 0.1 + 0.2, math.pi]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_finite_weights_survive_json_bit_for_bit(self, data):
        doubles = st.floats(allow_nan=False, allow_infinity=False)
        sizes = [len(self.EDGE_DOUBLES), *data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))]
        params = [
            (data.draw(arrays(np.float64, (fan_out, fan_in), elements=doubles)),
             data.draw(arrays(np.float64, (fan_out,), elements=doubles)))
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
        ]
        params[0][0][0] = self.EDGE_DOUBLES
        model = manual_model(params, ("relu",) * (len(params) - 1) + ("softmax",))
        loaded = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        for before, after in zip(model.layers, loaded.layers, strict=True):
            assert after[0].tobytes() == before[0].tobytes()
            assert after[1].tobytes() == before[1].tobytes()

    # sha256 of the model_to_dict JSON of the two fits of
    # test_weights_match_the_recorded_bytes: pins the byte order, the base64
    # alphabet and the key order of the model files; re-recorded for format 4,
    # whose JSON is format 3's with `initial_loss` deleted, again when the
    # sigmoid moved from SciPy's expit to numpy's exp, and for format 5, which
    # drops `n_encoder_layers` and keeps only an autoencoder's encoder
    # (format 4: 353f3cea80a83d0bc25606e6a9ee905989abc2fc34ac90880d311f5ab15e8437)
    MODEL_JSON_SHA256 = "61ef6fbc15bb6e44f7dfd2169acdea0628475728e2e4b2e3bd0824349e772093"

    def test_model_json_matches_the_recorded_bytes(self):
        x, y = blob_data(d=18, classes=4)
        clf = train_classifier(x, y, (18, 8, 4),
                               TrainConfig(epochs=3, batch_size=16, seed=21))
        ae = train_autoencoder(x, (18, 6, 3),
                               TrainConfig(epochs=2, batch_size=16, seed=4))
        text = json.dumps([model_to_dict(clf), model_to_dict(ae)])
        assert hashlib.sha256(text.encode()).hexdigest() == self.MODEL_JSON_SHA256

    @pytest.mark.parametrize("fit, activations", [
        (lambda x, y: train_classifier(x, y, (18, 8, 4), TrainConfig(epochs=0)), ["sigmoid", "softmax"]),
        (lambda x, y: train_autoencoder(x, (18, 6, 3), TrainConfig(epochs=0)), ["sigmoid", "sigmoid"]),
    ], ids=["classifier", "encoder"])
    def test_activations_other_than_the_kinds_rejected(self, fit, activations):
        x, y = blob_data(d=18, classes=4)
        d = model_to_dict(fit(x, y))
        model_from_dict(d)
        d["activations"] = activations
        with pytest.raises(ValueError, match="has activations"):
            model_from_dict(d)

    def test_unknown_format_version_rejected(self):
        x, y = blob_data(d=18, classes=4)
        model = train_classifier(x, y, (18, 8, 4), TrainConfig(epochs=0))
        d = model_to_dict(model)
        d["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            model_from_dict(d)

    def test_extra_keys_are_ignored(self):
        x, y = blob_data(d=18, classes=4)
        model = train_classifier(x, y, (18, 8, 4), TrainConfig(epochs=0))
        d = model_to_dict(model)
        d["config_hash"] = "abc"
        assert model_to_dict(model_from_dict(d)) == model_to_dict(model)

    def test_parameter_count(self):
        x, y = blob_data(d=18, classes=4)
        model = train_classifier(x, y, (18, 8, 4), TrainConfig(epochs=0))
        assert n_parameters(model) == 18 * 8 + 8 + 8 * 4 + 4
