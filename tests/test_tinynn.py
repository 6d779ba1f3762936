import math

import numpy as np
import pytest

from reference import reference_forward, reference_loss_and_grads, reference_train
from valvehealth import models
from valvehealth.errors import (ModelFormatError, ParameterError, ShapeError,
                                TrainingDivergedError)
from valvehealth.tinynn import (Activation, LayerSpec, Loss, Mlp, ModelKind,
                                TrainConfig, _activate, _loss_and_grads, _scale,
                                _softmax, batch_loss, cce_loss, deserialize, infer,
                                mae_loss, new_mlp, parameter_counts, restore,
                                rmsprop_step, save, serialize, train)


def small_net(seed=0, loss=Loss.CATEGORICAL_CROSS_ENTROPY):
    """A classifier for the CCE loss, a regressor for MAE (``train`` picks
    the loss from the model kind)."""
    if loss is Loss.CATEGORICAL_CROSS_ENTROPY:
        specs = [LayerSpec(2, 16, Activation.LEAKY_RELU),
                 LayerSpec(16, 4, Activation.SOFTMAX)]
        return new_mlp(specs, seed=seed, kind=ModelKind.CLASSIFIER)
    specs = [LayerSpec(2, 16, Activation.RELU),
             LayerSpec(16, 1, Activation.LINEAR)]
    return new_mlp(specs, seed=seed, kind=ModelKind.REGRESSOR)


def random_batch(model, loss, seed, size=8):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (size, model.in_dim))
    if loss is Loss.CATEGORICAL_CROSS_ENTROPY:
        y = np.zeros((size, model.out_dim))
        y[np.arange(size), rng.integers(model.out_dim, size=size)] = 1.0
    else:
        y = rng.normal(0.0, 1.0, (size, model.out_dim))
    return x, y


def _smooth_at(model, x, y, loss, margin=1e-3):
    """True when the loss is differentiable in a ``margin`` box around the
    current parameters: no ReLU/LeakyReLU pre-activation and no MAE residual
    sits at a kink a +-h parameter nudge could cross."""
    zs, acts = reference_forward(model, x)
    for spec, z in zip(model.layers, zs):
        if spec.activation in (Activation.RELU, Activation.LEAKY_RELU):
            if np.abs(z).min() < margin:
                return False
    if loss is Loss.MEAN_ABSOLUTE_ERROR and np.abs(acts[-1] - y).min() < margin:
        return False
    return True


def random_smooth_batch(model, loss, seed, size=8):
    """A random batch at which finite differences are valid (kink-free)."""
    for trial in range(100):
        x, y = random_batch(model, loss, seed + 7919 * trial, size=size)
        if _smooth_at(model, x, y, loss):
            return x, y
    raise RuntimeError("no kink-free batch found")


def finite_difference_check(model, loss, seed, h=1e-5, tol=1e-4, atol=1e-9):
    """Central-difference check of every parameter gradient.

    ``atol`` absorbs the estimator's own float64 rounding noise
    (~eps * |loss| / 2h ~ 1e-11) on parameters whose true gradient is
    exactly zero, e.g. behind an inactive ReLU unit; any trainable
    gradient is orders of magnitude above it. Batches are drawn away from
    MAE/ReLU kinks, where finite differences are meaningless. ``loss``
    must be the one the model's kind picks, as ``batch_loss`` uses that.
    """
    x, y = random_smooth_batch(model, loss, seed)
    _, grads = _loss_and_grads(model, _scale(model, x), y, loss)
    for li in range(len(model.layers)):
        for arr, g in ((model.weights[li], grads[li][0]),
                       (model.biases[li], grads[li][1])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = batch_loss(model, x, y)
                arr[idx] = orig - h
                down = batch_loss(model, x, y)
                arr[idx] = orig
                fd = (up - down) / (2 * h)
                diff = abs(fd - g[idx])
                rel = diff / max(abs(fd), abs(g[idx]), 1e-8)
                assert rel < tol or diff < atol, (li, idx, fd, g[idx])


class TestActivations:
    def test_leaky_relu_values(self):
        spec = LayerSpec(1, 1, Activation.LEAKY_RELU, alpha=0.01)
        out = _activate(spec, np.array([1.0, 0.0, -1.0]))
        assert out[0] == 1.0
        assert out[1] == 0.0
        assert out[2] == pytest.approx(-0.01)

    def test_softmax_uniform(self):
        assert np.allclose(_softmax(np.zeros(4)), [0.25] * 4)

    def test_softmax_shift_invariant_under_overflow(self):
        out = _softmax(np.array([1000.0, 1000.0]))
        assert np.allclose(out, [0.5, 0.5])
        v = np.array([0.3, -1.2, 2.7])
        assert np.allclose(_softmax(v), _softmax(v + 123.456), atol=1e-12)

    def test_softmax_closed_form(self):
        out = _softmax(np.array([math.log(1.0), math.log(3.0)]))
        assert np.allclose(out, [0.25, 0.75])

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            out = _softmax(rng.normal(0, 5, rng.integers(2, 10)))
            assert abs(out.sum() - 1.0) < 1e-9
            assert np.all(out > 0)


class TestLosses:
    def test_cce_perfect_prediction(self):
        assert cce_loss([1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_cce_closed_forms(self):
        assert cce_loss([1, 0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-9)
        assert cce_loss([0, 1], [0.9, 0.1]) == pytest.approx(-math.log(0.1), abs=1e-9)

    def test_cce_batch_mean(self):
        y = [[1, 0], [0, 1]]
        p = [[0.5, 0.5], [0.5, 0.5]]
        assert cce_loss(y, p) == pytest.approx(math.log(2), abs=1e-9)

    def test_cce_shape_error(self):
        with pytest.raises(ShapeError):
            cce_loss([1, 0], [1, 0, 0])

    def test_cce_clamping_keeps_loss_finite(self):
        assert math.isfinite(cce_loss([1.0, 0.0], [0.0, 1.0]))

    def test_mae_values(self):
        assert mae_loss([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mae_loss([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.5)
        assert mae_loss([5.0], [0.0]) == 5.0

    def test_mae_empty_rejected(self):
        with pytest.raises(ParameterError):
            mae_loss([], [])


class TestInfer:
    def test_identity_linear_layer(self):
        m = Mlp([LayerSpec(3, 3, Activation.LINEAR)], [np.eye(3)], [np.zeros(3)],
                np.zeros(3), np.ones(3))
        x = np.array([1.5, -2.0, 0.25])
        assert np.array_equal(infer(m, x), x)

    def test_affine_example(self):
        m = Mlp([LayerSpec(2, 1, Activation.LINEAR)], [np.array([[1.0, 2.0]])],
                [np.array([0.5])], np.zeros(2), np.ones(2))
        assert infer(m, np.array([3.0, 4.0]))[0] == pytest.approx(11.5)

    def test_softmax_output_sums_to_one(self):
        m = new_mlp([LayerSpec(2, 8, Activation.LEAKY_RELU),
                     LayerSpec(8, 4, Activation.SOFTMAX)], seed=3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = infer(m, rng.normal(0, 3, 2))
            assert abs(out.sum() - 1.0) < 1e-9

    def test_shape_and_finiteness_errors(self):
        m = small_net()
        with pytest.raises(ShapeError):
            infer(m, np.zeros(3))
        with pytest.raises(ParameterError):
            infer(m, np.array([1.0, float("nan")]))

    def test_scaler_invariance_of_outputs(self):
        # scaling a feature and its stored scaler jointly is a no-op
        m = small_net(seed=5)
        m.scaler_mean = np.array([1.0, -2.0])
        m.scaler_std = np.array([3.0, 0.5])
        x = np.array([0.7, 1.9])
        base = infer(m, x)
        scaled = Mlp(m.layers, [w.copy() for w in m.weights],
                     [b.copy() for b in m.biases],
                     m.scaler_mean * 10.0, m.scaler_std * 10.0, m.kind)
        out = infer(scaled, (x - m.scaler_mean) * 10.0 + m.scaler_mean * 10.0)
        assert np.allclose(out, base, atol=1e-9)

    def test_batch_matches_single(self):
        m = small_net(seed=7)
        rng = np.random.default_rng(1)
        xs = rng.normal(0, 1, (5, 2))
        batched = infer(m, xs)
        for i in range(5):
            assert np.allclose(batched[i], infer(m, xs[i]), atol=1e-12)


class TestGradients:
    def test_zero_weight_linear_mae_zero_targets(self):
        m = Mlp([LayerSpec(2, 1, Activation.LINEAR)], [np.zeros((1, 2))],
                [np.zeros(1)], np.zeros(2), np.ones(2))
        x = np.array([[1.0, 2.0], [3.0, -1.0]])
        y = np.zeros((2, 1))
        _, grads = _loss_and_grads(m, _scale(m, x), y, Loss.MEAN_ABSOLUTE_ERROR)
        assert np.all(grads[0][0] == 0.0)  # sign(0) = 0 convention
        assert np.all(grads[0][1] == 0.0)

    def test_softmax_cce_logit_gradient_closed_form(self):
        m = Mlp([LayerSpec(3, 4, Activation.SOFTMAX)],
                [np.random.default_rng(0).normal(0, 0.5, (4, 3))],
                [np.zeros(4)], np.zeros(3), np.ones(3))
        x, y = random_batch(m, Loss.CATEGORICAL_CROSS_ENTROPY, seed=2, size=6)
        _, grads = _loss_and_grads(m, _scale(m, x), y, Loss.CATEGORICAL_CROSS_ENTROPY)
        y_hat = infer(m, x)
        dz = (y_hat - y) / x.shape[0]
        assert np.allclose(grads[0][0], dz.T @ x, atol=1e-9)
        assert np.allclose(grads[0][1], dz.sum(axis=0), atol=1e-9)

    def test_finite_differences_random_nets(self):
        for seed in range(6):
            loss = Loss.CATEGORICAL_CROSS_ENTROPY if seed % 2 else Loss.MEAN_ABSOLUTE_ERROR
            finite_difference_check(small_net(seed=seed, loss=loss), loss, seed)


class TestRmsprop:
    def test_zero_gradient_keeps_params(self):
        p = np.array([1.0, -2.0])
        new_p, _ = rmsprop_step(p, np.zeros(2), np.zeros(2), 1e-3)
        assert np.array_equal(new_p, p)

    def test_single_step_arithmetic(self):
        # rho 0.9 and epsilon 1e-7, the Keras RMSprop defaults
        new_p, new_v = rmsprop_step(np.array([0.0]), np.array([1.0]), np.array([0.0]), 1e-3)
        assert new_v[0] == pytest.approx(0.1, abs=1e-15)
        assert new_p[0] == pytest.approx(-1e-3 / (math.sqrt(0.1) + 1e-7), abs=1e-12)

    def test_repeated_steps_shrink(self):
        p, v = np.array([0.0]), np.array([0.0])
        p1, v = rmsprop_step(p, np.array([1.0]), v, 1e-3)
        p2, v = rmsprop_step(p1, np.array([1.0]), v, 1e-3)
        first = abs(p1[0] - 0.0)
        second = abs(p2[0] - p1[0])
        assert second < first  # accumulated v grows


class TestTrain:
    def test_xor_reaches_full_accuracy(self):
        rng = np.random.default_rng(0)
        base = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        x = np.repeat(base, 10, axis=0) + rng.normal(0, 0.05, (40, 2))
        labels = np.array([int(round(a)) ^ int(round(b)) for a, b in x])
        y = np.zeros((40, 2))
        y[np.arange(40), labels] = 1.0
        m = new_mlp([LayerSpec(2, 8, Activation.LEAKY_RELU),
                     LayerSpec(8, 2, Activation.SOFTMAX)], seed=1)
        cfg = TrainConfig(epochs=200, batch_size=4, learning_rate=5e-3, seed=1)
        history = train(m, (x, y), (x, y), cfg)
        assert len(history.train_loss) == len(history.val_loss) == 200
        assert (infer(m, x).argmax(axis=1) == labels).all()
        assert history.train_loss[-1] < history.train_loss[0]

    def test_zero_epochs_forbidden(self):
        with pytest.raises(ParameterError):
            TrainConfig(epochs=0)

    def test_deterministic_history(self):
        x, y = random_batch(small_net(), Loss.CATEGORICAL_CROSS_ENTROPY, seed=4,
                            size=30)
        hists = []
        for _ in range(2):
            m = small_net(seed=2)
            cfg = TrainConfig(epochs=5, batch_size=5, seed=9)
            hists.append(train(m, (x, y), (x, y), cfg))
        assert hists[0].train_loss == hists[1].train_loss
        assert hists[0].val_loss == hists[1].val_loss

    def test_divergence_reports_epoch(self):
        # a NaN feature (sensor glitch) poisons the scaler and the loss
        m = small_net(seed=0)
        x, y = random_batch(m, Loss.CATEGORICAL_CROSS_ENTROPY, seed=0, size=20)
        x[0, 0] = float("nan")
        with pytest.raises(TrainingDivergedError) as err:
            train(m, (x, y), (x, y), TrainConfig(epochs=10, batch_size=5))
        assert err.value.epoch == 1

    def test_constant_feature_rejected(self):
        m = small_net()
        x = np.zeros((10, 2))
        y = np.zeros((10, 4))
        y[:, 0] = 1
        with pytest.raises(ParameterError):
            train(m, (x, y), (x, y), TrainConfig(epochs=1))

    def test_epoch_wall_time_recorded(self):
        m = small_net(seed=1)
        x, y = random_batch(m, Loss.CATEGORICAL_CROSS_ENTROPY, seed=3, size=20)
        history = train(m, (x, y), (x, y), TrainConfig(epochs=4, batch_size=5))
        assert len(history.epoch_s) == 4
        assert all(isinstance(t, float) and t > 0 for t in history.epoch_s)

    @pytest.mark.parametrize("case", ["short_train_targets", "wide_train_targets",
                                      "short_val_targets", "val_feature_width"])
    def test_mismatched_sets_rejected_before_training(self, case):
        m = small_net(seed=0)
        x, y = random_batch(m, Loss.CATEGORICAL_CROSS_ENTROPY, seed=1, size=50)
        xv, yv = x[:10], y[:10]
        if case == "short_train_targets":
            y = y[:47]
        elif case == "wide_train_targets":
            y = np.hstack([y, y])
        elif case == "short_val_targets":
            yv = yv[:9]
        else:
            xv = np.hstack([xv, xv])
        before = [w.copy() for w in m.weights]
        with pytest.raises(ShapeError):
            train(m, (x, y), (xv, yv), TrainConfig(epochs=3, batch_size=5))
        assert all(np.array_equal(a, b) for a, b in zip(before, m.weights))

    @pytest.mark.parametrize("kind, loss_fn", [(ModelKind.CLASSIFIER, cce_loss),
                                               (ModelKind.REGRESSOR, mae_loss)])
    def test_loss_follows_model_kind(self, kind, loss_fn):
        # checked against the loss functions themselves: the oracle cases
        # derive the loss from the kind as train does, so they miss a swap
        loss = (Loss.CATEGORICAL_CROSS_ENTROPY if kind is ModelKind.CLASSIFIER
                else Loss.MEAN_ABSOLUTE_ERROR)
        m = small_net(seed=6, loss=loss)
        assert m.kind is kind
        x, y = random_batch(m, loss, seed=7, size=20)
        xv, yv = random_batch(m, loss, seed=8, size=9)
        history = train(m, (x, y), (xv, yv), TrainConfig(epochs=2, batch_size=5))
        assert history.val_loss[-1] == loss_fn(yv, infer(m, xv))

    def test_parameters_stay_on_f32_grid(self):
        m = small_net(seed=3)
        x, y = random_batch(m, Loss.CATEGORICAL_CROSS_ENTROPY, seed=5, size=20)
        train(m, (x, y), (x, y), TrainConfig(epochs=3, batch_size=5))
        for w in m.weights + m.biases:
            assert np.array_equal(w, w.astype(np.float32).astype(np.float64))


ORACLE_CASES = {
    # name: (model builder, loss, rows, batch_size, train calls)
    "cce": (small_net, Loss.CATEGORICAL_CROSS_ENTROPY, 30, 10, 1),
    "mae": (small_net, Loss.MEAN_ABSOLUTE_ERROR, 30, 10, 1),
    "ragged_last_batch": (small_net, Loss.CATEGORICAL_CROSS_ENTROPY, 23, 10, 1),
    "batch_size_1": (small_net, Loss.MEAN_ABSOLUTE_ERROR, 12, 1, 1),
    "batch_larger_than_n": (small_net, Loss.CATEGORICAL_CROSS_ENTROPY, 7, 10, 1),
    "trained_twice": (small_net, Loss.CATEGORICAL_CROSS_ENTROPY, 23, 5, 2),
    "fault_model": (lambda seed, loss: models.build_fault_model(seed),
                    Loss.CATEGORICAL_CROSS_ENTROPY, 40, 10, 1),
    "rul_model": (lambda seed, loss: models.build_rul_model(seed),
                  Loss.MEAN_ABSOLUTE_ERROR, 40, 10, 1),
}


class TestTrainMatchesReference:
    """The flat-buffer training loop against the per-array oracle."""

    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_bit_identical(self, name):
        build, loss, rows, batch_size, calls = ORACLE_CASES[name]
        fast, slow = build(seed=4, loss=loss), build(seed=4, loss=loss)
        for call in range(calls):
            train_set = random_batch(fast, loss, seed=10 + call, size=rows)
            val_set = random_batch(fast, loss, seed=20 + call, size=9)
            cfg = TrainConfig(epochs=3, batch_size=batch_size, seed=call)
            history = train(fast, train_set, val_set, cfg)
            train_loss, val_loss = reference_train(slow, train_set, val_set, cfg)
            assert history.train_loss == train_loss
            assert history.val_loss == val_loss
        for a, b in zip(fast.weights + fast.biases, slow.weights + slow.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(fast.scaler_mean, slow.scaler_mean)
        assert np.array_equal(fast.scaler_std, slow.scaler_std)

    @pytest.mark.parametrize("name", ["cce", "mae", "fault_model", "rul_model"])
    def test_gradients_bit_identical(self, name):
        # the float32 snap hides last-bit gradient differences from the
        # trained weights, so the gradients are compared on their own
        build, loss, rows, _, _ = ORACLE_CASES[name]
        m = build(seed=5, loss=loss)
        m.scaler_mean = np.array([0.3, -1.0])
        m.scaler_std = np.array([1.7, 0.6])
        x, y = random_batch(m, loss, seed=6, size=rows)
        _, grads = _loss_and_grads(m, _scale(m, x), y, loss)
        _, expected = reference_loss_and_grads(m, x, y, loss)
        for (dw, db), (ew, eb) in zip(grads, expected):
            assert np.array_equal(dw, ew) and np.array_equal(db, eb)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        m = small_net(seed=11)
        x, y = random_batch(m, Loss.CATEGORICAL_CROSS_ENTROPY, seed=6, size=30)
        train(m, (x, y), (x, y), TrainConfig(epochs=2, batch_size=5))
        m2 = deserialize(serialize(m))
        assert m2.kind == m.kind
        assert m2.layers == m.layers
        for a, b in zip(m.weights + m.biases, m2.weights + m2.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(m2.scaler_mean, m.scaler_mean)
        assert np.array_equal(m2.scaler_std, m.scaler_std)

    def test_round_trip_identical_inference(self):
        m = small_net(seed=12)
        m2 = deserialize(serialize(m))
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.normal(0, 2, 2)
            assert np.array_equal(infer(m, x), infer(m2, x))

    def test_byte_faithful_reserialization(self):
        m = small_net(seed=13)
        blob = serialize(m)
        assert serialize(deserialize(blob)) == blob

    def test_save_restore_files(self, tmp_path):
        m = small_net(seed=14)
        path = tmp_path / "model.pmnn"
        save(m, path)
        m2 = restore(path)
        assert serialize(m2) == serialize(m)

    def test_corrupt_magic(self):
        blob = bytearray(serialize(small_net()))
        blob[0] ^= 0xFF
        with pytest.raises(ModelFormatError) as err:
            deserialize(bytes(blob))
        assert err.value.offset == 0

    def test_truncated_weight_block_offset(self):
        blob = serialize(small_net())
        # header: magic(4) + version(2) + kind(1) + count(1) + 2 specs(13 each)
        header_len = 8 + 2 * 13
        cut = header_len + 10  # mid first weight block
        with pytest.raises(ModelFormatError) as err:
            deserialize(blob[:cut])
        assert err.value.offset == header_len
        assert "weights" in str(err.value)

    def test_crc_detects_payload_flips(self):
        blob = serialize(small_net())
        rng = np.random.default_rng(0)
        for _ in range(100):
            corrupted = bytearray(blob)
            pos = int(rng.integers(len(blob)))
            corrupted[pos] ^= 1 << int(rng.integers(8))
            with pytest.raises(ModelFormatError):
                deserialize(bytes(corrupted))

    def test_trailing_garbage_rejected(self):
        blob = serialize(small_net()) + b"x"
        with pytest.raises(ModelFormatError):
            deserialize(blob)

    def test_softmax_only_final_layer(self):
        with pytest.raises(ParameterError):
            new_mlp([LayerSpec(2, 4, Activation.SOFTMAX),
                     LayerSpec(4, 2, Activation.LINEAR)])

    def test_parameter_counts(self):
        m = small_net()
        assert parameter_counts(m) == [2 * 16 + 16, 16 * 4 + 4]
