"""Minimal dense feed-forward network engine.

Four operations cover the whole lifecycle: train, infer, save, restore.
Supported pieces are LeakyReLU/ReLU/softmax/linear activations, categorical
cross-entropy and mean-absolute-error losses, and the RMSProp optimizer.
Gradients are exact reverse-mode derivatives of the mean batch loss.

The model kind picks the training loss: a classifier is fit on categorical
cross-entropy, a regressor on mean absolute error. RMSProp uses the Keras
defaults rho = 0.9 and epsilon = 1e-7 as fixed constants; the learning rate
is the only optimizer setting.

Numerics: parameters live in float64 arrays but are kept on the float32 grid
(snapped after initialization and after every optimizer step). During
training every weight and bias is a view into one flat float64 buffer, so
each step is one RMSProp update and one float32 snap of the whole buffer.
The wire format stores float32, so save -> restore reproduces a model
bit-exactly while gradient checks still run at float64 resolution.

Model file layout (little-endian): magic ``PMNN``, version u16, kind u8
(0 classifier / 1 regressor), layer count u8; per layer in_dim u32,
out_dim u32, activation u8 (0 linear, 1 relu, 2 leaky relu, 3 softmax),
alpha f32; per layer weights row-major f32 then biases f32; input dim u32
with per-feature scaler mean f64 and std f64; trailing CRC32.
"""

from __future__ import annotations

import struct
import time
import zlib
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ModelFormatError, ParameterError, ShapeError, TrainingDivergedError

_MAGIC = b"PMNN"
_VERSION = 1

RMSPROP_RHO = 0.9
RMSPROP_EPSILON = 1e-7


class Activation(Enum):
    # values double as wire codes
    LINEAR = 0
    RELU = 1
    LEAKY_RELU = 2
    SOFTMAX = 3


class ModelKind(Enum):
    CLASSIFIER = 0
    REGRESSOR = 1


class Loss(Enum):
    CATEGORICAL_CROSS_ENTROPY = "cce"
    MEAN_ABSOLUTE_ERROR = "mae"


def _f32(x):
    """Snap values to the float32 grid, keeping float64 storage."""
    return np.asarray(x, dtype=np.float64).astype(np.float32).astype(np.float64)


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: Activation
    alpha: float = 0.01  # LeakyReLU slope; snapped to f32 so files round-trip

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ParameterError("layer dimensions must be >= 1")
        if not np.isfinite(self.alpha):
            raise ParameterError("alpha must be finite")
        object.__setattr__(self, "alpha", float(np.float32(self.alpha)))


@dataclass
class Mlp:
    """Dense network plus the z-score scaler applied to its inputs."""

    layers: list[LayerSpec]
    weights: list[np.ndarray]   # per layer, shape (out_dim, in_dim)
    biases: list[np.ndarray]    # per layer, shape (out_dim,)
    scaler_mean: np.ndarray
    scaler_std: np.ndarray
    kind: ModelKind = ModelKind.CLASSIFIER

    def __post_init__(self):
        if not self.layers:
            raise ParameterError("model needs at least one layer")
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        self.scaler_mean = np.asarray(self.scaler_mean, dtype=np.float64)
        self.scaler_std = np.asarray(self.scaler_std, dtype=np.float64)
        for i, spec in enumerate(self.layers):
            if spec.activation is Activation.SOFTMAX and i != len(self.layers) - 1:
                raise ParameterError("softmax is only allowed on the final layer")
            if i > 0 and spec.in_dim != self.layers[i - 1].out_dim:
                raise ParameterError(f"layer {i} in_dim does not chain")
            if self.weights[i].shape != (spec.out_dim, spec.in_dim):
                raise ShapeError(f"layer {i} weight shape {self.weights[i].shape}")
            if self.biases[i].shape != (spec.out_dim,):
                raise ShapeError(f"layer {i} bias shape {self.biases[i].shape}")
        if self.scaler_mean.shape != (self.in_dim,) or self.scaler_std.shape != (self.in_dim,):
            raise ShapeError("scaler must have one (mean, std) per input feature")
        if np.any(self.scaler_std <= 0):
            raise ParameterError("scaler std must be > 0 for every feature")
        for arr in (*self.weights, *self.biases, self.scaler_mean, self.scaler_std):
            if not np.all(np.isfinite(arr)):
                raise ParameterError("model parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim


def new_mlp(specs: list[LayerSpec], seed: int = 0,
            kind: ModelKind = ModelKind.CLASSIFIER) -> Mlp:
    """Build a model with uniform +-sqrt(6/(in+out)) weights and zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for spec in specs:
        limit = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        weights.append(_f32(rng.uniform(-limit, limit, size=(spec.out_dim, spec.in_dim))))
        biases.append(np.zeros(spec.out_dim))
    d = specs[0].in_dim
    return Mlp(list(specs), weights, biases, np.zeros(d), np.ones(d), kind)


def parameter_counts(model: Mlp) -> list[int]:
    """Trainable parameters per layer (weights plus biases)."""
    return [w.size + b.size for w, b in zip(model.weights, model.biases)]


def _softmax(v: np.ndarray) -> np.ndarray:
    """Shift-invariant softmax over the last axis."""
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cce_loss(y_true, y_pred) -> float:
    """Categorical cross-entropy, averaged over the batch.

    Predictions are clamped at 1e-12 before the log so a confident miss
    stays finite.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ShapeError(f"shape mismatch {y_true.shape} vs {y_pred.shape}")
    per_sample = -(y_true * np.log(np.clip(y_pred, 1e-12, None))).sum(axis=-1)
    return float(per_sample.mean())


def mae_loss(y_true, y_pred) -> float:
    """Mean absolute error over all entries."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise ShapeError(f"shape mismatch {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ParameterError("mae_loss needs at least one element")
    return float(np.abs(y_true - y_pred).mean())


def _activate(spec: LayerSpec, z: np.ndarray) -> np.ndarray:
    if spec.activation is Activation.LINEAR:
        return z
    if spec.activation is Activation.RELU:
        return np.maximum(z, 0.0)
    if spec.activation is Activation.LEAKY_RELU:
        return np.where(z >= 0, z, spec.alpha * z)
    return _softmax(z)


def _scale(model: Mlp, x: np.ndarray) -> np.ndarray:
    return (x - model.scaler_mean) / model.scaler_std


def _layers(model: Mlp, h: np.ndarray):
    """Per-layer pre-activations and activations of already-scaled rows ``h``
    (activation index 0 is ``h`` itself)."""
    zs, activations = [], [h]
    for spec, w, b in zip(model.layers, model.weights, model.biases):
        z = activations[-1] @ w.T + b
        zs.append(z)
        activations.append(_activate(spec, z))
    return zs, activations


def infer(model: Mlp, x) -> np.ndarray:
    """Run the network on one feature vector or a (n, in_dim) batch."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ParameterError("input must be finite")
    single = x.ndim == 1
    batch = x[None, :] if single else x
    if batch.ndim != 2 or batch.shape[1] != model.in_dim:
        raise ShapeError(f"expected {model.in_dim} input features, got shape {x.shape}")
    _, activations = _layers(model, _scale(model, batch))
    out = activations[-1]
    return out[0] if single else out


def _loss_and_grads(model: Mlp, h: np.ndarray, y: np.ndarray, loss: Loss):
    """Loss and per-layer gradients on scaled rows ``h``; the caller has
    checked that ``y`` is ``(len(h), out_dim)``. The loss expressions are
    ``cce_loss``/``mae_loss`` inlined, in the same operation order."""
    n = h.shape[0]
    zs, activations = _layers(model, h)
    y_hat = activations[-1]
    if loss is Loss.CATEGORICAL_CROSS_ENTROPY:
        clipped = np.clip(y_hat, 1e-12, None)
        value = float((-(y * np.log(clipped)).sum(axis=-1)).mean())
        d_act = -(y / clipped) / n
    else:
        value = float(np.abs(y - y_hat).mean())
        d_act = np.sign(y_hat - y) / y.size

    grads = []
    for i in range(len(model.layers) - 1, -1, -1):
        spec, z, a = model.layers[i], zs[i], activations[i + 1]
        if spec.activation is Activation.LINEAR:
            dz = d_act
        elif spec.activation is Activation.RELU:
            dz = d_act * (z > 0)
        elif spec.activation is Activation.LEAKY_RELU:
            dz = d_act * np.where(z >= 0, 1.0, spec.alpha)
        else:  # softmax Jacobian
            dz = a * (d_act - (d_act * a).sum(axis=1, keepdims=True))
        grads.append((dz.T @ activations[i], dz.sum(axis=0)))
        if i:
            d_act = dz @ model.weights[i]
    grads.reverse()
    return value, grads


def batch_loss(model: Mlp, x, y) -> float:
    """Mean loss of the model on a batch (no gradient): categorical
    cross-entropy for a classifier, mean absolute error for a regressor."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = infer(model, np.asarray(x, dtype=np.float64))
    if model.kind is ModelKind.CLASSIFIER:
        return cce_loss(y, y_hat)
    return mae_loss(y, y_hat)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 10
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ParameterError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ParameterError("learning_rate must be > 0")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    epoch_s: list[float] = field(default_factory=list)  # wall seconds per epoch


def rmsprop_step(p: np.ndarray, g: np.ndarray, v: np.ndarray, learning_rate: float):
    """One RMSProp update: v <- rho v + (1 - rho) g^2, p <- p - lr g / (sqrt(v) + eps).
    Returns the new ``(p, v)``."""
    v = RMSPROP_RHO * v + (1.0 - RMSPROP_RHO) * g * g
    return p - learning_rate * g / (np.sqrt(v) + RMSPROP_EPSILON), v


def train(model: Mlp, train_set, val_set, cfg: TrainConfig) -> TrainHistory:
    """Fit the model in place; deterministic for a given config seed.

    The input scaler is (re)fit on the training features before the first
    epoch. A classifier is fit on categorical cross-entropy, a regressor on
    mean absolute error. Epoch training loss is the mean of the per-batch
    losses seen during the epoch; validation loss is evaluated after each
    epoch. Both sets must be ``(n, in_dim)`` features with ``(n, out_dim)``
    targets. On return ``model.weights`` and ``model.biases`` are views into
    one float64 buffer.
    """
    x_tr = np.asarray(train_set[0], dtype=np.float64)
    y_tr = np.asarray(train_set[1], dtype=np.float64)
    x_va = np.asarray(val_set[0], dtype=np.float64)
    y_va = np.asarray(val_set[1], dtype=np.float64)
    if x_tr.shape[0] == 0 or x_va.shape[0] == 0:
        raise ParameterError("train and validation sets must be non-empty")
    for name, x, y in (("training", x_tr, y_tr), ("validation", x_va, y_va)):
        if x.ndim != 2 or x.shape[1] != model.in_dim:
            raise ShapeError(f"{name} features must be (n, {model.in_dim}), got {x.shape}")
        if y.shape != (x.shape[0], model.out_dim):
            raise ShapeError(f"{name} targets must be ({x.shape[0]}, {model.out_dim}), "
                             f"got {y.shape}")

    mean = x_tr.mean(axis=0)
    std = x_tr.std(axis=0)
    if np.any(std <= 0):
        raise ParameterError("a training feature is constant; cannot standardize")
    model.scaler_mean = mean
    model.scaler_std = std
    h_tr = _scale(model, x_tr)
    loss = (Loss.CATEGORICAL_CROSS_ENTROPY if model.kind is ModelKind.CLASSIFIER
            else Loss.MEAN_ABSOLUTE_ERROR)

    arrays = [arr for pair in zip(model.weights, model.biases) for arr in pair]
    flat = np.concatenate([arr.ravel() for arr in arrays])
    bounds = np.cumsum([0] + [arr.size for arr in arrays])
    views = [flat[lo:hi].reshape(arr.shape)
             for lo, hi, arr in zip(bounds[:-1], bounds[1:], arrays)]
    model.weights[:] = views[0::2]
    model.biases[:] = views[1::2]
    grad = np.empty_like(flat)
    state = np.zeros_like(flat)
    rng = np.random.default_rng(cfg.seed)
    n = x_tr.shape[0]
    history = TrainHistory()

    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            value, grads = _loss_and_grads(model, h_tr[idx], y_tr[idx], loss)
            if not np.isfinite(value):
                raise TrainingDivergedError(epoch)
            batch_losses.append(value)
            np.concatenate([arr.ravel() for pair in grads for arr in pair], out=grad)
            stepped, state = rmsprop_step(flat, grad, state, cfg.learning_rate)
            flat[:] = stepped.astype(np.float32)
        epoch_train = float(np.mean(batch_losses))
        epoch_val = batch_loss(model, x_va, y_va)
        if not (np.isfinite(epoch_train) and np.isfinite(epoch_val)):
            raise TrainingDivergedError(epoch)
        history.train_loss.append(epoch_train)
        history.val_loss.append(epoch_val)
        history.epoch_s.append(time.perf_counter() - started)
    return history


def serialize(model: Mlp) -> bytes:
    """Encode a model in the binary wire format (with trailing CRC32)."""
    buf = bytearray()
    buf += _MAGIC
    buf += struct.pack("<H", _VERSION)
    buf += struct.pack("<B", model.kind.value)
    buf += struct.pack("<B", len(model.layers))
    for spec in model.layers:
        buf += struct.pack("<IIBf", spec.in_dim, spec.out_dim,
                           spec.activation.value, spec.alpha)
    for w, b in zip(model.weights, model.biases):
        buf += np.ascontiguousarray(w, dtype="<f4").tobytes()
        buf += np.ascontiguousarray(b, dtype="<f4").tobytes()
    buf += struct.pack("<I", model.in_dim)
    for m, s in zip(model.scaler_mean, model.scaler_std):
        buf += struct.pack("<dd", m, s)
    buf += struct.pack("<I", zlib.crc32(bytes(buf)))
    return bytes(buf)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.data):
            raise ModelFormatError(f"truncated while reading {what}", self.offset)
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def deserialize(data: bytes) -> Mlp:
    """Decode the binary wire format, validating structure and CRC."""
    r = _Reader(data)
    if r.take(4, "magic") != _MAGIC:
        raise ModelFormatError("bad magic, expected PMNN", 0)
    (version,) = r.unpack("<H", "version")
    if version != _VERSION:
        raise ModelFormatError(f"unsupported format version {version}", 4)
    kind_offset = r.offset
    (kind_code,) = r.unpack("<B", "model kind")
    if kind_code not in (0, 1):
        raise ModelFormatError(f"unknown model kind {kind_code}", kind_offset)
    (n_layers,) = r.unpack("<B", "layer count")
    if n_layers == 0:
        raise ModelFormatError("layer count must be >= 1", r.offset - 1)

    specs = []
    for i in range(n_layers):
        spec_offset = r.offset
        in_dim, out_dim, act_code, alpha = r.unpack("<IIBf", f"layer {i} spec")
        try:
            activation = Activation(act_code)
        except ValueError:
            raise ModelFormatError(f"unknown activation code {act_code}", spec_offset + 8) from None
        if in_dim < 1 or out_dim < 1:
            raise ModelFormatError(f"layer {i} has zero dimension", spec_offset)
        specs.append(LayerSpec(in_dim, out_dim, activation, alpha))

    weights, biases = [], []
    for i, spec in enumerate(specs):
        w_bytes = r.take(4 * spec.in_dim * spec.out_dim, f"layer {i} weights")
        b_bytes = r.take(4 * spec.out_dim, f"layer {i} biases")
        w = np.frombuffer(w_bytes, dtype="<f4").reshape(spec.out_dim, spec.in_dim)
        weights.append(w.astype(np.float64))
        biases.append(np.frombuffer(b_bytes, dtype="<f4").astype(np.float64))

    dim_offset = r.offset
    (scaler_dim,) = r.unpack("<I", "scaler dimension")
    if scaler_dim != specs[0].in_dim:
        raise ModelFormatError(
            f"scaler dimension {scaler_dim} does not match input dim {specs[0].in_dim}",
            dim_offset)
    means, stds = [], []
    for i in range(scaler_dim):
        m, s = r.unpack("<dd", f"scaler entry {i}")
        means.append(m)
        stds.append(s)

    crc_offset = r.offset
    (stored_crc,) = r.unpack("<I", "checksum")
    if r.offset != len(data):
        raise ModelFormatError("trailing bytes after checksum", r.offset)
    actual_crc = zlib.crc32(data[:crc_offset])
    if stored_crc != actual_crc:
        raise ModelFormatError(
            f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}",
            crc_offset)

    try:
        return Mlp(specs, weights, biases, np.asarray(means), np.asarray(stds),
                   ModelKind(kind_code))
    except (ParameterError, ShapeError) as err:
        raise ModelFormatError(f"inconsistent model: {err}", crc_offset) from err


def save(model: Mlp, path) -> None:
    with open(path, "wb") as f:
        f.write(serialize(model))


def restore(path) -> Mlp:
    with open(path, "rb") as f:
        return deserialize(f.read())
