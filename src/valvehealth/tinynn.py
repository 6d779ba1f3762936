"""Minimal dense feed-forward network engine.

Four operations cover the whole lifecycle: train, infer, save, restore.
Supported pieces are LeakyReLU/ReLU/softmax/linear activations, categorical
cross-entropy and mean-absolute-error losses, and the RMSProp optimizer.
Gradients are exact reverse-mode derivatives of the mean batch loss.

The model kind picks the training loss: a classifier is fit on categorical
cross-entropy, a regressor on mean absolute error; one loss function scores
every training batch and every validation pass. RMSProp uses the Keras
defaults rho = 0.9 and epsilon = 1e-7 as fixed constants; the learning rate
is the only optimizer setting.

Numerics: parameters live in float64 arrays but are kept on the float32 grid
(snapped after initialization and after every optimizer step). During
training every weight and bias is a view into one flat float64 buffer and
every gradient a view into a second one, so each step writes the gradients
in place and runs one in-place RMSProp update and float32 snap of the
whole buffer, with no parameter-sized allocation.
The wire format stores float32, so save -> restore reproduces a model
bit-exactly while gradient checks still run at float64 resolution.

Model file layout (little-endian): magic ``PMNN``, version u16, kind u8
(0 classifier / 1 regressor), layer count u8; per layer in_dim u32,
out_dim u32, activation u8 (0 linear, 1 relu, 2 leaky relu, 3 softmax),
alpha f32; the parameter block, f32 ``W0, b0, W1, b1, ...`` with weights
row-major; input dim u32; the scaler block, an (input dim, 2) f64 array of
per-feature (mean, std) rows; trailing CRC32.
"""

from __future__ import annotations

import math
import numbers
import struct
import time
import zlib
from dataclasses import dataclass
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


# For the per-step code: an Enum member lookup costs about 0.2 µs on Python 3.11.
_LINEAR, _RELU, _LEAKY_RELU = Activation.LINEAR, Activation.RELU, Activation.LEAKY_RELU


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
    kind: ModelKind

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


def new_mlp(specs: list[LayerSpec], seed: int, kind: ModelKind) -> Mlp:
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
    e = np.exp(v - np.maximum.reduce(v, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _activate(spec: LayerSpec, z: np.ndarray):
    """The activation of ``z`` and, for LeakyReLU only, its slope ``da/dz``
    for the backward pass (``z * slope`` is ``where(z >= 0, z, alpha z)``)."""
    if spec.activation is _LINEAR:
        return z, None
    if spec.activation is _RELU:
        return np.maximum(z, 0.0), None
    if spec.activation is _LEAKY_RELU:
        slope = np.where(z >= 0, 1.0, spec.alpha)
        return z * slope, slope
    return _softmax(z), None


def _scale(model: Mlp, x: np.ndarray) -> np.ndarray:
    return (x - model.scaler_mean) / model.scaler_std


def _layers(model: Mlp, h: np.ndarray):
    """Per-layer activations of already-scaled rows ``h`` (index 0 is ``h``
    itself) and LeakyReLU slopes (None for the other layers)."""
    activations, slopes = [h], []
    for spec, w, b in zip(model.layers, model.weights, model.biases):
        a, slope = _activate(spec, activations[-1] @ w.T + b)
        activations.append(a)
        slopes.append(slope)
    return activations, slopes


def infer(model: Mlp, x) -> np.ndarray:
    """Run the network on one feature vector or a (n, in_dim) batch."""
    x = np.asarray(x, dtype=np.float64)
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise ParameterError("input must be finite")
    single = x.ndim == 1
    batch = x[None, :] if single else x
    if batch.ndim != 2 or batch.shape[1] != model.in_dim:
        raise ShapeError(f"expected {model.in_dim} input features, got shape {x.shape}")
    h = _scale(model, batch)
    for spec, w, b in zip(model.layers, model.weights, model.biases):  # _layers, lean
        h = _activate(spec, h @ w.T + b)[0]
    return h[0].copy() if single else h  # a row view would keep its matrix alive


def _loss(kind: ModelKind, y: np.ndarray, y_hat: np.ndarray):
    """The batch-mean training loss of a model of ``kind`` and its gradient
    with respect to ``y_hat``: categorical cross-entropy for a classifier,
    with predictions clamped at 1e-12 so a confident miss stays finite, and
    mean absolute error for a regressor."""
    if kind is ModelKind.CLASSIFIER:
        clipped = np.maximum(y_hat, 1e-12)
        per_row = np.add.reduce(y * np.log(clipped), axis=-1)
        return -float(np.add.reduce(per_row)) / y.shape[0], -(y / clipped) / y.shape[0]
    residual = y_hat - y  # |y_hat - y| is |y - y_hat| bit for bit
    return float(np.add.reduce(np.abs(residual), axis=None)) / y.size, np.sign(residual) / y.size


def _loss_and_grads(model: Mlp, h: np.ndarray, y: np.ndarray, grads) -> float:
    """Loss on scaled rows ``h``; writes each layer's weight and bias
    gradients into the ``(dW, db)`` pairs of ``grads``. The caller has
    checked that ``y`` is ``(len(h), out_dim)``."""
    activations, slopes = _layers(model, h)
    value, d_act = _loss(model.kind, y, activations[-1])
    for i in range(len(model.layers) - 1, -1, -1):
        activation, a = model.layers[i].activation, activations[i + 1]
        if activation is _LINEAR:
            dz = d_act
        elif activation is _RELU:
            dz = d_act * (a > 0)  # a > 0 exactly where z > 0
        elif activation is _LEAKY_RELU:
            dz = d_act * slopes[i]
        else:  # softmax Jacobian
            dz = a * (d_act - np.add.reduce(d_act * a, axis=1, keepdims=True))
        np.matmul(dz.T, activations[i], out=grads[i][0])
        np.add.reduce(dz, axis=0, out=grads[i][1])
        if i:
            d_act = dz @ model.weights[i]
    return value


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 10
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ParameterError(f"{name} must be an integer >= 1, got {value!r}")
        if not 0 < self.learning_rate < math.inf:  # False for NaN
            raise ParameterError(f"learning_rate must be finite and > 0, "
                                 f"got {self.learning_rate!r}")


@dataclass
class TrainHistory:
    train_loss: list[float]
    val_loss: list[float]
    epoch_s: list[float]  # wall seconds per epoch


def _rmsprop_step(p, g, v, learning_rate: float, scratch, snapped) -> None:
    """One RMSProp update in place, then the float32 snap of ``p``:
    v <- rho v + ((1 - rho) g) g, p <- p - (lr g) / (sqrt(v) + eps).
    ``g`` is overwritten; ``scratch`` (float64) and ``snapped`` (float32)
    are work buffers the size of ``p``."""
    np.multiply(g, 1.0 - RMSPROP_RHO, out=scratch)
    scratch *= g
    v *= RMSPROP_RHO
    v += scratch
    np.sqrt(v, out=scratch)
    scratch += RMSPROP_EPSILON
    g *= learning_rate
    g /= scratch
    np.subtract(p, g, out=snapped)
    p[:] = snapped


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

    arrays = [arr for pair in zip(model.weights, model.biases) for arr in pair]
    flat = np.concatenate([arr.ravel() for arr in arrays])
    grad, scratch = np.empty_like(flat), np.empty_like(flat)
    snapped = np.empty(flat.size, dtype=np.float32)
    bounds = np.cumsum([0] + [arr.size for arr in arrays])
    views, grad_views = ([buf[lo:hi].reshape(arr.shape)
                          for lo, hi, arr in zip(bounds[:-1], bounds[1:], arrays)]
                         for buf in (flat, grad))
    model.weights[:] = views[0::2]
    model.biases[:] = views[1::2]
    grads = list(zip(grad_views[0::2], grad_views[1::2]))
    state = np.zeros_like(flat)
    rng = np.random.default_rng(cfg.seed)
    n = x_tr.shape[0]
    history = TrainHistory([], [], [])

    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n)
        h_ep, y_ep = h_tr[order], y_tr[order]
        step_losses = []
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            value = _loss_and_grads(model, h_ep[start:stop], y_ep[start:stop], grads)
            if not math.isfinite(value):
                raise TrainingDivergedError(epoch)
            step_losses.append(value)
            _rmsprop_step(flat, grad, state, cfg.learning_rate, scratch, snapped)
        epoch_train = float(np.mean(step_losses))
        epoch_val = _loss(model.kind, y_va, infer(model, x_va))[0]
        if not (np.isfinite(epoch_train) and np.isfinite(epoch_val)):
            raise TrainingDivergedError(epoch)
        history.train_loss.append(epoch_train)
        history.val_loss.append(epoch_val)
        history.epoch_s.append(time.perf_counter() - started)
    return history


def serialize(model: Mlp) -> bytes:
    """Encode a model in the binary wire format (with trailing CRC32)."""
    params = np.concatenate([a.ravel() for pair in zip(model.weights, model.biases)
                             for a in pair], dtype="<f4")
    scaler = np.stack([model.scaler_mean, model.scaler_std], axis=1).astype("<f8")
    body = b"".join([
        struct.pack("<4sHBB", _MAGIC, _VERSION, model.kind.value, len(model.layers)),
        *(struct.pack("<IIBf", spec.in_dim, spec.out_dim, spec.activation.value, spec.alpha)
          for spec in model.layers),
        params.tobytes(), struct.pack("<I", model.in_dim), scaler.tobytes()])
    return body + struct.pack("<I", zlib.crc32(body))


def deserialize(data: bytes) -> Mlp:
    """Decode the binary wire format. Every defect raises ``ModelFormatError``
    with the byte offset of its field; one that only ``Mlp`` finds in the
    parameters, which the checksum covers, is at the checksum's offset."""
    offset = 0

    def take(fmt: str, what: str) -> tuple:
        """Unpack ``fmt`` at the read offset and move past it."""
        nonlocal offset
        start, offset = offset, offset + struct.calcsize(fmt)
        if offset > len(data):
            raise ModelFormatError(f"truncated while reading {what}", start)
        return struct.unpack_from(fmt, data, start)

    magic, version, kind_code, n_layers = take("<4sHBB", "header")
    if magic != _MAGIC:
        raise ModelFormatError("bad magic, expected PMNN", 0)
    if version != _VERSION:
        raise ModelFormatError(f"unsupported format version {version}", 4)
    if kind_code not in (0, 1):
        raise ModelFormatError(f"unknown model kind {kind_code}", 6)
    if n_layers == 0:
        raise ModelFormatError("layer count must be >= 1", 7)

    specs = []
    for i in range(n_layers):
        spec_offset = offset
        in_dim, out_dim, act_code, alpha = take("<IIBf", f"layer {i} spec")
        try:
            specs.append(LayerSpec(in_dim, out_dim, Activation(act_code), alpha))
        except ValueError as err:
            raise ModelFormatError(f"bad layer {i} spec: {err}", spec_offset) from err

    sizes = [n for spec in specs for n in (spec.out_dim * spec.in_dim, spec.out_dim)]
    # capped at the file's length: a block too long for struct is truncation
    (raw,) = take(f"{min(4 * sum(sizes), len(data))}s", "weights and biases")
    flat = np.frombuffer(raw, "<f4").astype(np.float64)
    bounds = np.cumsum([0, *sizes]).tolist()
    params = [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    weights = [w.reshape(spec.out_dim, spec.in_dim) for w, spec in zip(params[0::2], specs)]

    dim_offset = offset
    (scaler_dim,) = take("<I", "scaler dimension")
    if scaler_dim != specs[0].in_dim:
        raise ModelFormatError(f"scaler dimension {scaler_dim} does not match input "
                               f"dim {specs[0].in_dim}", dim_offset)
    (raw,) = take(f"{16 * scaler_dim}s", "scaler")
    means, stds = np.frombuffer(raw, "<f8").reshape(scaler_dim, 2).T.copy()

    crc_offset = offset
    (stored_crc,) = take("<I", "checksum")
    if offset != len(data):
        raise ModelFormatError("trailing bytes after checksum", offset)
    actual_crc = zlib.crc32(data[:crc_offset])
    if stored_crc != actual_crc:
        raise ModelFormatError(f"checksum mismatch: stored {stored_crc:#010x}, "
                               f"computed {actual_crc:#010x}", crc_offset)

    try:
        return Mlp(specs, weights, params[1::2], means, stds, ModelKind(kind_code))
    except (ParameterError, ShapeError) as err:
        raise ModelFormatError(f"inconsistent model: {err}", crc_offset) from err


def save(model: Mlp, path) -> None:
    with open(path, "wb") as f:
        f.write(serialize(model))


def restore(path) -> Mlp:
    with open(path, "rb") as f:
        return deserialize(f.read())
