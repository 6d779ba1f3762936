"""Naive reference implementations used as independent test oracles.

Everything here is a literal, loop-based transcription of the documented
sensing-chain, edge-detection and feature-extraction contracts: codes are
converted one scalar at a time, window means are recomputed from scratch
with plain Python accumulation, scans have no vectorization or early exits
beyond what the contract itself states. The production code must agree with
these bit-for-bit on codes and indices and to 1e-9 on reals.

``reference_synth_features`` and the two dataset generators below are the
per-row synthesis loop: one trace synthesized, scanned and extracted at a
time, resampled with the next seed until an edge extracts cleanly. The
production generators synthesize and extract a whole dataset at once and
must give the same rows, targets and provenance.

``reference_train`` is the training loop written one array at a time: each
weight and bias gets its own RMSProp update and float32 snap, and every
forward pass standardizes its batch. ``tinynn.train`` runs the same
elementwise arithmetic on one flat buffer, so it must agree bit-for-bit.
"""

import math

import numpy as np

from valvehealth import models, tinynn
from valvehealth.errors import (DegenerateTransientError, ExtractionError,
                                NoActuationError, ParameterError, TrainingDivergedError)
from valvehealth.features import ExtractionConfig, extract_all
from valvehealth.tinynn import Activation, Loss, ModelKind
from valvehealth.waveform import (AdcConfig, DegradationState, FaultCondition, FaultKind,
                                  ValveParams, synth_transient)


def adc_quantize(v: float, cfg: AdcConfig = AdcConfig()) -> int:
    """Truncating, saturating conversion of a voltage to a raw ADC code."""
    clamped = min(max(v, 0.0), cfg.full_scale)
    return int(math.floor(clamped / cfg.full_scale * cfg.max_code))


def raw_to_current(code: int, cfg: AdcConfig = AdcConfig()) -> float:
    """Invert the sensing chain: raw code back to drive current in mA."""
    if not 0 <= code <= cfg.max_code:
        raise ParameterError(f"code must be in [0, {cfg.max_code}], got {code}")
    return code / cfg.max_code * cfg.full_scale / cfg.gain * 1000.0


def naive_mean(samples, start, stop):
    total = 0.0
    for i in range(start, stop):
        total += float(samples[i])
    return total / (stop - start)


def naive_detect(samples, cfg: ExtractionConfig):
    """Scan with a recomputed window mean; after a hit at window start z the
    next examined start is z + skip_after_event + 1."""
    n = len(samples)
    edges = []
    i = cfg.window
    while i <= n - 1:
        window_average = naive_mean(samples, i - cfg.window, i)
        if window_average >= cfg.edge_threshold and samples[i - cfg.window] <= cfg.idle_max:
            z = i - cfg.window
            if z >= cfg.lower_window and z + cfg.frame <= n:
                edges.append(z)
            i += cfg.skip_after_event
        i += 1
    return edges


def naive_extract(samples, z, cfg: ExtractionConfig):
    """Feature computation with explicit forward/backward crossing loops.

    Returns a dict keyed like TransientFeatures fields.
    """
    lower = naive_mean(samples, z - cfg.lower_window, z)
    upper = naive_mean(samples, z + cfg.upper_window_start, z + cfg.upper_window_end)
    delta = upper - lower
    ecv10 = 0.1 * delta + lower
    ecv90 = 0.9 * delta + lower
    if delta <= 0:
        raise NoActuationError(f"no rise at {z}")

    j = None
    for idx in range(z, z + cfg.frame):
        if samples[idx] >= ecv10:
            j = idx
            break
    if j is None:
        raise NoActuationError(f"no 10% crossing at {z}")

    k = None
    for idx in range(z + cfg.frame - 1, j - 1, -1):
        if samples[idx] <= ecv90:
            k = idx
            break
    if k is None:
        raise DegenerateTransientError(f"instantaneous rise at {z}")

    tl = (j - z) * cfg.ms_per_sample
    tu = (k + 1 - z) * cfg.ms_per_sample
    di_dt = (ecv90 - ecv10) / (tu - tl)

    m = cfg.upper_window_start
    trapezoid = (float(samples[z]) + float(samples[z + m])) / 2.0
    for idx in range(z + 1, z + m):
        trapezoid += float(samples[idx])
    auc = trapezoid / m

    return {"zero_index": z, "ecv_lower_avg": lower, "ecv_upper_avg": upper,
            "delta_ecv": delta, "ecv10": ecv10, "ecv90": ecv90,
            "tl": tl, "tu": tu, "di_dt": di_dt, "auc": auc}


def naive_extract_all(samples, cfg: ExtractionConfig):
    """Edge list plus per-edge outcome: ('ok', features) or ('error', name)."""
    out = []
    for z in naive_detect(samples, cfg):
        try:
            out.append((z, "ok", naive_extract(samples, z, cfg)))
        except (NoActuationError, DegenerateTransientError) as err:
            out.append((z, "error", type(err).__name__))
    return out


def reference_synth_features(params, fault, deg, noise_std, seed):
    """One actuation's (di_dt, auc, used seed); resamples with the next seed
    on failure."""
    last_err = None
    for attempt in range(models._SYNTH_RETRIES):
        trace = synth_transient(params, fault, deg, noise_std=noise_std, seed=seed + attempt)
        results = extract_all(trace)
        if results:
            ft = results[0][1]
            return ft.di_dt, ft.auc, seed + attempt
        last_err = ExtractionError(f"no usable edge with seed {seed + attempt}")
    raise ExtractionError(
        f"extraction failed for {models._SYNTH_RETRIES} consecutive seeds") from last_err


def reference_fault_dataset(counts, seed, noise_std):
    """``gen_fault_dataset`` one row at a time: ``(x, y, provenance,
    resampled row count)``."""
    rng = np.random.default_rng(seed)
    fresh = DegradationState(cycle=0, failure_cycle=1)
    xs, ys, prov, resampled = [], [], [], 0
    for class_idx, (kind, count) in enumerate(zip(models.FAULT_CLASSES, counts)):
        for _ in range(count):
            valve = models._jittered(rng, ValveParams(), 0.10)
            if kind is FaultKind.UNDER_VOLTAGE:
                fault = FaultCondition.under_voltage(rng.uniform(*models.UNDER_VOLTAGE_RANGE))
            else:
                fault = FaultCondition(kind)
            sample_seed = int(rng.integers(2 ** 31))
            di_dt, auc, used = reference_synth_features(valve, fault, fresh, noise_std,
                                                        sample_seed)
            xs.append((di_dt, auc))
            ys.append(class_idx)
            prov.append(f"synthetic:{kind.value}:seed={used}")
            resampled += used != sample_seed
    return np.asarray(xs), np.asarray(ys), prov, resampled


def reference_rul_dataset(n_valves, seed, failure_cycle, cycle_step, noise_std):
    """``gen_rul_dataset`` one row at a time: ``(x, y, provenance, resampled
    row count)``."""
    rng = np.random.default_rng(seed)
    xs, ys, prov, resampled = [], [], [], 0
    for valve_idx in range(n_valves):
        valve = models._jittered(rng, ValveParams(), 0.02)
        for cycle in range(0, failure_cycle, cycle_step):
            deg = DegradationState(cycle=cycle, failure_cycle=failure_cycle)
            sample_seed = int(rng.integers(2 ** 31))
            di_dt, auc, used = reference_synth_features(valve, FaultCondition.good(), deg,
                                                        noise_std, sample_seed)
            xs.append((di_dt, auc))
            ys.append(float(failure_cycle - cycle))
            prov.append(f"synthetic:valve={valve_idx}:cycle={cycle}:seed={used}")
            resampled += used != sample_seed
    return np.asarray(xs), np.asarray(ys), prov, resampled


def reference_forward(model, x):
    """Scale the batch, then run every layer; index 0 is the scaled input."""
    h = (x - model.scaler_mean) / model.scaler_std
    zs, activations = [], [h]
    for spec, w, b in zip(model.layers, model.weights, model.biases):
        z = activations[-1] @ w.T + b
        zs.append(z)
        activations.append(tinynn._activate(spec, z))
    return zs, activations


def reference_loss_and_grads(model, x, y, loss):
    n = x.shape[0]
    zs, activations = reference_forward(model, x)
    y_hat = activations[-1]
    if loss is Loss.CATEGORICAL_CROSS_ENTROPY:
        value = tinynn.cce_loss(y, y_hat)
        d_act = -(y / np.clip(y_hat, 1e-12, None)) / n
    else:
        value = tinynn.mae_loss(y, y_hat)
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
        d_act = dz @ model.weights[i]
    grads.reverse()
    return value, grads


def reference_train(model, train_set, val_set, cfg):
    """Fit ``model`` in place on cross-entropy for a classifier and mean
    absolute error for a regressor; returns ``(train_loss, val_loss)``."""
    loss = (Loss.CATEGORICAL_CROSS_ENTROPY if model.kind is ModelKind.CLASSIFIER
            else Loss.MEAN_ABSOLUTE_ERROR)
    x_tr = np.asarray(train_set[0], dtype=np.float64)
    y_tr = np.asarray(train_set[1], dtype=np.float64)
    x_va = np.asarray(val_set[0], dtype=np.float64)
    y_va = np.asarray(val_set[1], dtype=np.float64)
    model.scaler_mean = x_tr.mean(axis=0)
    model.scaler_std = x_tr.std(axis=0)

    params = [arr for pair in zip(model.weights, model.biases) for arr in pair]
    state = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng(cfg.seed)
    n = x_tr.shape[0]
    train_loss, val_loss = [], []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            value, grads = reference_loss_and_grads(model, x_tr[idx], y_tr[idx], loss)
            if not np.isfinite(value):
                raise TrainingDivergedError(epoch)
            batch_losses.append(value)
            flat_grads = [arr for pair in grads for arr in pair]
            for j, g in enumerate(flat_grads):
                params[j], state[j] = tinynn.rmsprop_step(params[j], g, state[j],
                                                          cfg.learning_rate)
            for i in range(len(model.layers)):
                model.weights[i] = tinynn._f32(params[2 * i])
                model.biases[i] = tinynn._f32(params[2 * i + 1])
                params[2 * i] = model.weights[i]
                params[2 * i + 1] = model.biases[i]
        train_loss.append(float(np.mean(batch_losses)))
        val_loss.append(tinynn.batch_loss(model, x_va, y_va))
    return train_loss, val_loss
