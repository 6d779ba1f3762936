"""Naive reference implementations used as independent test oracles.

Everything here is a literal, loop-based transcription of the documented
sensing-chain, edge-detection and feature-extraction contracts: codes are
converted one scalar at a time, window means are recomputed from scratch
with plain Python accumulation, scans have no vectorization or early exits
beyond what the contract itself states. The production code must agree with
these bit-for-bit on codes and indices and to 1e-9 on reals.
"""

import math

from valvehealth.errors import (DegenerateTransientError, NoActuationError,
                                ParameterError)
from valvehealth.features import ExtractionConfig
from valvehealth.waveform import AdcConfig


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
