"""Rising-edge detection and transient feature extraction.

An actuation edge is located by a moving average: when the mean of the last
``window`` samples reaches ``edge_threshold`` while the sample entering the
window is still at idle level, the window start becomes the edge's
``zero_index``. Around each edge a fixed frame is analyzed:

  * ``ecv_lower_avg``  mean of the ``lower_window`` samples before the edge
  * ``ecv_upper_avg``  mean over [zero+30, zero+50) samples
  * ``ecv10`` / ``ecv90``  lower average plus 10% / 90% of the delta
  * ``tl`` / ``tu``  first 10% crossing, and one past the last sample still
    at or below the 90% level within the frame (a backward scan, so ``tu``
    lands after the plunger dip)
  * ``di_dt``  (ecv90 - ecv10) / (tu - tl)
  * ``auc``  trapezoidal area of the first 30 ms, normalized by the
    interval count

Only (di_dt, auc) feed the downstream models; the rest are diagnostics.
All window lengths are sample counts at 1 kHz (1 sample = 1 ms); use
``ExtractionConfig.for_sample_rate`` for other rates.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateTransientError, ExtractionError, NoActuationError,
                     ParameterError)
from .waveform import TransientTrace


@dataclass(frozen=True)
class ExtractionConfig:
    window: int = 5                 # moving-average length, samples
    edge_threshold: float = 40.0    # mA, ~15% of the maximum settling current
    idle_max: float = 5.0           # mA, ceiling for the sample entering the window
    lower_window: int = 50          # samples averaged before the edge
    upper_window_start: int = 30    # upper average start, samples after the edge
    upper_window_end: int = 50      # upper average end (exclusive)
    frame: int = 100                # region of interest, samples after the edge
    skip_after_event: int = 30      # scan advance after a detection
    ms_per_sample: float = 1.0

    def __post_init__(self):
        if self.window < 1 or self.lower_window < 1:
            raise ParameterError("window and lower_window must be >= 1")
        if not 0 <= self.upper_window_start < self.upper_window_end:
            raise ParameterError("need upper_window_end > upper_window_start >= 0")
        if self.frame < self.upper_window_end:
            raise ParameterError("frame must cover the upper window")
        if self.skip_after_event < 0:
            raise ParameterError("skip_after_event must be >= 0")
        if self.ms_per_sample <= 0:
            raise ParameterError("ms_per_sample must be > 0")

    @classmethod
    def for_sample_rate(cls, sample_rate: float) -> "ExtractionConfig":
        """Scale the 1 kHz sample-count defaults to another rate."""
        if sample_rate <= 0:
            raise ParameterError("sample_rate must be > 0")

        def scaled(n):
            return max(round(n * sample_rate / 1000.0), 1)

        return cls(window=scaled(5), lower_window=scaled(50),
                   upper_window_start=scaled(30), upper_window_end=scaled(50),
                   frame=scaled(100), skip_after_event=scaled(30),
                   ms_per_sample=1000.0 / sample_rate)


@dataclass(frozen=True)
class TransientFeatures:
    zero_index: int
    ecv_lower_avg: float
    ecv_upper_avg: float
    delta_ecv: float
    ecv10: float
    ecv90: float
    tl: float        # ms after the edge
    tu: float        # ms after the edge
    di_dt: float     # mA/ms
    auc: float       # mA


def detect_rising_edges(samples, cfg: ExtractionConfig = ExtractionConfig()) -> list[int]:
    """Locate actuation edges; returns their zero indices in scan order.

    After a detection at window start z the scan resumes at
    z + skip_after_event + 1. Edges without ``lower_window`` samples of
    history or ``frame`` samples of lookahead are dropped (the skip still
    applies, so the scan stays aligned with the naive reference).
    """
    x = np.asarray(samples, dtype=np.float64)
    n = x.size
    if n <= cfg.window:
        return []
    csum = np.concatenate(([0.0], np.cumsum(x)))
    starts = np.arange(n - cfg.window)
    means = (csum[starts + cfg.window] - csum[starts]) / cfg.window
    hits = np.flatnonzero((means >= cfg.edge_threshold) & (x[starts] <= cfg.idle_max))

    edges: list[int] = []
    next_allowed = 0
    for z in hits:
        if z < next_allowed:
            continue
        if z >= cfg.lower_window and z + cfg.frame <= n:
            edges.append(int(z))
        next_allowed = int(z) + cfg.skip_after_event + 1
    return edges


def extract_features(samples, zero_index: int,
                     cfg: ExtractionConfig = ExtractionConfig()) -> TransientFeatures:
    """Compute the transient feature set for one detected edge.

    Raises NoActuationError when the frame never rises above the 10% level
    (equivalently, the upper window does not exceed the lower average) and
    DegenerateTransientError when the rise is instantaneous.
    """
    x = np.asarray(samples, dtype=np.float64)
    z = zero_index
    if z < cfg.lower_window:
        raise ParameterError(f"zero_index needs {cfg.lower_window} samples of history")
    if z + cfg.frame > x.size:
        raise ParameterError(f"zero_index needs {cfg.frame} samples of lookahead")

    lower = float(x[z - cfg.lower_window: z].mean())
    upper = float(x[z + cfg.upper_window_start: z + cfg.upper_window_end].mean())
    delta = upper - lower
    ecv10 = 0.1 * delta + lower
    ecv90 = 0.9 * delta + lower

    if delta <= 0:
        raise NoActuationError(f"no rise at index {z}: delta_ecv = {delta:.3f} mA")

    roi = x[z: z + cfg.frame]
    above = np.flatnonzero(roi >= ecv10)
    if above.size == 0:  # unreachable when delta > 0; kept as a guard
        raise NoActuationError(f"no 10% crossing within the frame at index {z}")
    j = int(above[0])
    at_or_below = np.flatnonzero(roi[j:] <= ecv90)
    if at_or_below.size == 0:
        raise DegenerateTransientError(f"instantaneous rise at index {z}")
    k = j + int(at_or_below[-1])

    tl = j * cfg.ms_per_sample
    tu = (k + 1) * cfg.ms_per_sample
    di_dt = (ecv90 - ecv10) / (tu - tl)

    m = cfg.upper_window_start
    auc = float(((x[z] + x[z + m]) / 2.0 + x[z + 1: z + m].sum()) / m)

    return TransientFeatures(zero_index=z, ecv_lower_avg=lower, ecv_upper_avg=upper,
                             delta_ecv=delta, ecv10=ecv10, ecv90=ecv90,
                             tl=tl, tu=tu, di_dt=di_dt, auc=auc)


def extract_all(trace: TransientTrace,
                diagnostics: list | None = None) -> list[tuple[int, TransientFeatures]]:
    """Detect every edge in a trace and extract its features, with the
    windows scaled to the trace's sample rate.

    Per-edge failures never abort the sweep; pass a ``diagnostics`` list to
    collect ``(zero_index, error)`` pairs for the edges that were skipped.
    """
    cfg = ExtractionConfig.for_sample_rate(trace.sample_rate)
    out = []
    for z in detect_rising_edges(trace.samples, cfg):
        try:
            out.append((z, extract_features(trace.samples, z, cfg)))
        except ExtractionError as err:
            if diagnostics is not None:
                diagnostics.append((z, err))
    return out


_FULL_COLUMNS = ["zero_index", "ecv_lower_avg", "ecv_upper_avg", "delta_ecv",
                 "ecv10", "ecv90", "tl", "tu", "di_dt", "auc"]


def write_features_csv(results: list[tuple[int, TransientFeatures]], path,
                       full: bool = False) -> None:
    """Write one row per extracted edge; ``full`` adds every intermediate."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        if full:
            w.writerow(_FULL_COLUMNS)
            for z, ft in results:
                w.writerow([z] + [repr(getattr(ft, c)) for c in _FULL_COLUMNS[1:]])
        else:
            w.writerow(["zero_index", "di_dt", "auc"])
            for z, ft in results:
                w.writerow([z, repr(ft.di_dt), repr(ft.auc)])

