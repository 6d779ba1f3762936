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
Window lengths are sample counts; no rate is assumed by default. The
constructor ``ExtractionConfig.for_sample_rate`` sizes them for a rate.

Detection and extraction are batched: ``detect_batch`` scans every row of a
trace matrix with one cumulative sum and one hit search, and
``extract_batch`` computes every feature of any number of edges row by row
over one window matrix, with a per-row error code where a single edge
would raise. A row's result does not depend on the other rows in its call.
``detect_rising_edges`` and ``extract_features`` are the one-row forms.
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
    window: int                 # moving-average length, samples
    edge_threshold: float       # mA, ~15% of the maximum settling current
    idle_max: float             # mA, ceiling for the sample entering the window
    lower_window: int           # samples averaged before the edge
    upper_window_start: int     # upper average start, samples after the edge
    upper_window_end: int       # upper average end (exclusive)
    frame: int                  # region of interest, samples after the edge
    skip_after_event: int       # scan advance after a detection
    ms_per_sample: float

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
        """The windows and thresholds for a trace sampled at ``sample_rate`` Hz."""
        if not 0 < sample_rate < np.inf:
            raise ParameterError(f"sample_rate must be finite and > 0, got {sample_rate!r}")

        def samples(ms):
            return max(round(ms * sample_rate / 1000.0), 1)

        return cls(window=samples(5), edge_threshold=40.0, idle_max=5.0,
                   lower_window=samples(50), upper_window_start=samples(30),
                   upper_window_end=samples(50), frame=samples(100),
                   skip_after_event=samples(30), ms_per_sample=1000.0 / sample_rate)


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


def detect_batch(matrix, cfg: ExtractionConfig) -> list[list[int]]:
    """Locate the actuation edges of each row of a ``(rows, samples)``
    matrix; returns every row's zero indices in scan order.

    After a detection at window start z a row's scan resumes at
    z + skip_after_event + 1. Edges without ``lower_window`` samples of
    history or ``frame`` samples of lookahead are dropped (the skip still
    applies, so the scan stays aligned with the naive reference).
    """
    x = np.asarray(matrix, dtype=np.float64)
    rows, n = x.shape
    w = cfg.window
    edges: list[list[int]] = [[] for _ in range(rows)]
    if n <= w:
        return edges
    csum = np.zeros((rows, n + 1))
    np.add.accumulate(x, axis=1, out=csum[:, 1:])  # np.cumsum without its wrapper
    means = (csum[:, w:n] - csum[:, :n - w]) / w
    hit_rows, hit_starts = ((means >= cfg.edge_threshold)
                            & (x[:, :n - w] <= cfg.idle_max)).nonzero()
    next_allowed = [0] * rows
    for r, z in zip(hit_rows.tolist(), hit_starts.tolist()):
        if z < next_allowed[r]:
            continue
        if z >= cfg.lower_window and z + cfg.frame <= n:
            edges[r].append(z)
        next_allowed[r] = z + cfg.skip_after_event + 1
    return edges


def detect_rising_edges(samples, cfg: ExtractionConfig) -> list[int]:
    """One-row form of ``detect_batch``: the edges of one trace."""
    return detect_batch(np.asarray(samples, dtype=np.float64).reshape(1, -1), cfg)[0]


_FULL_COLUMNS = ["zero_index", "ecv_lower_avg", "ecv_upper_avg", "delta_ecv",
                 "ecv10", "ecv90", "tl", "tu", "di_dt", "auc"]


# Row outcome codes of ``extract_batch``: 0 is a clean edge, the others name
# the error that ``extract_features`` raises for the row.
OK, NO_RISE, NO_CROSSING, DEGENERATE = range(4)


@dataclass(frozen=True)
class FeatureBatch:
    """``TransientFeatures`` as columns, one row per requested edge.

    ``error`` holds each row's outcome code. A failed row keeps the values
    it got before the failure; its ``tl``, ``tu`` and ``di_dt`` are NaN.
    """

    zero_index: np.ndarray
    ecv_lower_avg: np.ndarray
    ecv_upper_avg: np.ndarray
    delta_ecv: np.ndarray
    ecv10: np.ndarray
    ecv90: np.ndarray
    tl: np.ndarray
    tu: np.ndarray
    di_dt: np.ndarray
    auc: np.ndarray
    error: np.ndarray

    def row(self, i: int) -> TransientFeatures:
        """Row ``i`` as Python numbers."""
        return TransientFeatures(int(self.zero_index[i]),
                                 *(float(getattr(self, c)[i]) for c in _FULL_COLUMNS[1:]))

    def error_at(self, i: int) -> ExtractionError | None:
        """The exception row ``i`` stands for, or None for a clean row."""
        code, z = self.error[i], int(self.zero_index[i])
        if code == NO_RISE:
            return NoActuationError(
                f"no rise at index {z}: delta_ecv = {self.delta_ecv[i]:.3f} mA")
        if code == NO_CROSSING:  # unreachable when delta > 0; kept as a guard
            return NoActuationError(f"no 10% crossing within the frame at index {z}")
        if code == DEGENERATE:
            return DegenerateTransientError(f"instantaneous rise at index {z}")
        return None


def extract_batch(samples, zero_indices, cfg: ExtractionConfig) -> FeatureBatch:
    """Compute the transient feature set for every edge in ``zero_indices``.

    The ``lower_window + frame`` samples around each edge are gathered into
    one window matrix and every feature is computed row by row, so a row's
    values do not depend on the other rows. A row fails with NO_RISE when
    the upper window does not exceed the lower average, and with DEGENERATE
    when the rise is instantaneous.
    """
    x = np.asarray(samples, dtype=np.float64)
    z = np.asarray(zero_indices, dtype=np.int64)
    lw, m = cfg.lower_window, cfg.upper_window_start
    if z.size and np.minimum.reduce(z) < lw:
        raise ParameterError(f"zero_index needs {lw} samples of history")
    if z.size and np.maximum.reduce(z) + cfg.frame > x.size:
        raise ParameterError(f"zero_index needs {cfg.frame} samples of lookahead")

    windows = x[(z - lw)[:, None] + np.arange(lw + cfg.frame)]
    # ufunc reductions: what the ndarray methods call, without their wrappers
    add, either = np.add.reduce, np.logical_or.reduce
    lower = add(windows[:, :lw], axis=1) / lw
    upper = add(windows[:, lw + m: lw + cfg.upper_window_end], axis=1) / (
        cfg.upper_window_end - m)
    delta = upper - lower
    ecv10 = 0.1 * delta + lower
    ecv90 = 0.9 * delta + lower

    roi = windows[:, lw:]
    above = roi >= ecv10[:, None]
    below = roi <= ecv90[:, None]
    j = above.argmax(axis=1)  # first 10% crossing
    k = cfg.frame - 1 - below[:, ::-1].argmax(axis=1)  # last sample at or below 90%
    # the scan for k runs back to the crossing only: a k before j means no such sample
    crosses, settles = either(above, axis=1), either(below, axis=1) & (k >= j)

    error = np.zeros(z.size, dtype=np.int8)
    tl = j * cfg.ms_per_sample
    tu = (k + 1) * cfg.ms_per_sample
    failed = ~((delta > 0) & crosses & settles)
    if either(failed):
        error[~settles] = DEGENERATE
        error[~crosses] = NO_CROSSING
        error[delta <= 0] = NO_RISE
        tl[failed] = tu[failed] = np.nan
    di_dt = (ecv90 - ecv10) / (tu - tl)
    auc = ((roi[:, 0] + roi[:, m]) / 2.0 + add(roi[:, 1:m], axis=1)) / m

    return FeatureBatch(zero_index=z, ecv_lower_avg=lower, ecv_upper_avg=upper,
                        delta_ecv=delta, ecv10=ecv10, ecv90=ecv90,
                        tl=tl, tu=tu, di_dt=di_dt, auc=auc, error=error)


def extract_features(samples, zero_index: int, cfg: ExtractionConfig) -> TransientFeatures:
    """One-row form of ``extract_batch``.

    Raises NoActuationError when the frame never rises above the 10% level
    (equivalently, the upper window does not exceed the lower average) and
    DegenerateTransientError when the rise is instantaneous.
    """
    batch = extract_batch(samples, [zero_index], cfg)
    err = batch.error_at(0)
    if err is not None:
        raise err
    return batch.row(0)


def extract_all(trace: TransientTrace) -> tuple[list[TransientFeatures],
                                                list[tuple[int, ExtractionError]]]:
    """Detect every edge in a trace and extract all of them in one batch,
    with the windows scaled to the trace's sample rate.

    Per-edge failures never abort the sweep. Returns ``(features,
    diagnostics)``: the feature set of each clean edge in scan order, and a
    ``(zero_index, error)`` pair for each edge that was skipped.
    """
    cfg = ExtractionConfig.for_sample_rate(trace.sample_rate)
    edges = detect_rising_edges(trace.samples, cfg)
    batch = extract_batch(trace.samples, edges, cfg)
    features, diagnostics = [], []
    for i, z in enumerate(edges):
        err = batch.error_at(i)
        if err is None:
            features.append(batch.row(i))
        else:
            diagnostics.append((z, err))
    return features, diagnostics


def write_features_csv(features: list[TransientFeatures], path, full: bool) -> None:
    """Write one row per extracted edge; ``full`` adds every intermediate."""
    columns = _FULL_COLUMNS if full else ["zero_index", "di_dt", "auc"]
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(columns)
        for ft in features:
            w.writerow([ft.zero_index] + [repr(getattr(ft, c)) for c in columns[1:]])

