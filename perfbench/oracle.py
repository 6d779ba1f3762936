"""Whole-stream reference for the monitor's events.

The reference converts the entire code array at once, runs
``detect_rising_edges`` over it, extracts every edge's features, and runs
each network once on the stacked rows. The streaming monitor must produce
exactly the same ``zero_index`` list, the same class and alarm for each
edge, and probabilities and remaining life within ``TOLERANCE``. One
operation is one reference edge; it fails when it is missing, mismatched,
a diagnostic, or (live) later than its bank's fill duration. An event at
an index the reference does not have is an extra operation that failed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from valvehealth import errors, features, models, pipeline, tinynn, waveform

TOLERANCE = 1e-9


@dataclass
class Outcome:
    """Events reduced to arrays; diagnostics carry NaN outputs."""

    z: np.ndarray        # zero_index per event, in emission order
    diag: np.ndarray     # True where the event is a diagnostic
    cls: np.ndarray      # predicted class index (-1 for diagnostics)
    alarm: np.ndarray
    probs: np.ndarray    # (n, 4)
    rul: np.ndarray

    @classmethod
    def from_events(cls, events) -> "Outcome":
        n = len(events)
        z = np.empty(n, dtype=np.int64)
        diag = np.zeros(n, dtype=bool)
        klass = np.full(n, -1, dtype=np.int64)
        alarm = np.zeros(n, dtype=bool)
        probs = np.full((n, 4), np.nan)
        rul = np.full(n, np.nan)
        for i, e in enumerate(events):
            z[i] = e.zero_index
            if isinstance(e, pipeline.DiagnosticEvent):
                diag[i] = True
                continue
            klass[i] = models.FAULT_CLASSES.index(e.predicted_class)
            alarm[i] = e.alarm
            probs[i] = e.fault_probs
            rul[i] = e.rul
        return cls(z, diag, klass, alarm, probs, rul)


def reference(codes, fault_model, rul_model, cfg: pipeline.MonitorConfig) -> Outcome:
    """The events a monitor must emit for ``codes``, computed whole-stream."""
    excfg = features.ExtractionConfig.for_sample_rate(cfg.fs)
    ma = waveform.codes_to_current(codes, cfg.adc)
    edges = features.detect_rising_edges(ma, excfg)
    n = len(edges)
    diag = np.zeros(n, dtype=bool)
    rows = np.zeros((n, 2))
    for i, z in enumerate(edges):
        try:
            ft = features.extract_features(ma, z, excfg)
        except errors.ExtractionError:
            diag[i] = True
            continue
        rows[i] = ft.di_dt, ft.auc
    ok = ~diag
    probs = np.full((n, 4), np.nan)
    rul = np.full(n, np.nan)
    klass = np.full(n, -1, dtype=np.int64)
    alarm = np.zeros(n, dtype=bool)
    if ok.any():
        probs[ok] = tinynn.infer(fault_model, rows[ok])
        rul[ok] = np.maximum(tinynn.infer(rul_model, rows[ok])[:, 0], 0.0)
        klass[ok] = probs[ok].argmax(axis=1)
        alarm[ok] = ((probs[ok, 1:].max(axis=1) >= cfg.fault_alarm_threshold)
                     | (rul[ok] < cfg.rul_alarm_threshold))
    return Outcome(np.asarray(edges, dtype=np.int64), diag, klass, alarm, probs, rul)


def check(ref: Outcome, out: Outcome, latency_s=None, limit_s=None):
    """Compare one run against the reference.

    Returns ``(attempted, failures)`` where ``failures`` holds one line per
    failed operation. ``latency_s`` (per event, in ``out`` order) is checked
    against ``limit_s`` when both are given.
    """
    if out.z.size == 0:
        return ref.z.size, [f"missing: no event at reference edge {z}" for z in ref.z.tolist()]
    failures = []
    position = {}
    for i, z in enumerate(out.z.tolist()):
        if z in position or (position and z <= out.z[i - 1]):
            failures.append(f"extra: event at {z} is duplicated or out of order")
        else:
            position[z] = i
    ref_set = set(ref.z.tolist())
    failures += [f"extra: event at {z} has no reference edge"
                 for z in position if z not in ref_set]
    extras = len(failures)

    at = np.array([position.get(z, -1) for z in ref.z.tolist()], dtype=np.int64)
    found = at >= 0
    i = np.where(found, at, 0)
    diag = found & (ref.diag | out.diag[i])
    prob_err = np.nan_to_num(np.abs(out.probs[i] - ref.probs).max(axis=1), nan=np.inf)
    rul_err = np.nan_to_num(np.abs(out.rul[i] - ref.rul), nan=np.inf)
    mismatch = found & ~diag & ((out.cls[i] != ref.cls) | (out.alarm[i] != ref.alarm)
                                | (prob_err > TOLERANCE) | (rul_err > TOLERANCE))
    late = np.zeros_like(found)
    if latency_s is not None:
        late = found & ~diag & ~mismatch & (np.asarray(latency_s)[i] > limit_s)

    for r in np.flatnonzero(~found | diag | mismatch | late):
        z, e = int(ref.z[r]), int(i[r])
        if not found[r]:
            failures.append(f"missing: no event at reference edge {z}")
        elif diag[r]:
            failures.append(f"diagnostic: edge {z} failed extraction (reference "
                            f"{bool(ref.diag[r])}, monitor {bool(out.diag[e])})")
        elif mismatch[r]:
            failures.append(f"mismatch at {z}: class {out.cls[e]} vs {ref.cls[r]}, alarm "
                            f"{bool(out.alarm[e])} vs {bool(ref.alarm[r])}, prob error "
                            f"{prob_err[r]:.3g}, rul error {rul_err[r]:.3g}")
        else:
            failures.append(f"late: event at {z} came {latency_s[e] * 1e3:.1f} ms after "
                            f"its bank was due, over the {limit_s * 1e3:.0f} ms budget")
    return ref.z.size + extras, failures
