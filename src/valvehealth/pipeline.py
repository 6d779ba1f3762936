"""The live monitoring loop: samples -> banks -> features -> inference -> alarms.

Raw ADC codes stream through the ping-pong buffer that ``run_acquisition``
owns; each delivered bank is converted back to mA, released, and scanned
for actuation edges. A bank's place in the stream follows from its
sequence number, because every bank before the last one is full. The
bank's new edges are extracted in one batch, and every edge runs through
the fault classifier and the remaining-life regressor. An alarm is raised
when any non-good class probability reaches the fault threshold or the
predicted remaining life falls under the cycle threshold.

Actuations that straddle a bank boundary are handled by carrying the last
(lower_window + frame) samples of each bank into the next bank's analysis
window; edges are de-duplicated by their global sample index.

The producer hands the buffer one block of at most a bank's free space at
a time; pass the code array itself (not an iterator over it) so blocks are
slices of it.

Clocks: with ``virtual`` the producer is unpaced, the consumer runs inline
and all emitted timestamps/latencies are deterministic (sample-derived microseconds
and processing-step counts). Wall-clock latencies are still measured, IT_pb
on the returned TimingReport and IT_pc on each event, so performance
assertions work in either mode. With ``realtime`` the producer writes each
block before it sleeps, until the block's last sample is due on the wall
clock, the consumer runs on its own thread, and the emitted times are
measured microseconds. A consumer that falls behind never sees the banks
that were reused before it took them (each is a counted overrun); after
such a gap the carried samples no longer adjoin the next bank, so they are
dropped and the analysis restarts at that bank.

Each event line is written from a template that gives the bytes
``json.dumps`` would give, without the encoder's per-call set-up.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import tinynn
from .acquisition import TimingReport, buffer_fill_duration, max_cycles, run_acquisition
from .errors import ParameterError
from .features import ExtractionConfig, detect_rising_edges, extract_batch
# Kept bound as pipeline.extract_features: the benchmark's tracer wraps that name.
from .features import extract_features  # noqa: F401
from .models import FAULT_CLASSES
from .tinynn import Mlp, ModelKind
from .waveform import (BOARD_ADC, AdcConfig, FaultKind, ValveParams, codes_to_current,
                       current_to_codes, drive_currents, effective_transient)


@dataclass(frozen=True)
class MonitorConfig:
    k: int
    fs: float
    f_op: float
    rul_alarm_threshold: float = 100.0   # cycles
    fault_alarm_threshold: float = 0.5   # probability of any non-good class
    clock: str = "virtual"
    adc: AdcConfig = BOARD_ADC

    def __post_init__(self):
        if not isinstance(self.k, numbers.Integral) or self.k <= 0:
            raise ParameterError(f"k must be an integer > 0, got {self.k!r}")
        rates = (self.fs, self.f_op, self.rul_alarm_threshold, self.fault_alarm_threshold)
        if not all(0 < v < np.inf for v in rates):
            raise ParameterError("fs, f_op and the alarm thresholds must be finite and > 0")
        if self.clock not in ("virtual", "realtime"):
            raise ParameterError(f"clock must be 'virtual' or 'realtime', got {self.clock!r}")


@dataclass(slots=True)
class MonitorEvent:
    """One inference record per detected actuation."""

    buffer_seq: int
    zero_index: int              # global sample index of the edge
    fault_probs: np.ndarray      # length 4, sums to 1
    predicted_class: FaultKind
    rul: float                   # predicted remaining cycles, clamped at 0
    alarm: bool
    it_pc: float                 # wall seconds: the bank's extraction time divided by
                                 # its edge count, plus this edge's two inferences
    timestamp_us: int            # virtual: sample-derived; realtime: wall clock


@dataclass(slots=True)
class DiagnosticEvent:
    """An edge whose feature extraction failed; the stream continues."""

    buffer_seq: int
    zero_index: int
    reason: str


def _check_models(fault_model: Mlp, rul_model: Mlp) -> None:
    if fault_model.kind is not ModelKind.CLASSIFIER or fault_model.out_dim != len(FAULT_CLASSES):
        raise ParameterError("fault_model must be a 4-class classifier")
    if rul_model.kind is not ModelKind.REGRESSOR or rul_model.out_dim != 1:
        raise ParameterError("rul_model must be a single-output regressor")


def run_monitor(source, fault_model: Mlp, rul_model: Mlp, cfg: MonitorConfig,
                on_event=None):
    """Run the full loop over a stream of raw ADC codes.

    Returns ``(events, report)`` where ``events`` also contains
    DiagnosticEvent entries for edges that failed extraction and ``report``
    is the acquisition's TimingReport; each MonitorEvent carries its own
    IT_pc. ``on_event`` is called with each event as it is emitted (the CLI
    streams JSON lines from it).
    """
    _check_models(fault_model, rul_model)
    excfg = ExtractionConfig.for_sample_rate(cfg.fs)
    carry = excfg.lower_window + excfg.frame

    events: list = []
    tail = np.empty(0)  # the previous bank's last ``carry`` samples, in mA
    next_seq = 0        # the bank that ``tail`` runs into
    watermark = -1      # global index of the last edge emitted

    def emit(event):
        events.append(event)
        if on_event is not None:
            on_event(event)

    def consume(handle):
        nonlocal tail, next_seq, watermark
        ma = codes_to_current(handle.data, cfg.adc)
        handle.release()
        if handle.seq != next_seq:  # the banks in between were reused, never delivered
            tail = tail[:0]
        next_seq = handle.seq + 1
        analysis = np.concatenate((tail, ma))
        offset = handle.seq * cfg.k - tail.size
        edges = [z for z in detect_rising_edges(analysis, excfg)
                 if offset + z > watermark]  # not yet emitted from the tail
        if edges:
            watermark = offset + edges[-1]
            t0 = time.perf_counter()
            batch = extract_batch(analysis, edges, excfg)
            extract_share = (time.perf_counter() - t0) / len(edges)
            for i, z in enumerate(edges):
                global_z = offset + z
                if batch.error[i]:
                    reason = type(batch.error_at(i)).__name__
                    emit(DiagnosticEvent(handle.seq, global_z, reason))
                    continue
                t0 = time.perf_counter()
                row = np.array([batch.di_dt[i], batch.auc[i]])
                probs = tinynn.infer(fault_model, row)
                rul = max(float(tinynn.infer(rul_model, row)[0]), 0.0)
                elapsed = extract_share + time.perf_counter() - t0
                alarm = (float(np.maximum.reduce(probs[1:])) >= cfg.fault_alarm_threshold
                         or rul < cfg.rul_alarm_threshold)
                if cfg.clock == "virtual":
                    stamp = round(global_z / cfg.fs * 1e6)
                else:
                    stamp = round(time.time() * 1e6)
                emit(MonitorEvent(buffer_seq=handle.seq, zero_index=global_z,
                                  fault_probs=probs,
                                  predicted_class=FAULT_CLASSES[int(probs.argmax())],
                                  rul=rul, alarm=alarm, it_pc=elapsed, timestamp_us=stamp))
        tail = analysis[-carry:]

    return events, run_acquisition(source, cfg.k, cfg.fs, consume, clock=cfg.clock)


# A MonitorEvent line in ``json.dumps``' key order and separators; the
# template skips the encoder's per-call set-up, which is most of its cost.
_EVENT_LINE = ('{"type": "event", "buffer_seq": %d, "zero_index": %d, '
               '"fault_probs": [%s], "predicted_class": %s, "rul": %s, "alarm": %s, '
               '"timestamp_us": %d, "%s": %d}')
_CLASS_JSON = {kind: json.dumps(kind.value) for kind in FaultKind}


def event_to_json(event, cfg: MonitorConfig, excfg: ExtractionConfig) -> str:
    """One JSON line per event, byte for byte what ``json.dumps`` writes;
    virtual-clock latencies are step counts.
    ``excfg`` is ``ExtractionConfig.for_sample_rate(cfg.fs)``."""
    if isinstance(event, DiagnosticEvent):
        return json.dumps({"type": "diagnostic", "buffer_seq": event.buffer_seq,
                           "zero_index": event.zero_index, "reason": event.reason})
    if cfg.clock == "virtual":
        latency = ("it_pc_steps", excfg.lower_window + excfg.frame)
    else:
        latency = ("it_pc_us", round(event.it_pc * 1e6))
    probs, rul = list(map(float, event.fault_probs)), float(event.rul)
    # json.dumps writes a finite float as its repr
    number = repr if all(map(math.isfinite, probs)) and math.isfinite(rul) else json.dumps
    return _EVENT_LINE % (
        event.buffer_seq, event.zero_index, ", ".join(map(number, probs)),
        _CLASS_JSON[event.predicted_class], number(rul),
        "true" if event.alarm else "false", event.timestamp_us, *latency)


def report_to_json(report: TimingReport, cfg: MonitorConfig, events) -> str:
    """Final timing-report JSON line (deterministic under the virtual clock).

    The rates come from ``cfg`` and the measurements from ``report``;
    under the realtime clock IT_pc is the mean ``it_pc`` of the run's
    MonitorEvents, summed in emission order.
    """
    payload = {
        "type": "timing_report",
        "clock": cfg.clock,
        "k": cfg.k,
        "fs": cfg.fs,
        "f_op": cfg.f_op,
        "b_fd_us": round(buffer_fill_duration(cfg.k, cfg.fs) * 1e6),
        "c_max": max_cycles(cfg.k, cfg.f_op, cfg.fs),
        "lossless": report.overrun_count == 0,
        "overrun_count": report.overrun_count,
        "banks_delivered": report.banks_delivered,
    }
    excfg = ExtractionConfig.for_sample_rate(cfg.fs)
    if cfg.clock == "virtual":
        payload["it_pc_steps"] = excfg.lower_window + excfg.frame
        payload["it_pb_steps"] = cfg.k
    else:
        it_pc = [e.it_pc for e in events if isinstance(e, MonitorEvent)]
        payload["it_pc_us"] = round(sum(it_pc) / len(it_pc) * 1e6) if it_pc else None
        payload["it_pb_us"] = (None if report.inference_time_per_buffer is None
                               else round(report.inference_time_per_buffer * 1e6))
        payload["producer_lag_max_us"] = round(report.producer_lag_max * 1e6)
    return json.dumps(payload)


def scenario_source(schedule, *, fs: float, f_op: float, params: ValveParams,
                    noise_std: float, seed: int):
    """Raw-code stream with one actuation per ``(FaultCondition,
    DegradationState)`` pair in ``schedule``, sampled at ``fs`` Hz with one
    actuation every ``1 / f_op`` seconds; pass the monitor's own rates.

    After 60 ms of idle lead-in, each actuation occupies one operation
    period: energized for the first half, released for the second.
    Gaussian noise of ``noise_std`` mA (finite, >= 0) from
    ``default_rng(seed)`` is added before quantization.
    Returns ``(codes, trigger_indices)`` where the trigger indices are the
    ground-truth actuation starts (for event-completeness checks).
    """
    schedule = list(schedule)
    if not schedule:
        raise ParameterError("schedule needs at least one actuation")
    if not 0 <= noise_std < np.inf:
        raise ParameterError(f"noise_std must be finite and >= 0, got {noise_std!r}")
    if not (0 < fs < np.inf and 0 < f_op < np.inf and fs / f_op >= 2):
        raise ParameterError(f"a period needs >= 2 samples and finite rates: fs={fs}, f_op={f_op}")
    period = round(fs / f_op)
    on = period // 2
    lead = round(60 * fs / 1000.0)
    t_ms = np.arange(on) * (1000.0 / fs)

    stream = np.full(lead + len(schedule) * period, params.idle_current)
    periods = stream[lead:].reshape(len(schedule), period)  # a view: one row per actuation
    periods[:, :on] = drive_currents(
        [effective_transient(params, fault, deg) for fault, deg in schedule], t_ms)
    triggers = [lead + i * period for i in range(len(schedule))]
    if noise_std > 0:
        stream = stream + np.random.default_rng(seed).normal(0.0, noise_std, stream.size)
    return current_to_codes(stream), triggers
