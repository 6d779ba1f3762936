"""The live monitoring loop: samples -> banks -> features -> inference -> alarms.

Raw ADC codes stream through the ping-pong buffer; each delivered bank is
converted back to mA and scanned for actuation edges, the bank's new edges
are extracted in one batch, and every edge runs through the fault
classifier and the remaining-life regressor. An alarm is
raised when any non-good class probability reaches the fault threshold or
the predicted remaining life falls under the cycle threshold.

Actuations that straddle a bank boundary are handled by carrying the last
(lower_window + frame) samples of each bank into the next bank's analysis
window; edges are de-duplicated by their global sample index.

The producer hands the buffer one block of at most a bank's free space at
a time; pass the code array itself (not an iterator over it) so blocks are
slices of it.

Clocks: with ``virtual`` the producer is unpaced, the consumer runs inline
and all emitted timestamps/latencies are deterministic (sample-derived microseconds
and processing-step counts). Wall-clock latencies are still measured and
reported on the returned TimingReport, so performance assertions work in
either mode. With ``realtime`` the producer sleeps once per block, until
the block's last sample is due on the wall clock, the consumer runs on its
own thread, and the emitted times are measured microseconds.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import tinynn
from .acquisition import PingPongBuffer, TimingReport, run_acquisition
from .errors import ParameterError
from .features import ExtractionConfig, detect_rising_edges, extract_batch
# Kept bound as pipeline.extract_features: the benchmark's tracer wraps that name.
from .features import extract_features  # noqa: F401
from .models import FAULT_CLASSES
from .tinynn import Mlp, ModelKind
from .waveform import (AdcConfig, FaultKind, ValveParams, codes_to_current,
                       current_to_codes, transient_current)


@dataclass(frozen=True)
class MonitorConfig:
    k: int = 10000
    fs: float = 1000.0
    f_op: float = 0.5
    rul_alarm_threshold: float = 100.0   # cycles
    fault_alarm_threshold: float = 0.5   # probability of any non-good class
    clock: str = "virtual"
    adc: AdcConfig = field(default_factory=AdcConfig)

    def __post_init__(self):
        if self.k <= 0 or self.fs <= 0 or self.f_op <= 0:
            raise ParameterError("k, fs and f_op must be > 0")
        if self.rul_alarm_threshold <= 0 or self.fault_alarm_threshold <= 0:
            raise ParameterError("alarm thresholds must be > 0")
        if self.clock not in ("virtual", "realtime"):
            raise ParameterError(f"clock must be 'virtual' or 'realtime', got {self.clock!r}")


@dataclass
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


@dataclass
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
    DiagnosticEvent entries for edges that failed extraction. ``on_event``
    is called with each event as it is emitted (the CLI streams JSON lines
    from it).
    """
    _check_models(fault_model, rul_model)
    excfg = ExtractionConfig.for_sample_rate(cfg.fs)
    carry = excfg.lower_window + excfg.frame

    events: list = []
    it_pc: list[float] = []
    state = {"tail": np.empty(0), "pos": 0, "watermark": -1, "bank": 0}

    def emit(event):
        events.append(event)
        if on_event is not None:
            on_event(event)

    def consume(handle):
        codes = np.array(handle.data, copy=True)
        buf.release(handle)
        ma = codes_to_current(codes, cfg.adc)
        analysis = np.concatenate((state["tail"], ma))
        offset = state["pos"] - state["tail"].size
        edges = [z for z in detect_rising_edges(analysis, excfg)
                 if offset + z > state["watermark"]]  # not yet emitted from the tail
        if edges:
            state["watermark"] = offset + edges[-1]
            t0 = time.perf_counter()
            batch = extract_batch(analysis, edges, excfg)
            extract_share = (time.perf_counter() - t0) / len(edges)
            for i, z in enumerate(edges):
                global_z = offset + z
                err = batch.error_at(i)
                if err is not None:
                    emit(DiagnosticEvent(state["bank"], global_z, type(err).__name__))
                    continue
                t0 = time.perf_counter()
                row = np.array([batch.di_dt[i], batch.auc[i]])
                probs = tinynn.infer(fault_model, row)
                rul = max(float(tinynn.infer(rul_model, row)[0]), 0.0)
                elapsed = extract_share + time.perf_counter() - t0
                it_pc.append(elapsed)
                alarm = (float(probs[1:].max()) >= cfg.fault_alarm_threshold
                         or rul < cfg.rul_alarm_threshold)
                if cfg.clock == "virtual":
                    stamp = round(global_z / cfg.fs * 1e6)
                else:
                    stamp = round(time.time() * 1e6)
                emit(MonitorEvent(buffer_seq=state["bank"], zero_index=global_z,
                                  fault_probs=probs,
                                  predicted_class=FAULT_CLASSES[int(probs.argmax())],
                                  rul=rul, alarm=alarm, it_pc=elapsed, timestamp_us=stamp))
        state["tail"] = analysis[-carry:]
        state["pos"] += ma.size
        state["bank"] += 1

    buf = PingPongBuffer(cfg.k)  # caller-owned so consume() can release handles
    acquired = run_acquisition(source, cfg.k, cfg.fs, consume,
                               clock=cfg.clock, f_op=cfg.f_op, buf=buf)
    return events, replace(acquired, inference_time_per_cycle=(
        sum(it_pc) / len(it_pc) if it_pc else None))


def event_to_json(event, cfg: MonitorConfig, excfg: ExtractionConfig | None = None) -> str:
    """One JSON line per event; virtual-clock latencies are step counts."""
    if excfg is None:
        excfg = ExtractionConfig.for_sample_rate(cfg.fs)
    if isinstance(event, DiagnosticEvent):
        return json.dumps({"type": "diagnostic", "buffer_seq": event.buffer_seq,
                           "zero_index": event.zero_index, "reason": event.reason})
    payload = {
        "type": "event",
        "buffer_seq": event.buffer_seq,
        "zero_index": event.zero_index,
        "fault_probs": [float(p) for p in event.fault_probs],
        "predicted_class": event.predicted_class.value,
        "rul": float(event.rul),
        "alarm": bool(event.alarm),
        "timestamp_us": event.timestamp_us,
    }
    if cfg.clock == "virtual":
        payload["it_pc_steps"] = excfg.lower_window + excfg.frame
    else:
        payload["it_pc_us"] = round(event.it_pc * 1e6)
    return json.dumps(payload)


def report_to_json(report: TimingReport, cfg: MonitorConfig) -> str:
    """Final timing-report JSON line (deterministic under the virtual clock)."""
    payload = {
        "type": "timing_report",
        "clock": cfg.clock,
        "k": report.k,
        "fs": report.fs,
        "f_op": report.f_op,
        "b_fd_us": round(report.buffer_fill_duration * 1e6),
        "c_max": report.max_cycles,
        "lossless": report.lossless,
        "overrun_count": report.overrun_count,
        "banks_delivered": report.banks_delivered,
    }
    excfg = ExtractionConfig.for_sample_rate(cfg.fs)
    if cfg.clock == "virtual":
        payload["it_pc_steps"] = excfg.lower_window + excfg.frame
        payload["it_pb_steps"] = report.k
    else:
        payload["it_pc_us"] = (None if report.inference_time_per_cycle is None
                               else round(report.inference_time_per_cycle * 1e6))
        payload["it_pb_us"] = (None if report.inference_time_per_buffer is None
                               else round(report.inference_time_per_buffer * 1e6))
        payload["producer_lag_max_us"] = round(report.producer_lag_max * 1e6)
    return json.dumps(payload)


def scenario_source(schedule, f_op: float = 0.5, fs: float = 1000.0,
                    params: ValveParams | None = None, noise_std: float = 1.0,
                    seed: int = 0):
    """Raw-code stream with one actuation per ``(FaultCondition,
    DegradationState)`` pair in ``schedule``.

    After 60 ms of idle lead-in, each actuation occupies one operation
    period: energized for the first half, released for the second.
    Returns ``(codes, trigger_indices)`` where the trigger indices are the
    ground-truth actuation starts (for event-completeness checks).
    """
    schedule = list(schedule)
    if not schedule:
        raise ParameterError("schedule needs at least one actuation")
    params = params or ValveParams()
    period = round(fs / f_op)
    on = period // 2
    lead = round(60 * fs / 1000.0)
    t_ms = np.arange(on) * (1000.0 / fs)

    stream = np.full(lead + len(schedule) * period, params.idle_current)
    triggers = [lead + i * period for i in range(len(schedule))]
    for start, (fault, deg) in zip(triggers, schedule):
        stream[start:start + on] = transient_current(params, fault, deg, t_ms)
    if noise_std > 0:
        stream = stream + np.random.default_rng(seed).normal(0.0, noise_std, stream.size)
    return current_to_codes(stream), triggers
