"""Spans recorded from outside the program, and the per-layer metrics.

The traced run replaces public names in the program's modules with
wrappers that record a span (name, start, end, parent, thread, thread CPU
time) around each call, and restores them afterwards. Nothing inside the
program changes. Spans stay in memory and are written to the results file
when the run ends.

Each per-layer metric is listed with the end-to-end metric it should move
in ``LAYER_MAP``.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

from valvehealth import features, models, pipeline, tinynn, waveform

import oracle
import workloads

# per-layer metric -> (end-to-end metric it should move, on which workloads)
LAYER_MAP = {
    "acquisition.self_ms": "throughput_msps on replay_dense; cpu_per_signal_s on live_10khz",
    "acquisition.ns_per_sample": "as acquisition.self_ms",
    "acquisition.banks": "event_latency_ms_* on live_10khz",
    "acquisition.overruns": "event_latency_ms_* on live_10khz",
    "acquisition.queue_wait_ms_p50": "event_latency_ms_* on live_10khz",
    "acquisition.producer_lag_ms": "event_latency_ms_* on live_10khz",
    "pipeline.it_pb_ms.p50": "event_latency_ms_* on live_10khz; throughput_msps on replay_dense",
    "pipeline.it_pb_ms.p99": "as pipeline.it_pb_ms.p50",
    "pipeline.headroom_x": "as pipeline.it_pb_ms.p50",
    "pipeline.event_to_json.ms": "throughput_msps on replay_dense",
    "tinynn.infer.ms": "throughput_msps on replay_dense",
    "tinynn.infer.calls": "as tinynn.infer.ms",
    "tinynn.infer.rows_per_call": "as tinynn.infer.ms",
    "tinynn.train.ms": "throughput_msps and event_latency_ms_* on train_models",
    "tinynn.train.epoch_ms": "as tinynn.train.ms",
    "tinynn.deserialize.ms": "setup_s on the monitor workloads",
    "features.detect_rising_edges.ms": "throughput_msps on replay_dense and train_models",
    "features.detect_rising_edges.calls": "as features.detect_rising_edges.ms",
    "features.extract_features.ms": "throughput_msps on replay_dense and train_models",
    "features.extract_features.calls": "as features.extract_features.ms",
    "features.dup_edge_ratio": "throughput_msps on replay_dense",
    "features.edge_recall": "none: a detector property, reported so misses stay visible",
    "waveform.codes_to_current.ms": "throughput_msps on every workload",
    "waveform.synth_transient.ms": "throughput_msps on train_models",
    "waveform.synth_transient.calls": "as waveform.synth_transient.ms",
    "models.gen_fault_dataset.ms": "throughput_msps on train_models",
    "models.gen_rul_dataset.ms": "throughput_msps on train_models",
    "models.synth_attempts_per_row": "throughput_msps on train_models",
    "models.synth_rows_per_s": "throughput_msps on train_models",
    "models.fault_accuracy": "none: model quality (test split, or events against the "
                             "generator's truth), reported so a change to it shows",
    "models.rul_mae_cycles": "as models.fault_accuracy",
    "trace.overhead_frac": "none: the cost of tracing itself, median traced over median "
                           "untraced wall time of operations alternated for the run's "
                           "seconds (one pair on live_10khz, whose wall the pacing sets)",
    "pipeline.headroom_x.k<K>_fop<f_op>": "none: the paper's Table-5 budget, per cell",
}


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "cpu", "info")

    def row(self):
        return [self.id, self.name, self.parent, self.thread, self.start, self.end, self.cpu]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: int | None) -> Span:
        stack = self._stack()
        span = Span()
        span.id = next(self._ids)
        span.name = name
        span.parent = parent if parent is not None else (stack[-1] if stack else None)
        span.thread = threading.get_ident()
        span.info = None
        stack.append(span.id)
        span.cpu = time.thread_time()
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        span = self._open(name, parent)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, note=None, parent: int | None = None):
        """``fn`` recording a span per call; ``note(args, result)`` is kept
        as the span's info."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, parent)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span.info = note(args, result)
                return result
            finally:
                self._close(span)
        return traced

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_ms(self, name: str) -> float:
        return sum(s.end - s.start for s in self.named(name)) * 1e3


def _rows(args, result):
    x = np.asarray(args[1])
    return 1 if x.ndim == 1 else x.shape[0]


# (module, attribute, span name, note). Each module that binds a name gets
# its own wrapper, so a call is recorded once whichever module it goes through.
TARGETS = [
    (waveform, "codes_to_current", "waveform.codes_to_current", None),
    (pipeline, "codes_to_current", "waveform.codes_to_current", None),
    (waveform, "synth_transient", "waveform.synth_transient", None),
    (models, "synth_transient", "waveform.synth_transient", None),
    (features, "detect_rising_edges", "features.detect_rising_edges", lambda a, r: len(r)),
    (pipeline, "detect_rising_edges", "features.detect_rising_edges", lambda a, r: len(r)),
    (features, "extract_features", "features.extract_features", None),
    (pipeline, "extract_features", "features.extract_features", None),
    (tinynn, "infer", "tinynn.infer", _rows),
    (tinynn, "train", "tinynn.train", lambda a, r: a[3].epochs),
    (tinynn, "deserialize", "tinynn.deserialize", None),
    (pipeline, "event_to_json", "pipeline.event_to_json", None),
    (pipeline, "run_monitor", "pipeline.run_monitor", None),
    (models, "gen_fault_dataset", "models.gen_fault_dataset", lambda a, r: len(r)),
    (models, "gen_rul_dataset", "models.gen_rul_dataset", lambda a, r: len(r)),
    (models, "train_fault", "models.train_fault", None),
    (models, "train_rul", "models.train_rul", None),
]


def _traced_acquisition(tracer: Tracer, run_acquisition):
    """``run_acquisition`` with a span around it and one around each consumer
    call. Under the realtime clock each bank handout is also timestamped, to
    measure how late the producer runs (a per-sample wrapper under the
    virtual clock would swamp the loop it measures)."""
    @functools.wraps(run_acquisition)
    def traced(source, k, fs, consumer, *args, **kwargs):
        with tracer.span("acquisition.run_acquisition") as run:
            buf = kwargs.get("buf")
            info = run.info = {"k": k, "fs": fs, "samples": len(source), "handouts": [],
                               "clock": kwargs.get("clock", "virtual")}
            if info["clock"] == "realtime" and buf is not None:
                push = buf.push_sample

                def push_sample(code):
                    handle = push(code)
                    if handle is not None:
                        info["handouts"].append((handle.seq, time.perf_counter()))
                    return handle
                buf.push_sample = push_sample
            wrapped = tracer.wrap("acquisition.consumer", consumer,
                                  note=lambda a, r: a[0].seq, parent=run.id)
            info["report"] = run_acquisition(source, k, fs, wrapped, *args, **kwargs)
            return info["report"]
    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced name for the duration of the block."""
    saved = []
    try:
        for module, attr, name, note in TARGETS:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), note))
        saved.append((pipeline, "run_acquisition", pipeline.run_acquisition))
        pipeline.run_acquisition = _traced_acquisition(tracer, pipeline.run_acquisition)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --------------------------------------------------------------- the metrics

def _acquisition_metrics(tracer: Tracer) -> dict:
    runs = tracer.named("acquisition.run_acquisition")
    consumers = tracer.named("acquisition.consumer")
    by_parent: dict[int, list[Span]] = {}
    for c in consumers:
        by_parent.setdefault(c.parent, []).append(c)
    self_cpu, samples, overruns, it_pb, waits, lags, b_fd = 0.0, 0, 0, [], [], [], []
    for run in runs:
        info = run.info
        mine = by_parent.get(run.id, [])
        # producer-thread CPU: inline (virtual) consumers are subtracted, a
        # realtime consumer runs on its own thread and never counted
        self_cpu += run.cpu - sum(c.cpu for c in mine if c.thread == run.thread)
        samples += info["samples"]
        overruns += info["report"].overrun_count
        it_pb += [c.end - c.start for c in mine]
        b_fd.append(info["k"] / info["fs"])
        if info["clock"] == "realtime":
            def bank_end(seq):
                return min((seq + 1) * info["k"], info["samples"])
            waits += [c.start - (run.start + bank_end(c.info) / info["fs"]) for c in mine]
            lags += [t - (run.start + (bank_end(seq) - 1) / info["fs"])
                     for seq, t in info["handouts"]]
    p99 = workloads.percentile(it_pb, 99) if it_pb else 0.0
    return {
        "acquisition.self_ms": self_cpu * 1e3,
        "acquisition.ns_per_sample": self_cpu * 1e9 / samples if samples else 0.0,
        "acquisition.banks": len(consumers),
        "acquisition.overruns": overruns,
        "acquisition.queue_wait_ms_p50": workloads.percentile(waits, 50) * 1e3 if waits else 0.0,
        "acquisition.producer_lag_ms": max(lags) * 1e3 if lags else 0.0,
        "pipeline.it_pb_ms.p50": workloads.percentile(it_pb, 50) * 1e3 if it_pb else 0.0,
        "pipeline.it_pb_ms.p99": p99 * 1e3,
        "pipeline.headroom_x": max(b_fd) / p99 if p99 else 0.0,
    }


def layer_metrics(setup: Tracer, op: Tracer, used_edges: int, edge_recall: float,
                  overhead: float, table5: dict) -> dict:
    """Per-layer metrics of one traced operation.

    ``used_edges`` is how many detected edges became an output (events and
    diagnostics, or dataset rows); the rest were rescanned and discarded.
    """
    infer = op.named("tinynn.infer")
    detect = op.named("features.detect_rising_edges")
    train = op.named("tinynn.train")
    synth = op.named("waveform.synth_transient")
    rows = sum(s.info for s in op.named("models.gen_fault_dataset")
               + op.named("models.gen_rul_dataset"))
    gen_ms = op.total_ms("models.gen_fault_dataset") + op.total_ms("models.gen_rul_dataset")
    detected = sum(s.info for s in detect)
    epochs = sum(s.info for s in train)
    out = _acquisition_metrics(op)
    out.update({
        "pipeline.event_to_json.ms": op.total_ms("pipeline.event_to_json"),
        "tinynn.infer.ms": op.total_ms("tinynn.infer"),
        "tinynn.infer.calls": len(infer),
        "tinynn.infer.rows_per_call": (sum(s.info for s in infer) / len(infer)) if infer else 0.0,
        "tinynn.train.ms": op.total_ms("tinynn.train"),
        "tinynn.train.epoch_ms": op.total_ms("tinynn.train") / epochs if epochs else 0.0,
        "tinynn.deserialize.ms": setup.total_ms("tinynn.deserialize"),
        "features.detect_rising_edges.ms": op.total_ms("features.detect_rising_edges"),
        "features.detect_rising_edges.calls": len(detect),
        "features.extract_features.ms": op.total_ms("features.extract_features"),
        "features.extract_features.calls": len(op.named("features.extract_features")),
        "features.dup_edge_ratio": (detected - used_edges) / detected if detected else 0.0,
        "features.edge_recall": edge_recall,
        "waveform.codes_to_current.ms": op.total_ms("waveform.codes_to_current"),
        "waveform.synth_transient.ms": op.total_ms("waveform.synth_transient"),
        "waveform.synth_transient.calls": len(synth),
        "models.gen_fault_dataset.ms": op.total_ms("models.gen_fault_dataset"),
        "models.gen_rul_dataset.ms": op.total_ms("models.gen_rul_dataset"),
        "models.synth_attempts_per_row": len(synth) / rows if rows else 0.0,
        "models.synth_rows_per_s": rows / (gen_ms / 1e3) if rows else 0.0,
        "trace.overhead_frac": overhead,
    })
    out.update(table5)
    return out


def table5_headroom(blobs, seed: int) -> dict:
    """B_fd / IT_pb p99 on each Table-5 cell, from consumer spans."""
    fault_model, rul_model = tinynn.deserialize(blobs[0]), tinynn.deserialize(blobs[1])
    out = {}
    for k, f_op, stream in workloads.table5_streams(seed):
        tracer = Tracer()
        cfg = pipeline.MonitorConfig(k=k, fs=1000.0, f_op=f_op)
        saved = pipeline.run_acquisition
        pipeline.run_acquisition = _traced_acquisition(tracer, saved)
        try:
            pipeline.run_monitor(stream.codes, fault_model, rul_model, cfg)
        finally:
            pipeline.run_acquisition = saved
        it_pb = [c.end - c.start for c in tracer.named("acquisition.consumer")]
        out[f"pipeline.headroom_x.k{k}_fop{f_op:g}"] = (k / 1000.0) / workloads.percentile(it_pb, 99)
    return out


# ------------------------------------------------------------- the traced run

def alternate(op, seconds: float):
    """Untraced and traced calls of ``op`` alternated until ``seconds`` have
    passed, at least one of each. Returns (untraced walls, traced walls,
    the last traced call's tracer and result)."""
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        plain.append(op().wall)
        tracer = Tracer()
        with instrument(tracer):
            result = op()
        traced.append(result.wall)
        if time.perf_counter() - started >= seconds:
            return plain, traced, tracer, result


def traced_run(w, seed: int, seconds: float, blobs):
    """Untraced and traced operations of the workload, alternated for
    ``seconds``. The per-layer metrics come from the last traced operation;
    ``trace.overhead_frac`` compares the medians of both kinds' wall times.

    Returns ``(metrics, attempted, failures, spans)``.
    """
    setup = Tracer()
    if isinstance(w, workloads.TrainWorkload):
        fault_seed, rul_seed, holdout_seed = workloads.train_seeds(seed)
        with instrument(setup):
            holdout = workloads.setup_train(holdout_seed)
        plain, traced, op, build = alternate(
            lambda: workloads.build_models(w, (fault_seed, rul_seed), holdout), seconds)
        failures = workloads.build_failures(build)
        attempted, used = 2, build.rows
        recall = build.rows / max(len(op.named("waveform.synth_transient")), 1)
        quality = build.fault_report.accuracy, build.rul_report.mae_cycles
    else:
        cfg = w.config()
        with instrument(setup):
            stream, fm, rm = workloads.setup_monitor(w, seed, seconds, blobs)
        plain, traced, op, run = alternate(
            lambda: workloads.monitor_once(stream, fm, rm, cfg), seconds)
        ref = oracle.reference(stream.codes, fm, rm, cfg)
        out = oracle.Outcome.from_events(run.events)
        limit = cfg.k / cfg.fs if cfg.clock == "realtime" else None
        attempted, failures = oracle.check(ref, out, run.latencies_s(stream, cfg) if limit
                                           else None, limit)
        used = len(run.events)
        recall = ref.z.size / stream.triggers.size
        quality = stream.quality(out)
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics = layer_metrics(setup, op, used, recall, overhead, table5_headroom(blobs, seed))
    metrics["models.fault_accuracy"], metrics["models.rul_mae_cycles"] = quality
    spans = [s.row() for s in setup.spans + op.spans]
    return metrics, attempted, failures, spans
