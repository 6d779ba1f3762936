"""Workload inputs and the timed phase of each workload.

Every workload builds its inputs from the seed with the public ``waveform``
functions and drives the program's public API from outside. A monitor
workload hands ``run_monitor`` nothing but the raw code array, passed as
is, so a block-acquisition path can take the array whole. All calls into
the program go through module attributes (``pipeline.run_monitor``, never
a name imported from it) so that the traced run can wrap them.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from valvehealth import features, models, pipeline, tinynn, waveform

import oracle

FAILURE_CYCLE = 1500     # the life, in cycles, the production RUL model is trained on
NOISE_MA = 1.0           # analog noise on every sample, as the CLI scenarios use
LEAD_MS = 60.0           # idle lead-in before the first actuation
JITTER = 0.2             # actuation interval jitter, as a share of the period
SETUP_REPEATS = 5        # set-ups per run; setup_s is their median
MODEL_SEED = 0           # the monitor workloads load models trained once at this seed

# The classifier's quality floors from the acceptance suite (criteria 8 and 9).
MIN_FAULT_ACCURACY = 0.90
MAX_RUL_MAE_SHARE = 0.10


@dataclass(frozen=True)
class MonitorWorkload:
    """A stream of actuations run through ``pipeline.run_monitor``.

    ``actuations`` of None means ``seconds * f_op`` actuations, so a live
    run lasts as long as the run is asked to measure.
    """

    fs: float
    f_op: float
    k: int
    clock: str
    actuations: int | None = None

    def config(self) -> pipeline.MonitorConfig:
        return pipeline.MonitorConfig(k=self.k, fs=self.fs, f_op=self.f_op, clock=self.clock)

    def n_actuations(self, seconds: float) -> int:
        if self.actuations is not None:
            return self.actuations
        return max(1, round(seconds * self.f_op))


@dataclass(frozen=True)
class TrainWorkload:
    """Both production models rebuilt from synthetic datasets."""

    fault_counts: tuple = models.DEFAULT_FAULT_COUNTS
    rul_valves: int = 4


WORKLOADS = {
    "replay_dense": MonitorWorkload(fs=1000.0, f_op=5.0, k=1000, clock="virtual",
                                    actuations=10000),
    "live_10khz": MonitorWorkload(fs=10000.0, f_op=5.0, k=2000, clock="realtime"),
    "train_models": TrainWorkload(),
}

# Paper Table 5: the 11 reference (K, f_op) cells at fs = 1 kHz.
TABLE5 = [(1000, 2), (1000, 1), (2000, 2), (2000, 1), (2000, 0.5),
          (5000, 2), (5000, 1), (5000, 0.5), (10000, 2), (10000, 1), (10000, 0.5)]


# --------------------------------------------------------------------- inputs

@dataclass
class Stream:
    """Raw codes plus the generator's ground truth for every actuation."""

    codes: np.ndarray      # int32 ADC codes: the only thing the program sees
    triggers: np.ndarray   # sample index where each actuation starts
    kinds: np.ndarray      # ground-truth class index (models.FAULT_CLASSES order)
    rul: np.ndarray        # ground-truth remaining cycles

    def actuation_of(self, zero_index: np.ndarray) -> np.ndarray:
        """Index of the actuation whose start is nearest each edge."""
        z = np.asarray(zero_index)
        after = np.searchsorted(self.triggers, z)
        last = self.triggers.size - 1
        lo, hi = np.clip(after - 1, 0, last), np.clip(after, 0, last)
        nearer = np.abs(self.triggers[lo] - z) <= np.abs(self.triggers[hi] - z)
        return np.where(nearer, lo, hi)

    def quality(self, out: oracle.Outcome):
        """(share of events whose class is the true condition, mean absolute
        error of the remaining life in cycles) against the ground truth."""
        ok = ~out.diag
        truth = self.actuation_of(out.z[ok])
        return (float((out.cls[ok] == self.kinds[truth]).mean()),
                float(np.abs(out.rul[ok] - self.rul[truth]).mean()))


def mixed_schedule(n: int, rng: np.random.Generator):
    """All four conditions in a seeded random order, each at a random wear level.

    Under-voltage draws its supply from the band the classifier is trained on.
    """
    kinds = rng.integers(len(models.FAULT_CLASSES), size=n)
    volts = rng.uniform(*models.UNDER_VOLTAGE_RANGE, size=n)
    cycles = rng.integers(0, FAILURE_CYCLE + 1, size=n)
    schedule = []
    for kind, volt, cycle in zip(kinds, volts, cycles):
        kind = models.FAULT_CLASSES[kind]
        if kind is waveform.FaultKind.UNDER_VOLTAGE:
            fault = waveform.FaultCondition.under_voltage(float(volt))
        else:
            fault = waveform.FaultCondition(kind)
        schedule.append((fault, waveform.DegradationState(cycle=int(cycle),
                                                          failure_cycle=FAILURE_CYCLE)))
    return schedule


def synth_stream(fs: float, f_op: float, schedule, rng: np.random.Generator) -> Stream:
    """Quantize one actuation per operation interval: energized for half a
    nominal period, then idle, with ``NOISE_MA`` of analog noise throughout.

    Each interval is the nominal period plus a uniform jitter of up to
    ``JITTER`` of it either way, so the actuation phase wanders against
    the bank boundaries and edges straddle them the way unsynchronized
    real actuations do. Each interval is built and quantized on its own,
    so memory stays at the size of the code array.
    """
    params = waveform.ValveParams()
    period = round(fs / f_op)
    on = period // 2
    lead = round(LEAD_MS * fs / 1000.0)
    spread = int(JITTER * period)
    intervals = period + rng.integers(-spread, spread + 1, size=len(schedule))
    starts = lead + np.concatenate(([0], np.cumsum(intervals[:-1])))
    codes = np.empty(lead + int(intervals.sum()), dtype=np.int32)
    codes[:lead] = waveform.current_to_codes(params.idle_current + rng.normal(0.0, NOISE_MA, lead))
    t_ms = np.arange(on) * (1000.0 / fs)
    for start, length, (fault, deg) in zip(starts.tolist(), intervals.tolist(), schedule):
        seg = params.idle_current + rng.normal(0.0, NOISE_MA, length)
        seg[:on] += waveform.transient_current(params, fault, deg, t_ms) - params.idle_current
        codes[start:start + length] = waveform.current_to_codes(seg)
    kinds = np.array([models.FAULT_CLASSES.index(f.kind) for f, _ in schedule])
    rul = np.array([float(d.failure_cycle - d.cycle) for _, d in schedule])
    return Stream(codes, starts, kinds, rul)


def make_stream(w: MonitorWorkload, seed: int, seconds: float) -> Stream:
    rng = np.random.default_rng(seed)
    return synth_stream(w.fs, w.f_op, mixed_schedule(w.n_actuations(seconds), rng), rng)


# ------------------------------------------------------------------ the models

def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "valvehealth").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def train_production_models(seed: int = MODEL_SEED):
    """The models the CLI would ship: default datasets, default training."""
    fault_model, _, _ = models.train_fault(models.gen_fault_dataset(seed=seed))
    rul_model, _, _ = models.train_rul(models.gen_rul_dataset(n_valves=4, seed=seed))
    return tinynn.serialize(fault_model), tinynn.serialize(rul_model)


def model_blobs(root: Path, cache_dir: Path):
    """Serialized production models, trained once per program source.

    Training takes seconds and does not depend on the run's seed, so the
    bytes are cached under ``cache_dir`` keyed by a digest of the program's
    source; set-up then only pays for ``tinynn.deserialize``.
    """
    path = cache_dir / f"models-{_source_digest(root)}.bin"
    if path.exists():
        data = path.read_bytes()
        (n,) = struct.unpack_from("<I", data)
        return data[4:4 + n], data[4 + n:]
    fault_blob, rul_blob = train_production_models()
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_bytes(struct.pack("<I", len(fault_blob)) + fault_blob + rul_blob)
    tmp.replace(path)
    return fault_blob, rul_blob


# --------------------------------------------------------------- measurement

def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Measured:
    """What one run measured: metric values plus the operation tally."""

    metrics: dict
    attempted: int
    failures: list
    samples: dict = field(default_factory=dict)   # raw per-repeat values
    context: dict = field(default_factory=dict)   # sizes and model quality, for the record


@dataclass
class MonitorRun:
    events: list
    start: float
    wall: float
    cpu: float
    emitted_at: list

    def latencies_s(self, stream: Stream, cfg) -> np.ndarray:
        """Seconds from the due time of the last sample of each event's bank,
        ``t0 + bank_end / fs``, to its ``on_event`` call (realtime clock)."""
        at = np.asarray(self.emitted_at)
        n = stream.codes.size
        bank_end = np.minimum((np.array([e.buffer_seq for e in self.events]) + 1) * cfg.k, n)
        return at - (self.start + bank_end / cfg.fs)


def monitor_once(stream: Stream, fault_model, rul_model, cfg) -> MonitorRun:
    """One ``run_monitor`` call; each event is emitted as a JSON line the way
    the CLI's ``monitor`` command streams it."""
    excfg = features.ExtractionConfig.for_sample_rate(cfg.fs)
    lines: list[str] = []
    emitted_at: list[float] = []

    def on_event(event):
        emitted_at.append(time.perf_counter())
        lines.append(pipeline.event_to_json(event, cfg, excfg))

    cpu0 = time.process_time()
    start = time.perf_counter()
    events, _ = pipeline.run_monitor(stream.codes, fault_model, rul_model, cfg,
                                     on_event=on_event)
    wall = time.perf_counter() - start
    return MonitorRun(events, start, wall, time.process_time() - cpu0, emitted_at)


def setup_monitor(w: MonitorWorkload, seed: int, seconds: float, blobs):
    stream = make_stream(w, seed, seconds)
    return stream, tinynn.deserialize(blobs[0]), tinynn.deserialize(blobs[1])


def _timed_setups(setup):
    """Run ``setup`` SETUP_REPEATS times; returns (median seconds, every
    time, the last result)."""
    times, result = [], None
    for _ in range(SETUP_REPEATS):
        result = None  # let the previous inputs go before building the next
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times, result


def repeat(op, seconds: float) -> list:
    """Results of ``op()`` run back to back until ``seconds`` have passed."""
    out = []
    started = time.perf_counter()
    while True:
        out.append(op())
        if time.perf_counter() - started >= seconds:
            return out


def run_monitor_workload(w: MonitorWorkload, seed: int, seconds: float, blobs) -> Measured:
    """Replay the stream until ``seconds`` have passed (a live stream lasts
    ``seconds`` by construction, so it runs once), then check every replay
    against the whole-stream reference."""
    cfg = w.config()
    live = cfg.clock == "realtime"
    setup_s, setup_times, (stream, fault_model, rul_model) = _timed_setups(
        lambda: setup_monitor(w, seed, seconds, blobs))

    def replay():
        run = monitor_once(stream, fault_model, rul_model, cfg)
        return (oracle.Outcome.from_events(run.events),
                run.latencies_s(stream, cfg) if live else None, run.wall, run.cpu)

    runs = repeat(replay, seconds)  # a live session lasts ``seconds``, so runs once
    rss = peak_rss_mb()  # before the reference computation allocates whole-stream arrays

    ref = oracle.reference(stream.codes, fault_model, rul_model, cfg)
    limit = cfg.k / cfg.fs if live else None
    attempted, failures = 0, []
    for out, lat, _, _ in runs:
        a, f = oracle.check(ref, out, lat, limit)
        attempted += a
        failures += f

    # Totals over the whole measured window, not per-replay medians: the
    # machine's speed drifts in spells of seconds, and a total weighs every
    # spell by its length.
    n, replays = stream.codes.size, len(runs)
    walls = [r[2] for r in runs]
    cpus = [r[3] for r in runs]
    # Live: every event's latency. Replay: the wall time of each whole
    # replay, as train_models times each rebuild.
    latency_ms = np.concatenate([r[1] for r in runs]) * 1e3 if live else np.array(walls) * 1e3
    metrics = {
        "setup_s": setup_s,
        "throughput_msps": n * replays / sum(walls) / 1e6,
        "event_latency_ms_p50": percentile(latency_ms, 50),
        "event_latency_ms_p90": percentile(latency_ms, 90),
        "cpu_per_signal_s": sum(cpus) / (n * replays / cfg.fs),
        "peak_rss_mb": rss,
    }
    accuracy, mae = stream.quality(runs[-1][0])
    return Measured(
        metrics, attempted, failures,
        samples={"setup_s": setup_times, "replay_wall_s": walls, "replay_cpu_s": cpus},
        context={"samples": n, "actuations": int(stream.triggers.size),
                 "reference_edges": int(ref.z.size), "events": int(runs[-1][0].z.size),
                 "replays": replays, "fault_accuracy": accuracy, "rul_mae_cycles": mae})


# ------------------------------------------------------------------ training

@dataclass
class Build:
    wall: float
    cpu: float
    rows: int
    fault_report: object
    rul_report: object
    rul_slope: float
    rul_budget: float


def build_models(w: TrainWorkload, seeds, holdout) -> Build:
    """One model rebuild: both datasets, both trainings, and the held-out
    trajectory check of criterion 9."""
    fault_seed, rul_seed = seeds
    cpu0 = time.process_time()
    start = time.perf_counter()
    fault_ds = models.gen_fault_dataset(w.fault_counts, seed=fault_seed)
    _, _, fault_report = models.train_fault(fault_ds)
    rul_ds = models.gen_rul_dataset(n_valves=w.rul_valves, seed=rul_seed)
    rul_model, _, rul_report = models.train_rul(rul_ds)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    preds = tinynn.infer(rul_model, holdout.x)[:, 0]
    slope = float(np.polyfit(np.arange(preds.size), preds, 1)[0])
    return Build(wall, cpu, len(fault_ds) + len(rul_ds), fault_report, rul_report,
                 slope, MAX_RUL_MAE_SHARE * float(rul_ds.y.max()))


def build_failures(b: Build) -> list[str]:
    """The two operations of a build: each model against its quality floor."""
    out = []
    fr, rr = b.fault_report, b.rul_report
    if fr.accuracy < MIN_FAULT_ACCURACY or int(fr.confusion[0].argmax()) != 0:
        out.append(f"fault model: accuracy {fr.accuracy:.4f} or good row "
                   f"peaks off the good column")
    if rr.mae_cycles > b.rul_budget or not b.rul_slope < 0:
        out.append(f"rul model: MAE {rr.mae_cycles:.2f} > {b.rul_budget:.0f} "
                   f"or held-out slope {b.rul_slope:.3f} >= 0")
    return out


def train_seeds(seed: int):
    """(fault dataset seed, RUL dataset seed, held-out seed) for one run."""
    return [int(s) for s in np.random.default_rng(seed).integers(2 ** 31, size=3)]


def setup_train(holdout_seed: int):
    """The held-out trajectory a rebuilt RUL model is accepted against."""
    return models.gen_rul_dataset(n_valves=1, seed=holdout_seed)


def trace_samples() -> int:
    """Samples in one synthesized dataset row (``synth_transient`` defaults)."""
    return waveform.synth_transient(waveform.ValveParams(), waveform.FaultCondition.good(),
                                    waveform.DegradationState()).samples.size


def run_train_workload(w: TrainWorkload, seed: int, seconds: float) -> Measured:
    """Rebuild the models until ``seconds`` have passed."""
    fault_seed, rul_seed, holdout_seed = train_seeds(seed)
    setup_s, setup_times, holdout = _timed_setups(lambda: setup_train(holdout_seed))
    per_row = trace_samples()

    builds = repeat(lambda: build_models(w, (fault_seed, rul_seed), holdout), seconds)
    rss = peak_rss_mb()

    failures = [f for b in builds for f in build_failures(b)]
    walls = [b.wall for b in builds]
    samples = builds[-1].rows * per_row * len(builds)
    metrics = {
        "setup_s": setup_s,
        "throughput_msps": samples / sum(walls) / 1e6,
        "event_latency_ms_p50": percentile(walls, 50) * 1e3,
        "event_latency_ms_p90": percentile(walls, 90) * 1e3,
        # synth_transient samples at its default 1 kHz
        "cpu_per_signal_s": sum(b.cpu for b in builds) / (samples / 1000.0),
        "peak_rss_mb": rss,
    }
    return Measured(metrics, 2 * len(builds), failures,
                    samples={"setup_s": setup_times, "build_wall_s": walls,
                             "build_cpu_s": [b.cpu for b in builds]},
                    context={"rows": builds[-1].rows, "builds": len(builds),
                             "fault_accuracy": builds[-1].fault_report.accuracy,
                             "rul_mae_cycles": builds[-1].rul_report.mae_cycles})


def run_workload(w, seed: int, seconds: float, blobs) -> Measured:
    if isinstance(w, TrainWorkload):
        return run_train_workload(w, seed, seconds)
    return run_monitor_workload(w, seed, seconds, blobs)


def table5_streams(seed: int, banks: int = 5):
    """A good valve at each Table-5 cell, long enough for ``banks`` banks."""
    rng = np.random.default_rng(seed)
    for k, f_op in TABLE5:
        n = math.ceil(banks * k * f_op / 1000.0)
        schedule = [(waveform.FaultCondition.good(), waveform.DegradationState())] * n
        yield k, f_op, synth_stream(1000.0, f_op, schedule, rng)
