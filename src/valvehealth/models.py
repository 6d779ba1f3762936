"""The two production models, dataset generation, labeling, and splits.

Fault detection is a 4-class softmax network over the (di/dt, AUC) pair;
remaining useful life is a scalar regression over the same pair. Synthetic
datasets are produced by running the waveform generator through the feature
extractor, so every labeled row went through the same path real captures
would take: rows are synthesized a chunk at a time as one trace matrix,
the chunk is scanned for edges in one ``detect_batch`` call, and its edges
are extracted in one batch. Captured data can replace synthetic data
through the dataset CSV format (``di_dt,auc,target``) without code changes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import tinynn
from .errors import CsvFormatError, ExtractionError, ParameterError
from .features import OK, ExtractionConfig, detect_batch, extract_batch
from .tinynn import Activation, LayerSpec, Mlp, ModelKind, TrainConfig, new_mlp
from .waveform import (DegradationState, FaultCondition, FaultKind, ValveParams,
                       effective_transient, synth_batch)
# Kept bound as models.synth_transient: the benchmark's tracer wraps that name.
from .waveform import synth_transient  # noqa: F401

# Class order fixes the one-hot layout and the confusion-matrix axes.
FAULT_CLASSES: tuple[FaultKind, ...] = (FaultKind.GOOD, FaultKind.SPOOL_STUCK,
                                        FaultKind.SPRING_FAILURE, FaultKind.UNDER_VOLTAGE)

# Under-voltage rows sample the 8-14 V band the faulty valve was driven over.
UNDER_VOLTAGE_RANGE = (8.0, 14.0)

DEFAULT_FAULT_COUNTS = (600, 200, 200, 400)

_SYNTH_RETRIES = 10  # seeds tried per actuation before synthesis gives up
_SYNTH_CHUNK = 64    # rows per trace matrix; keeps the batch's temporaries under 1 MB
_SYNTH_FS = 1000.0   # Hz, the sample rate of every synthesized dataset row
_RUL_CYCLE_STEP = 5  # operations between two rows of a run-to-failure trajectory


def one_hot(labels: np.ndarray) -> np.ndarray:
    """Integer class labels to one-hot rows of length 4."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, len(FAULT_CLASSES)))
    out[np.arange(labels.size), labels] = 1.0
    return out


@dataclass
class Dataset:
    """Feature rows plus targets; ``kind`` is 'fault' or 'rul'."""

    x: np.ndarray                # (n, 2): di_dt, auc
    y: np.ndarray                # int class indices or float remaining cycles
    kind: str

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.kind not in ("fault", "rul"):
            raise ParameterError(f"kind must be 'fault' or 'rul', got {self.kind!r}")
        self.y = np.asarray(self.y, dtype=np.int64 if self.kind == "fault" else np.float64)
        if self.x.ndim != 2 or self.x.shape[1] != 2 or self.x.shape[0] == 0:
            raise ParameterError("x must be a non-empty (n, 2) array")
        if self.y.shape != (self.x.shape[0],):
            raise ParameterError("y must have one target per row")

    def __len__(self):
        return self.x.shape[0]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.x[idx], self.y[idx], self.kind)


@dataclass
class FaultReport:
    """Classifier quality on a test split."""

    accuracy: float
    confusion: np.ndarray  # (4, 4): rows true class, mean predicted probs


@dataclass
class RulReport:
    """Regressor quality on a test split: mean absolute error in cycles."""

    mae_cycles: float


def build_fault_model(seed: int) -> Mlp:
    """4-class fault classifier: 2 -> 36 -> 24 -> 12 -> 4, LeakyReLU/softmax."""
    specs = [LayerSpec(2, 36, Activation.LEAKY_RELU),
             LayerSpec(36, 24, Activation.LEAKY_RELU),
             LayerSpec(24, 12, Activation.LEAKY_RELU),
             LayerSpec(12, 4, Activation.SOFTMAX)]
    return new_mlp(specs, seed=seed, kind=ModelKind.CLASSIFIER)


def build_rul_model(seed: int) -> Mlp:
    """Remaining-life regressor: 2 -> 64 -> 16 -> 4 -> 1, ReLU/linear."""
    specs = [LayerSpec(2, 64, Activation.RELU),
             LayerSpec(64, 16, Activation.RELU),
             LayerSpec(16, 4, Activation.RELU),
             LayerSpec(4, 1, Activation.LINEAR)]
    return new_mlp(specs, seed=seed, kind=ModelKind.REGRESSOR)


def split_dataset(ds: Dataset, seed: int):
    """Deterministic 70/20/10 (train, val, test) split; stratified by class
    for classification so the small test split keeps every class."""
    rng = np.random.default_rng(seed)
    n = len(ds)
    parts: list[list[int]] = [[], [], []]

    def allocate(indices: np.ndarray):
        m = indices.size
        n_tr = round(0.7 * m)
        n_va = round(0.2 * m)  # n_tr + n_va <= m for every m
        shuffled = indices[rng.permutation(m)]
        parts[0].extend(shuffled[:n_tr].tolist())
        parts[1].extend(shuffled[n_tr:n_tr + n_va].tolist())
        parts[2].extend(shuffled[n_tr + n_va:].tolist())

    if ds.kind == "fault":
        for c in range(len(FAULT_CLASSES)):
            allocate(np.flatnonzero(ds.y == c))
    else:
        allocate(np.arange(n))

    if any(len(p) == 0 for p in parts):
        raise ParameterError(f"the 70/20/10 split leaves an empty part for n={n}")
    return tuple(ds.subset(np.sort(np.asarray(p))) for p in parts)


def _jittered(rng: np.random.Generator, base: ValveParams, spread: float) -> ValveParams:
    """Vary the rise constant and dip geometry by +-spread (valve diversity)."""
    def u():
        return rng.uniform(1.0 - spread, 1.0 + spread)

    return replace(base, rise_tau=base.rise_tau * u(), dip_time=base.dip_time * u(),
                   dip_depth=base.dip_depth * u(), dip_width=base.dip_width * u())


def _synth_features(conditions: list, noise_std: float, seeds: list[int]):
    """(di_dt, auc) of one actuation per ``(params, fault, deg)`` condition.

    Rows are synthesized ``_SYNTH_CHUNK`` at a time as one trace matrix,
    which is scanned for edges in one call; every edge found is extracted
    in one batch and a row keeps its first clean edge. Rows without one are
    resampled with the next seed, up to ``_SYNTH_RETRIES`` seeds.
    """
    transients = [effective_transient(*c) for c in conditions]
    cfg = ExtractionConfig.for_sample_rate(_SYNTH_FS)
    x = np.empty((len(transients), 2))
    for start in range(0, len(transients), _SYNTH_CHUNK):
        todo = np.arange(start, min(start + _SYNTH_CHUNK, len(transients)))
        for attempt in range(_SYNTH_RETRIES):
            traces = synth_batch([transients[i] for i in todo],
                                 [seeds[i] + attempt for i in todo], noise_std, _SYNTH_FS)
            rows, flat = [], []
            for r, edges in enumerate(detect_batch(traces, cfg)):
                rows += [r] * len(edges)
                flat += [r * traces.shape[1] + z for z in edges]
            batch = extract_batch(traces.ravel(), flat, cfg)
            clean = batch.error == OK
            found, first = np.unique(np.asarray(rows, dtype=np.int64)[clean],
                                     return_index=True)
            done = todo[found]
            x[done, 0] = batch.di_dt[clean][first]
            x[done, 1] = batch.auc[clean][first]
            todo = np.delete(todo, found)
            if todo.size == 0:
                break
        else:
            last_err = ExtractionError(f"no usable edge with seed {seeds[todo[0]] + attempt}")
            raise ExtractionError(
                f"extraction failed for {_SYNTH_RETRIES} consecutive seeds") from last_err
    return x


def gen_fault_dataset(counts=DEFAULT_FAULT_COUNTS, *, seed: int,
                      noise_std: float = 1.0) -> Dataset:
    """Synthesize a labeled fault dataset with the requested per-class counts.

    Each row is an independent actuation of a jittered valve (+-10% on the
    rise constant and dip geometry); under-voltage rows draw their applied
    voltage uniformly from the 8-14 V band.
    """
    counts = tuple(int(c) for c in counts)
    if len(counts) != len(FAULT_CLASSES) or min(counts) < 0:
        raise ParameterError("counts must be four non-negative values")
    if sum(counts) == 0:
        raise ParameterError("at least one class count must be positive")
    base = ValveParams()
    rng = np.random.default_rng(seed)
    fresh = DegradationState(cycle=0, failure_cycle=1)

    conditions, seeds, ys = [], [], []
    for class_idx, (kind, count) in enumerate(zip(FAULT_CLASSES, counts)):
        for _ in range(count):
            valve = _jittered(rng, base, 0.10)
            if kind is FaultKind.UNDER_VOLTAGE:
                fault = FaultCondition.under_voltage(rng.uniform(*UNDER_VOLTAGE_RANGE))
            else:
                fault = FaultCondition(kind)
            conditions.append((valve, fault, fresh))
            seeds.append(int(rng.integers(2 ** 31)))
            ys.append(class_idx)
    return Dataset(_synth_features(conditions, noise_std, seeds), np.asarray(ys), "fault")


def gen_rul_dataset(n_valves: int, seed: int, failure_cycle: int = 1500,
                    noise_std: float = 0.5) -> Dataset:
    """Run-to-failure trajectories: one row per 5 operations.

    Targets are the remaining cycles (failure_cycle - cycle), so they fall
    from ``failure_cycle`` to 5 within each valve. Valves get a small
    parameter jitter so trajectories differ without swamping the
    degradation signal.
    """
    if n_valves < 1:
        raise ParameterError("n_valves must be >= 1")
    if failure_cycle < _RUL_CYCLE_STEP:
        raise ParameterError(f"failure_cycle must be >= {_RUL_CYCLE_STEP}")
    base = ValveParams()
    rng = np.random.default_rng(seed)

    conditions, seeds, ys = [], [], []
    for _ in range(n_valves):
        valve = _jittered(rng, base, 0.02)
        for cycle in range(0, failure_cycle, _RUL_CYCLE_STEP):
            deg = DegradationState(cycle=cycle, failure_cycle=failure_cycle)
            conditions.append((valve, FaultCondition.good(), deg))
            seeds.append(int(rng.integers(2 ** 31)))
            ys.append(float(failure_cycle - cycle))
    return Dataset(_synth_features(conditions, noise_std, seeds), np.asarray(ys), "rul")


def evaluate(model: Mlp, test: Dataset) -> FaultReport | RulReport:
    """Score a trained model on a held-out split: a FaultReport for a fault
    dataset, a RulReport for a remaining-life one."""
    if len(test) == 0:
        raise ParameterError("test set must be non-empty")
    outputs = tinynn.infer(model, test.x)
    if test.kind == "fault":
        n_classes = len(FAULT_CLASSES)
        if outputs.shape[1] != n_classes:
            raise ParameterError("model output width does not match the class count")
        predicted = outputs.argmax(axis=1)
        accuracy = float((predicted == test.y).mean())
        confusion = np.zeros((n_classes, n_classes))
        for c in range(n_classes):
            rows = outputs[test.y == c]
            if rows.shape[0]:
                confusion[c] = rows.mean(axis=0)
        return FaultReport(accuracy, confusion)
    preds = outputs[:, 0] if outputs.ndim == 2 else outputs
    return RulReport(float(np.abs(preds - test.y).mean()))


def train_fault(ds: Dataset, cfg: TrainConfig | None = None):
    """Split 70/20/10, train the classifier, report on the test split."""
    if ds.kind != "fault":
        raise ParameterError("train_fault needs a fault-labeled dataset")
    cfg = cfg or TrainConfig()
    train_split, val_split, test_split = split_dataset(ds, seed=cfg.seed)
    model = build_fault_model(seed=cfg.seed)
    history = tinynn.train(model, (train_split.x, one_hot(train_split.y)),
                           (val_split.x, one_hot(val_split.y)), cfg)
    return model, history, evaluate(model, test_split)


def train_rul(ds: Dataset, cfg: TrainConfig | None = None):
    """Split 70/20/10, train the regressor on life-normalized targets.

    Targets are scaled to [0, 1] for conditioning; after training the scale
    is folded into the final linear layer, so the saved model predicts
    remaining cycles directly (the wire format has no target-scale slot).
    """
    if ds.kind != "rul":
        raise ParameterError("train_rul needs a remaining-life dataset")
    cfg = cfg or TrainConfig()
    train_split, val_split, test_split = split_dataset(ds, seed=cfg.seed)
    scale = float(ds.y.max())
    model = build_rul_model(seed=cfg.seed)
    history = tinynn.train(model,
                           (train_split.x, train_split.y[:, None] / scale),
                           (val_split.x, val_split.y[:, None] / scale), cfg)
    model.weights[-1] = tinynn._f32(model.weights[-1] * scale)
    model.biases[-1] = tinynn._f32(model.biases[-1] * scale)
    return model, history, evaluate(model, test_split)


_CLASS_NAMES = {kind.value: idx for idx, kind in enumerate(FAULT_CLASSES)}


def write_dataset_csv(ds: Dataset, path) -> None:
    """Write ``di_dt,auc,target`` rows; targets are class names or cycles."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["di_dt", "auc", "target"])
        for (di_dt, auc), y in zip(ds.x, ds.y):
            target = FAULT_CLASSES[int(y)].value if ds.kind == "fault" else int(round(y))
            w.writerow([repr(float(di_dt)), repr(float(auc)), target])


def read_dataset_csv(path) -> Dataset:
    """Read a dataset CSV; the target column decides fault vs RUL kind."""
    xs, targets = [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["di_dt", "auc", "target"]:
            raise CsvFormatError("expected header 'di_dt,auc,target'", line=1)
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise CsvFormatError(f"expected 3 columns, got {len(row)}", line=line_no)
            try:
                x = (float(row[0]), float(row[1]))
            except ValueError:
                raise CsvFormatError(f"non-numeric features {row!r}", line=line_no) from None
            if not (math.isfinite(x[0]) and math.isfinite(x[1])):
                raise CsvFormatError(f"non-finite features {row!r}", line=line_no)
            xs.append(x)
            targets.append((row[2].strip(), line_no))
    if not xs:
        raise CsvFormatError("dataset has no rows", line=2)

    first = targets[0][0]
    kind = "fault" if first in _CLASS_NAMES else "rul"
    ys = []
    for raw, line_no in targets:
        if kind == "fault":
            if raw not in _CLASS_NAMES:
                raise CsvFormatError(f"unknown class {raw!r}", line=line_no)
            ys.append(_CLASS_NAMES[raw])
        else:
            try:
                ys.append(float(int(raw)))
            except ValueError:
                raise CsvFormatError(f"expected integer cycles, got {raw!r}",
                                     line=line_no) from None
    return Dataset(np.asarray(xs), np.asarray(ys), kind)
