"""Property tests over randomized streams and bank sizes."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from conftest import random_synthetic_trace
from reference import naive_extract
from valvehealth.errors import ExtractionError
from valvehealth.features import (ExtractionConfig, detect_rising_edges, extract_batch,
                                  extract_features)
from valvehealth.pipeline import DiagnosticEvent, MonitorConfig, run_monitor
from valvehealth.tinynn import Activation, LayerSpec, ModelKind, new_mlp
from valvehealth.waveform import codes_to_current, current_to_codes

FEATURE_FIELDS = ("ecv_lower_avg", "ecv_upper_avg", "delta_ecv", "ecv10", "ecv90",
                  "tl", "tu", "di_dt", "auc")

# Idle, an instant step (a degenerate rise), then a rise that starts while the
# lower window still sees the step's plateau (no rise over the lower average).
FAILING_EDGES = np.concatenate([np.zeros(100), np.full(150, 200.0), np.zeros(1),
                                200.0 * (1.0 - np.exp(-np.arange(150) / 0.7))])


def payload(event):
    """Everything an event says about its edge except the bank it came in."""
    if isinstance(event, DiagnosticEvent):
        return ("diagnostic", event.zero_index, event.reason)
    return ("event", event.zero_index, event.predicted_class, event.alarm,
            event.fault_probs.tobytes(), event.rul, event.timestamp_us)


def untrained_models():
    """Small random networks whose outputs move with both features (the
    scaler maps typical (di_dt, auc) values to unit scale)."""
    fault = new_mlp([LayerSpec(2, 6, Activation.LEAKY_RELU),
                     LayerSpec(6, 4, Activation.SOFTMAX)], seed=1, kind=ModelKind.CLASSIFIER)
    rul = new_mlp([LayerSpec(2, 6, Activation.RELU), LayerSpec(6, 1, Activation.LINEAR)],
                  seed=2, kind=ModelKind.REGRESSOR)
    for m in (fault, rul):
        m.scaler_mean = np.array([20.0, 150.0])
        m.scaler_std = np.array([15.0, 60.0])
    # spread the remaining life across the 100-cycle alarm threshold
    rul.weights[-1] = rul.weights[-1] * 100.0
    rul.biases[-1] = np.array([80.0])
    return fault, rul


@given(seed=st.integers(0, 2 ** 16), k=st.integers(1, 2000))
def test_events_do_not_depend_on_bank_size(seed, k):
    """Every edge the whole stream holds is emitted once, whatever K, and
    each event's class, alarm, probabilities and remaining life are the
    same bits as with the whole stream in one bank."""
    codes = current_to_codes(random_synthetic_trace(seed))
    fault, rul = untrained_models()
    cfg = MonitorConfig(k=k, fs=1000.0, f_op=1.0)
    events, _ = run_monitor(codes, fault, rul, cfg)
    whole = detect_rising_edges(codes_to_current(codes),
                                ExtractionConfig.for_sample_rate(cfg.fs))
    assert [e.zero_index for e in events] == whole
    one_bank, _ = run_monitor(codes, fault, rul, MonitorConfig(k=codes.size, fs=1000.0,
                                                               f_op=1.0))
    assert [payload(e) for e in events] == [payload(e) for e in one_bank]


@given(seed=st.integers(0, 2 ** 16), failing=st.booleans(), data=st.data())
def test_batched_rows_equal_one_row_calls(seed, failing, data):
    """Any subset, order or repetition of a stream's edges, extracted in one
    call, gives each row the bits of its one-row call and the naive value."""
    samples = random_synthetic_trace(seed)
    if failing:
        samples = np.concatenate([samples, FAILING_EDGES])
    cfg = ExtractionConfig()
    edges = detect_rising_edges(samples, cfg)
    picks = data.draw(st.lists(st.sampled_from(edges), max_size=12)) if edges else []
    batch = extract_batch(samples, picks, cfg)
    assert batch.error.shape == (len(picks),)
    for i, z in enumerate(picks):
        one = extract_batch(samples, [z], cfg)
        assert batch.zero_index[i] == z
        assert batch.error[i] == one.error[0]
        for name in FEATURE_FIELDS:
            assert getattr(batch, name)[i].tobytes() == getattr(one, name)[0].tobytes(), name
        try:
            want = naive_extract(samples, z, cfg)
        except ExtractionError as err:
            assert type(batch.error_at(i)) is type(err)
            with pytest.raises(type(err)):
                extract_features(samples, z, cfg)
            continue
        assert batch.error_at(i) is None
        assert extract_features(samples, z, cfg) == batch.row(i)
        for name, value in want.items():
            assert getattr(batch.row(i), name) == pytest.approx(value, abs=1e-9), name
