"""Property tests over randomized streams and bank sizes."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from dataclasses import replace

from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_synthetic_trace
from reference import naive_detect, naive_extract
from valvehealth.errors import ExtractionError
from valvehealth.features import (ExtractionConfig, detect_batch, detect_rising_edges,
                                  extract_batch, extract_features)
from valvehealth.pipeline import DiagnosticEvent, MonitorConfig, run_monitor
from valvehealth.tinynn import (Activation, LayerSpec, Mlp, ModelKind, deserialize, new_mlp,
                                serialize)
from valvehealth.waveform import codes_to_current, current_to_codes

CFG_1K = ExtractionConfig.for_sample_rate(1000.0)
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
    """Every edge the whole stream holds is emitted once, whatever K, by
    the bank that completes its frame, and each event's class, alarm,
    probabilities and remaining life are the same bits as with the whole
    stream in one bank."""
    codes = current_to_codes(random_synthetic_trace(seed))
    fault, rul = untrained_models()
    cfg = MonitorConfig(k=k, fs=1000.0, f_op=1.0)
    excfg = ExtractionConfig.for_sample_rate(cfg.fs)
    events, _ = run_monitor(codes, fault, rul, cfg)
    whole = detect_rising_edges(codes_to_current(codes), excfg)
    assert [e.zero_index for e in events] == whole
    assert all(e.buffer_seq == (e.zero_index + excfg.frame - 1) // k for e in events)
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
    cfg = CFG_1K
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


@st.composite
def pulse_matrices(draw):
    """A small detector config and a matrix of idle rows with up to four
    integer-valued pulses each. Whole-mA samples keep every window sum
    exact, so the cumulative-sum means and the naive means compare equal at
    the threshold. A row may hold no pulse, and pulses land anywhere,
    including within ``lower_window`` of the start and ``frame`` of the end."""
    # a one-sample window cannot be idle and above the threshold at once
    cfg = replace(CFG_1K, window=draw(st.integers(2, 6)),
                  lower_window=draw(st.integers(1, 20)),
                  upper_window_start=0, upper_window_end=1,
                  frame=draw(st.integers(1, 30)),
                  skip_after_event=draw(st.integers(0, 10)))
    n = draw(st.integers(0, 120))
    matrix = np.zeros((draw(st.integers(0, 5)), n))
    for row in matrix:
        for _ in range(draw(st.integers(0, 4))):
            start = draw(st.integers(0, max(n - 1, 0)))
            width = draw(st.integers(1, 40))
            row[start:start + width] = draw(st.sampled_from([3.0, 5.0, 6.0, 60.0, 100.0, 250.0]))
    return cfg, matrix


@settings(max_examples=200)  # tiny matrices: 200 cases take well under a second
@given(case=pulse_matrices())
@example(case=(CFG_1K, np.zeros((2, 5))))  # n <= window
# hits that lack lower_window samples of history, frame samples of lookahead,
# and a clean edge in a row after one whose skip would still cover it
@example(case=(CFG_1K, 100.0 * (np.arange(260) >= [[20], [240], [60]])))
def test_detect_batch_rows_equal_one_row_and_naive(case):
    """Each row of one ``detect_batch`` call finds the edges of its own
    one-row call and of the naive reference scan."""
    cfg, matrix = case
    found = detect_batch(matrix, cfg)
    assert len(found) == matrix.shape[0]
    for row, edges in zip(matrix, found):
        assert edges == detect_rising_edges(row, cfg) == naive_detect(row, cfg)


F32 = st.floats(allow_nan=False, allow_infinity=False, width=32)


@st.composite
def wire_models(draw):
    """Any model the wire format can hold: 1 to 4 layers of width 1 to 8,
    every activation (softmax only last), a random alpha, either kind,
    weights and biases on the float32 grid and a random positive scaler."""
    widths = draw(st.lists(st.integers(1, 8), min_size=2, max_size=5))
    layers = []
    for i, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
        last = i == len(widths) - 2
        activations = list(Activation) if last else [a for a in Activation
                                                      if a is not Activation.SOFTMAX]
        layers.append(LayerSpec(n_in, n_out, draw(st.sampled_from(activations)), draw(F32)))
    weights = [draw(arrays(np.float32, (s.out_dim, s.in_dim), elements=F32)) for s in layers]
    biases = [draw(arrays(np.float32, s.out_dim, elements=F32)) for s in layers]
    scaler = st.floats(allow_nan=False, allow_infinity=False)
    mean = draw(arrays(np.float64, widths[0], elements=scaler))
    std = draw(arrays(np.float64, widths[0],
                      elements=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)))
    return Mlp(layers, [w.astype(np.float64) for w in weights],
               [b.astype(np.float64) for b in biases], mean, std,
               draw(st.sampled_from(ModelKind)))


@settings(max_examples=200)  # models of at most 4 x 8 x 8 weights: well under a second
@given(model=wire_models())
def test_serialize_deserialize_is_byte_faithful(model):
    """A model's bytes decode to a model that encodes to the same bytes,
    and every array comes back bit for bit."""
    blob = serialize(model)
    back = deserialize(blob)
    assert serialize(back) == blob
    assert back.layers == model.layers and back.kind is model.kind
    for got, want in zip([*back.weights, *back.biases, back.scaler_mean, back.scaler_std],
                         [*model.weights, *model.biases, model.scaler_mean, model.scaler_std]):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
