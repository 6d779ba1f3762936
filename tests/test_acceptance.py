"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a PASS line when it holds (run with ``pytest -s``).

Criteria that depend on training reuse the session fixtures, which train
with the production defaults (epochs 50, batch 10, RMSProp).
"""

import numpy as np
import pytest

from conftest import constant_schedule, degradation_schedule, random_synthetic_trace
from reference import naive_extract_all
from test_tinynn import finite_difference_check
from valvehealth import models, tinynn
from valvehealth.acquisition import PingPongBuffer, max_cycles, run_acquisition
from valvehealth.errors import (DegenerateTransientError, ModelFormatError,
                                NoActuationError)
from valvehealth.features import (ExtractionConfig, detect_rising_edges,
                                  extract_features)
from valvehealth.pipeline import MonitorConfig, MonitorEvent, run_monitor, scenario_source
from valvehealth.tinynn import (Activation, LayerSpec, Loss, ModelKind, new_mlp,
                                parameter_counts, serialize, deserialize)
from valvehealth.waveform import (FaultCondition, current_to_voltage,
                                  sensor_gain)

TABLE5 = [(1000, 2, 2), (1000, 1, 1),
          (2000, 2, 4), (2000, 1, 2), (2000, 0.5, 1),
          (5000, 2, 10), (5000, 1, 5), (5000, 0.5, 2.5),
          (10000, 2, 20), (10000, 1, 10), (10000, 0.5, 5)]


def ok(n, text):
    print(f"PASS  criterion {n}: {text}")


def test_criterion_1_sensor_algebra():
    assert sensor_gain(0.1, 122000) == pytest.approx(12.2, abs=1e-6)
    v = current_to_voltage(270, 12.22)
    assert 3.29 <= v <= 3.30
    ok(1, f"sensor_gain(0.1, 122k) = 12.2, V(270 mA) = {v:.4f} V in [3.29, 3.30]")


def test_criterion_2_timing_algebra():
    for k, f_op, want in TABLE5:
        assert max_cycles(k, f_op, 1000) == want
    assert max_cycles(10000, 0.5, 1000) == 5
    ok(2, "all 11 reference (K, f_op) -> C_max cells exact, incl. the 2.5 row")


def test_criterion_3_architecture_conformance():
    fault = models.build_fault_model(seed=0)
    rul = models.build_rul_model(seed=0)
    assert parameter_counts(fault) == [108, 888, 300, 52]
    assert parameter_counts(rul) == [192, 1040, 68, 5]
    ok(3, "per-layer parameter counts [108, 888, 300, 52] and [192, 1040, 68, 5]")


def test_criterion_4_feature_oracle_equivalence():
    cfg = ExtractionConfig()
    n_traces = 1000
    for seed in range(n_traces):
        samples = random_synthetic_trace(seed)
        expected = naive_extract_all(samples, cfg)
        assert detect_rising_edges(samples, cfg) == [z for z, _, _ in expected]
        for z, status, ref in expected:
            if status == "error":
                with pytest.raises((NoActuationError, DegenerateTransientError)):
                    extract_features(samples, z, cfg)
                continue
            ft = extract_features(samples, z, cfg)
            for name, want in ref.items():
                assert getattr(ft, name) == pytest.approx(want, abs=1e-9), \
                    (seed, z, name)
    ok(4, f"optimized extractor == brute-force oracle on {n_traces} random traces")


def test_criterion_5_hand_computed_ramp():
    sig = np.zeros(250)
    for j in range(51):
        sig[100 + j] = 5.0 * j
    sig[151:] = 250.0
    ft = extract_features(sig, 100)
    assert ft.auc == 75.0
    assert ft.di_dt * (ft.tu - ft.tl) == pytest.approx(ft.ecv90 - ft.ecv10, abs=1e-9)
    ok(5, f"ramp auc = {ft.auc} exactly; di_dt * (tu - tl) == ecv90 - ecv10 to 1e-9")


def test_criterion_6_lossless_acquisition():
    fs, k = 1000.0, 500
    n = 12 * k  # 12 bank switches
    t = np.arange(n) / fs
    for freq in (100.0, 10.0, 1.0):
        src = np.round(2047.5 + 2047.5 * np.sin(2 * np.pi * freq * t)).astype(np.int64)
        buf = PingPongBuffer(k)
        chunks = []

        def consumer(handle):
            chunks.append(np.array(handle.data, copy=True))
            buf.release(handle)

        report = run_acquisition(iter(src), k, fs, consumer, buf=buf)
        assert np.array_equal(np.concatenate(chunks), src)
        assert report.lossless and report.banks_delivered >= 10

    # a consumer holding banks beyond the fill duration loses data, counted
    buf = PingPongBuffer(k)
    held = []

    def starved(handle):
        held.append(handle)
        if len(held) > 2:
            buf.release(held.pop(0))

    slow_report = run_acquisition(iter(np.zeros(8 * k, dtype=int)), k, fs,
                                  starved, buf=buf)
    assert not slow_report.lossless and slow_report.overrun_count >= 1
    ok(6, "100/10/1 Hz sines reconstruct exactly over >= 10 switches; "
          f"starved consumer -> {slow_report.overrun_count} counted overruns")


def test_criterion_7_gradient_correctness():
    shapes = [
        [LayerSpec(2, 16, Activation.LEAKY_RELU), LayerSpec(16, 4, Activation.SOFTMAX)],
        [LayerSpec(3, 8, Activation.RELU), LayerSpec(8, 6, Activation.LEAKY_RELU),
         LayerSpec(6, 3, Activation.SOFTMAX)],
        [LayerSpec(2, 12, Activation.RELU), LayerSpec(12, 1, Activation.LINEAR)],
        [LayerSpec(4, 10, Activation.LEAKY_RELU), LayerSpec(10, 5, Activation.RELU),
         LayerSpec(5, 2, Activation.LINEAR)],
        [LayerSpec(5, 7, Activation.LEAKY_RELU), LayerSpec(7, 4, Activation.SOFTMAX)],
    ]
    for seed in range(50):
        specs = shapes[seed % len(shapes)]
        if specs[-1].activation is Activation.SOFTMAX:
            loss, kind = Loss.CATEGORICAL_CROSS_ENTROPY, ModelKind.CLASSIFIER
        else:
            loss, kind = Loss.MEAN_ABSOLUTE_ERROR, ModelKind.REGRESSOR
        model = new_mlp(specs, seed=seed, kind=kind)
        finite_difference_check(model, loss, seed, h=1e-5, tol=1e-4)
    ok(7, "50 random networks match central finite differences within 1e-4 relative")


def test_criterion_8_fault_classification(trained_fault):
    _, _, report = trained_fault
    assert report.accuracy >= 0.90
    assert report.confusion[0].argmax() == 0
    ok(8, f"synthetic 600/200/200/400 set: test accuracy {report.accuracy:.4f} "
          ">= 0.90; good row peaks on the good column")


def test_criterion_9_rul_regression(rul_dataset, trained_rul):
    model, _, report = trained_rul
    budget = 0.10 * rul_dataset.y.max()
    assert report.mae_cycles <= budget
    held_out = models.gen_rul_dataset(n_valves=1, seed=4242)
    preds = tinynn.infer(model, held_out.x)[:, 0]
    slope = np.polyfit(np.arange(preds.size), preds, 1)[0]
    assert slope < 0
    ok(9, f"test MAE {report.mae_cycles:.1f} <= {budget:.0f} cycles; held-out "
          f"trajectory slope {slope:.2f} < 0")


def test_criterion_10_end_to_end_monitor(trained_fault, trained_rul):
    fault_model, rul_model = trained_fault[0], trained_rul[0]

    # degradation scenario: one event per actuation, alarm before failure
    codes, triggers = scenario_source(degradation_schedule(40, failure_cycle=200), seed=0)
    cfg = MonitorConfig(k=10000, fs=1000.0, f_op=0.5)
    events, _ = run_monitor(iter(codes), fault_model, rul_model, cfg)
    mons = [e for e in events if isinstance(e, MonitorEvent)]
    assert len(mons) == len(triggers)
    first_alarm = next(i for i, e in enumerate(mons) if e.alarm)
    assert first_alarm < len(mons) - 1  # strictly before the final cycle

    # measured per-buffer inference beats the fill duration on every
    # reference (K, f_op) configuration at 1 kHz
    for k, f_op, _ in TABLE5:
        n_cycles = max(int(np.ceil(k * f_op / 1000)) + 1, 2)
        src, _ = scenario_source(constant_schedule(FaultCondition.good(), n_cycles),
                                 f_op=f_op, fs=1000.0, seed=1)
        cfg_k = MonitorConfig(k=k, fs=1000.0, f_op=f_op)
        _, report = run_monitor(iter(src), fault_model, rul_model, cfg_k)
        assert report.inference_time_per_buffer is not None
        assert report.inference_time_per_buffer < report.buffer_fill_duration, \
            (k, f_op)
    ok(10, f"{len(mons)} events for {len(triggers)} actuations, first alarm at "
           f"cycle {mons[first_alarm].zero_index // 2000 * 5}; IT_pb < B_fd on "
           "all 11 configurations")


def test_criterion_11_serialization(trained_fault):
    model = trained_fault[0]
    blob = serialize(model)
    assert serialize(deserialize(blob)) == blob

    rng = np.random.default_rng(0)
    for _ in range(100):
        corrupted = bytearray(blob)
        pos = int(rng.integers(len(blob)))
        corrupted[pos] ^= 1 << int(rng.integers(8))
        with pytest.raises(ModelFormatError):
            deserialize(bytes(corrupted))
    ok(11, "restore . save is byte-faithful; 100/100 single-byte flips detected")
