import csv
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_synthetic_trace
from reference import naive_detect, naive_extract_all
from valvehealth.errors import (DegenerateTransientError, NoActuationError,
                                ParameterError)
from valvehealth.features import (ExtractionConfig, detect_rising_edges,
                                  extract_all, extract_features, write_features_csv)
from valvehealth.waveform import (DegradationState, FaultCondition, FaultKind,
                                  ValveParams, synth_transient)

FRESH = DegradationState(0, 1)
CFG = ExtractionConfig.for_sample_rate(1000.0)


def make_ramp(z: int = 100, step: float = 5.0, total: int = 250) -> np.ndarray:
    """Idle zeros, then a linear ramp to 250 mA at z+50, then hold."""
    sig = np.zeros(total)
    for j in range(51):
        sig[z + j] = step * j
    sig[z + 51:] = 250.0
    return sig


class TestDetect:
    def test_all_zero_signal(self):
        assert detect_rising_edges(np.zeros(500), CFG) == []

    def test_instant_step(self):
        # window [96, 101) is the first whose mean reaches the threshold
        # from an idle first sample: (0+0+0+0+250)/5 = 50 >= 40
        sig = np.concatenate([np.zeros(100), np.full(200, 250.0)])
        assert detect_rising_edges(sig, CFG) == [96]

    def test_two_steps_400_apart(self):
        sig = np.concatenate([np.zeros(100), np.full(300, 250.0),
                              np.zeros(100), np.full(300, 250.0)])
        edges = detect_rising_edges(sig, CFG)
        assert len(edges) == 2
        assert edges[1] - edges[0] == 400

    def test_too_short_history_discarded(self):
        sig = np.concatenate([np.zeros(20), np.full(300, 250.0)])
        assert detect_rising_edges(sig, CFG) == []  # z=16 < lower_window

    def test_too_short_lookahead_discarded(self):
        sig = np.concatenate([np.zeros(100), np.full(50, 250.0)])
        assert detect_rising_edges(sig, CFG) == []  # z+frame > len

    def test_short_input(self):
        assert detect_rising_edges(np.zeros(4), CFG) == []

    def test_matches_naive_on_synthetic_traces(self):
        cfg = CFG
        for seed in range(100):
            samples = random_synthetic_trace(seed)
            assert detect_rising_edges(samples, cfg) == naive_detect(samples, cfg), seed


class TestExtract:
    def test_hand_traced_ramp(self):
        # literal hand trace of the documented algorithm on the 5 mA/sample
        # ramp: the upper window [z+30, z+50) averages the still-rising
        # segment 150..245
        ft = extract_features(make_ramp(), 100, CFG)
        assert ft.ecv_lower_avg == 0.0
        assert ft.ecv_upper_avg == pytest.approx(197.5, abs=1e-12)
        assert ft.delta_ecv == pytest.approx(197.5, abs=1e-12)
        assert ft.ecv10 == pytest.approx(19.75, abs=1e-12)
        assert ft.ecv90 == pytest.approx(177.75, abs=1e-12)
        assert ft.tl == 4.0
        assert ft.tu == 36.0
        assert ft.di_dt == pytest.approx(4.9375, abs=1e-12)
        assert ft.auc == 75.0  # ((0 + 150)/2 + sum(5m for m in 1..29)) / 30, exact

    def test_di_dt_identity(self):
        ft = extract_features(make_ramp(), 100, CFG)
        assert ft.di_dt * (ft.tu - ft.tl) == pytest.approx(ft.ecv90 - ft.ecv10, abs=1e-9)

    def test_instant_step_is_degenerate(self):
        sig = np.concatenate([np.zeros(100), np.full(150, 250.0)])
        with pytest.raises(DegenerateTransientError):
            extract_features(sig, 100, CFG)

    def test_flat_signal_is_no_actuation(self):
        with pytest.raises(NoActuationError):
            extract_features(np.zeros(300), 100, CFG)

    def test_bounds_preconditions(self):
        sig = make_ramp()
        with pytest.raises(ParameterError):
            extract_features(sig, 30, CFG)  # not enough history
        with pytest.raises(ParameterError):
            extract_features(sig, 200, CFG)  # not enough lookahead

    def test_matches_naive_on_synthetic_traces(self):
        cfg = CFG
        for seed in range(100):
            samples = random_synthetic_trace(1000 + seed)
            expected = naive_extract_all(samples, cfg)
            edges = detect_rising_edges(samples, cfg)
            assert edges == [z for z, _, _ in expected], seed
            for z, status, ref in expected:
                if status == "error":
                    with pytest.raises((NoActuationError, DegenerateTransientError)):
                        extract_features(samples, z, cfg)
                    continue
                ft = extract_features(samples, z, cfg)
                for name, want in ref.items():
                    got = getattr(ft, name)
                    assert got == pytest.approx(want, abs=1e-9), (seed, z, name)


class TestProperties:
    def test_baseline_shift(self):
        tr = synth_transient(ValveParams(), FaultCondition.good(), FRESH,
                             noise_std=1.0, seed=11)
        c = 2.75
        cfg = CFG
        shifted_cfg = replace(cfg, edge_threshold=cfg.edge_threshold + c,
                              idle_max=cfg.idle_max + c)
        edges = detect_rising_edges(tr.samples, cfg)
        shifted_edges = detect_rising_edges(tr.samples + c, shifted_cfg)
        assert edges == shifted_edges and edges
        for z in edges:
            a = extract_features(tr.samples, z, cfg)
            b = extract_features(tr.samples + c, z, shifted_cfg)
            assert b.tl == a.tl and b.tu == a.tu
            assert b.di_dt == pytest.approx(a.di_dt, abs=1e-9)
            assert b.ecv_lower_avg - a.ecv_lower_avg == pytest.approx(c, abs=1e-9)
            assert b.ecv_upper_avg - a.ecv_upper_avg == pytest.approx(c, abs=1e-9)

    def test_time_shift_equivariance(self):
        tr = synth_transient(ValveParams(), FaultCondition.good(), FRESH,
                             noise_std=1.0, seed=12)
        n = 83
        padded = np.concatenate([np.zeros(n), tr.samples])
        edges = detect_rising_edges(tr.samples, CFG)
        shifted = detect_rising_edges(padded, CFG)
        assert shifted == [z + n for z in edges] and edges
        a = extract_features(tr.samples, edges[0], CFG)
        b = extract_features(padded, shifted[0], CFG)
        for name in ("ecv_lower_avg", "ecv_upper_avg", "delta_ecv", "ecv10",
                     "ecv90", "tl", "tu", "di_dt", "auc"):
            assert getattr(b, name) == pytest.approx(getattr(a, name), abs=1e-9)

    def test_fault_separability(self):
        # noiseless good / spool-stuck / under-voltage(12 V) must sit at
        # least 5% apart pairwise in di_dt or auc
        p = ValveParams()
        feats = {}
        for name, fault in (("good", FaultCondition.good()),
                            ("spool", FaultCondition(FaultKind.SPOOL_STUCK)),
                            ("uv12", FaultCondition.under_voltage(12.0))):
            tr = synth_transient(p, fault, FRESH)
            (ft,), _ = extract_all(tr)
            feats[name] = (ft.di_dt, ft.auc)
        names = list(feats)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                a, b = feats[names[i]], feats[names[j]]
                rel = max(abs(a[0] - b[0]) / max(abs(a[0]), abs(b[0])),
                          abs(a[1] - b[1]) / max(abs(a[1]), abs(b[1])))
                assert rel >= 0.05, (names[i], names[j], a, b)

    def test_sample_rate_scaling(self):
        cfg = ExtractionConfig.for_sample_rate(2000.0)
        assert cfg.window == 10
        assert cfg.lower_window == 100
        assert cfg.upper_window_start == 60
        assert cfg.upper_window_end == 100
        assert cfg.frame == 200
        assert cfg.skip_after_event == 60
        assert cfg.ms_per_sample == 0.5
        # the windows at 1 kHz, one sample per millisecond
        assert ExtractionConfig.for_sample_rate(1000.0) == ExtractionConfig(
            window=5, edge_threshold=40.0, idle_max=5.0, lower_window=50,
            upper_window_start=30, upper_window_end=50, frame=100,
            skip_after_event=30, ms_per_sample=1.0)

    def test_config_invariants(self):
        with pytest.raises(ParameterError):
            replace(CFG, window=0)
        with pytest.raises(ParameterError):
            replace(CFG, upper_window_start=50, upper_window_end=30)
        with pytest.raises(ParameterError):
            replace(CFG, frame=40)

    @pytest.mark.parametrize("rate", [0.0, -1000.0, float("nan"), float("inf")])
    def test_bad_sample_rate_rejected(self, rate):
        with pytest.raises(ParameterError):
            ExtractionConfig.for_sample_rate(rate)


class TestExtractAll:
    def test_good_trace_yields_one_feature_set(self):
        tr = synth_transient(ValveParams(), FaultCondition.good(), FRESH)
        features, _ = extract_all(tr)
        assert len(features) == 1
        assert features[0].di_dt > 0

    def test_three_concatenated_actuations(self):
        tr = synth_transient(ValveParams(), FaultCondition.good(), FRESH)
        from valvehealth.waveform import TransientTrace
        triple = TransientTrace(np.tile(tr.samples, 3), tr.sample_rate)
        assert len(extract_all(triple)[0]) == 3

    def test_flat_trace_empty(self):
        from valvehealth.waveform import TransientTrace
        flat = TransientTrace(np.zeros(500), 1000.0)
        assert extract_all(flat) == ([], [])

    def test_diagnostics_collected_not_raised(self):
        # an instant step detects but fails extraction; the sweep continues
        from valvehealth.waveform import TransientTrace
        sig = np.concatenate([np.zeros(100), np.full(200, 250.0)])
        features, diags = extract_all(TransientTrace(sig, 1000.0))
        assert features == []
        assert len(diags) == 1
        assert isinstance(diags[0][1], DegenerateTransientError)


class TestFeatureCsv:
    def test_round_trip_compact(self, tmp_path):
        tr = synth_transient(ValveParams(), FaultCondition.good(), FRESH)
        features, _ = extract_all(tr)
        path = tmp_path / "features.csv"
        write_features_csv(features, path, full=False)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 1
        assert list(rows[0]) == ["zero_index", "di_dt", "auc"]
        assert int(rows[0]["zero_index"]) == features[0].zero_index
        assert float(rows[0]["di_dt"]) == features[0].di_dt
        assert float(rows[0]["auc"]) == features[0].auc

    def test_full_columns(self, tmp_path):
        tr = synth_transient(ValveParams(), FaultCondition.good(), FRESH)
        features, _ = extract_all(tr)
        path = tmp_path / "features_full.csv"
        write_features_csv(features, path, full=True)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        ft = features[0]
        assert float(rows[0]["tu"]) == ft.tu
        assert float(rows[0]["ecv90"]) == ft.ecv90
