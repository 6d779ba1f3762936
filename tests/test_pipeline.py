import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import constant_schedule, degradation_schedule
from valvehealth.acquisition import TimingReport, buffer_fill_duration
from valvehealth.errors import ParameterError
from valvehealth.features import ExtractionConfig, detect_rising_edges, extract_batch
from valvehealth.pipeline import (DiagnosticEvent, MonitorConfig, MonitorEvent,
                                  event_to_json, report_to_json, run_monitor,
                                  scenario_source)
from valvehealth.tinynn import Activation, LayerSpec, Mlp, ModelKind, infer
from valvehealth.waveform import (DegradationState, FaultCondition, FaultKind,
                                  ValveParams, codes_to_current, current_to_codes,
                                  transient_current)


# A stock valve with 1 mA of noise, for scenario_source.
STOCK_VALVE = {"params": ValveParams(), "noise_std": 1.0}


def forced_classifier(logits):
    """Bias-only softmax net that always emits softmax(logits)."""
    return Mlp([LayerSpec(2, 4, Activation.SOFTMAX)], [np.zeros((4, 2))],
               [np.asarray(logits, dtype=float)], np.zeros(2), np.ones(2),
               kind=ModelKind.CLASSIFIER)


def forced_regressor(value):
    """Bias-only linear net that always predicts ``value``."""
    return Mlp([LayerSpec(2, 1, Activation.LINEAR)], [np.zeros((1, 2))],
               [np.array([float(value)])], np.zeros(2), np.ones(2),
               kind=ModelKind.REGRESSOR)


def monitor_events(events):
    return [e for e in events if isinstance(e, MonitorEvent)]


class TestEventCompleteness:
    @pytest.mark.parametrize("k", [1000, 2000, 5000, 10000])
    @pytest.mark.parametrize("f_op", [0.5, 1.0, 2.0])
    def test_one_event_per_actuation(self, k, f_op):
        cfg = MonitorConfig(k=k, fs=1000.0, f_op=f_op)
        codes, triggers = scenario_source(constant_schedule(FaultCondition.good(), 9),
                                          fs=cfg.fs, f_op=cfg.f_op, **STOCK_VALVE, seed=1)
        events, report = run_monitor(iter(codes), forced_classifier([9, 0, 0, 0]),
                                     forced_regressor(5000.0), cfg)
        got = monitor_events(events)
        assert len(got) == len(triggers)
        assert report.overrun_count == 0
        # detected edges sit at most one window before the true trigger
        for event, trigger in zip(got, triggers):
            assert trigger - 5 <= event.zero_index <= trigger + 1

    def test_edge_straddling_bank_boundary(self):
        # place an actuation so its 100-sample frame crosses the bank edge
        codes, triggers = scenario_source(constant_schedule(FaultCondition.good(), 3),
                                          fs=1000.0, f_op=2.0, **STOCK_VALVE, seed=2)
        k = triggers[1] + 40  # frame of actuation 2 extends past bank 0
        cfg = MonitorConfig(k=k, fs=1000.0, f_op=2.0)
        events, _ = run_monitor(iter(codes), forced_classifier([9, 0, 0, 0]),
                                forced_regressor(5000.0), cfg)
        assert len(monitor_events(events)) == 3

    def test_flat_source_no_events(self):
        cfg = MonitorConfig(k=500, fs=1000.0, f_op=1.0)
        events, report = run_monitor(iter(np.zeros(2000, dtype=int)),
                                     forced_classifier([9, 0, 0, 0]),
                                     forced_regressor(5000.0), cfg)
        assert events == []
        assert report.overrun_count == 0

    @pytest.mark.parametrize("k", [1, 7, 150, 151, 1000])
    def test_block_and_sample_sources_identical_events(self, k, trained_fault, trained_rul):
        conditions = [FaultCondition.good(), FaultCondition(FaultKind.SPOOL_STUCK),
                      FaultCondition(FaultKind.SPRING_FAILURE),
                      FaultCondition.under_voltage(12.0)]
        schedule = [(fault, DegradationState(cycle=40 * i, failure_cycle=200))
                    for i, fault in enumerate(conditions)]
        cfg = MonitorConfig(k=k, fs=1000.0, f_op=2.0)
        codes, triggers = scenario_source(schedule, fs=cfg.fs, f_op=cfg.f_op,
                                          **STOCK_VALVE, seed=12)

        def run(source):
            events, report = run_monitor(source, trained_fault[0], trained_rul[0], cfg)
            assert report.overrun_count == 0
            return monitor_events(events)

        ref = run(codes)
        assert len(ref) == len(triggers)
        for source in (iter(codes), (int(c) for c in codes)):
            got = run(source)
            assert [e.zero_index for e in got] == [e.zero_index for e in ref]
            for a, b in zip(got, ref):
                assert np.array_equal(a.fault_probs, b.fault_probs)
                assert a.rul == b.rul


class TestAlarmPredicate:
    CASES = [
        # (logits, rul, expect_alarm): threshold prob 0.5, threshold rul 100
        ([9.0, 0.0, 0.0, 0.0], 5000.0, False),   # confident good, high rul
        ([0.0, 9.0, 0.0, 0.0], 5000.0, True),    # confident spool-stuck
        ([9.0, 0.0, 0.0, 0.0], 50.0, True),      # good but low rul
        ([0.0, 0.0, 0.0, 9.0], 50.0, True),      # both triggers
    ]

    @pytest.mark.parametrize("logits,rul,expect", CASES)
    def test_alarm_matches_predicate(self, logits, rul, expect):
        cfg = MonitorConfig(k=4000, fs=1000.0, f_op=0.5)
        codes, _ = scenario_source(constant_schedule(FaultCondition.good(), 2),
                                   fs=cfg.fs, f_op=cfg.f_op, **STOCK_VALVE, seed=3)
        events, _ = run_monitor(iter(codes), forced_classifier(logits),
                                forced_regressor(rul), cfg)
        for event in monitor_events(events):
            probs = event.fault_probs
            predicate = (probs[1:].max() >= cfg.fault_alarm_threshold
                         or event.rul < cfg.rul_alarm_threshold)
            assert event.alarm == predicate == expect
            assert abs(probs.sum() - 1.0) < 1e-6

    def test_rul_clamped_at_zero(self):
        cfg = MonitorConfig(k=3000, fs=1000.0, f_op=0.5)
        codes, _ = scenario_source(constant_schedule(FaultCondition.good(), 1),
                                   fs=cfg.fs, f_op=cfg.f_op, **STOCK_VALVE, seed=4)
        events, _ = run_monitor(iter(codes), forced_classifier([9, 0, 0, 0]),
                                forced_regressor(-250.0), cfg)
        (event,) = monitor_events(events)
        assert event.rul == 0.0 and event.alarm


class TestDeterminism:
    def test_identical_runs_identical_events(self):
        cfg = MonitorConfig(k=5000, fs=1000.0, f_op=0.5)
        codes, _ = scenario_source(degradation_schedule(12, failure_cycle=60),
                                   fs=cfg.fs, f_op=cfg.f_op, **STOCK_VALVE, seed=5)

        def run():
            events, _ = run_monitor(iter(codes), forced_classifier([4, 1, 0, 0]),
                                    forced_regressor(120.0), cfg)
            return [(e.buffer_seq, e.zero_index, e.fault_probs.tobytes(),
                     e.predicted_class, e.rul, e.alarm, e.timestamp_us)
                    for e in monitor_events(events)]

        assert run() == run()

    def test_virtual_timestamps_sample_derived(self):
        cfg = MonitorConfig(k=5000, fs=1000.0, f_op=0.5)
        codes, triggers = scenario_source(constant_schedule(FaultCondition.good(), 2),
                                          fs=cfg.fs, f_op=cfg.f_op, **STOCK_VALVE, seed=6)
        events, _ = run_monitor(iter(codes), forced_classifier([9, 0, 0, 0]),
                                forced_regressor(5000.0), cfg)
        for event in monitor_events(events):
            assert event.timestamp_us == round(event.zero_index / cfg.fs * 1e6)


class TestDiagnostics:
    def test_extraction_failure_becomes_diagnostic(self):
        # an instant step is detectable but degenerate; the stream continues
        # into a healthy actuation afterwards
        step = np.concatenate([np.zeros(100), np.full(200, 3000)]).astype(int)
        cfg = MonitorConfig(k=2000, fs=1000.0, f_op=0.5)
        good, triggers = scenario_source(constant_schedule(FaultCondition.good(), 1),
                                         fs=cfg.fs, f_op=cfg.f_op, **STOCK_VALVE, seed=7)
        codes = np.concatenate([step, np.zeros(50, dtype=int), good])
        events, _ = run_monitor(iter(codes), forced_classifier([9, 0, 0, 0]),
                                forced_regressor(5000.0), cfg)
        diags = [e for e in events if isinstance(e, DiagnosticEvent)]
        mons = monitor_events(events)
        assert len(diags) == 1
        assert diags[0].reason == "DegenerateTransientError"
        assert len(mons) == 1

    @pytest.mark.parametrize("k", [2.5, 1000.0])
    def test_non_integer_bank_size_rejected(self, k):
        with pytest.raises(ParameterError):
            MonitorConfig(k=k, fs=1000.0, f_op=1.0)

    def test_model_kind_checked(self):
        cfg = MonitorConfig(k=100, fs=1000.0, f_op=1.0)
        with pytest.raises(ParameterError):
            run_monitor(iter([]), forced_regressor(1.0), forced_regressor(1.0), cfg)
        with pytest.raises(ParameterError):
            run_monitor(iter([]), forced_classifier([1, 0, 0, 0]),
                        forced_classifier([1, 0, 0, 0]), cfg)


class TestRealtimeGaps:
    def test_slow_consumer_emits_whole_stream_events(self, trained_fault, trained_rul):
        # on_event stalls the consumer for 3.5 bank fills after each event, so
        # banks are reused before it takes them and it never sees them; at
        # such a gap the monitor drops its carried samples, so each event it
        # emits is, bit for bit, the event of that edge in the whole stream
        cfg = MonitorConfig(k=100, fs=10_000.0, f_op=8.0, clock="realtime")
        codes, _ = scenario_source(constant_schedule(FaultCondition.good(), 6),
                                   fs=cfg.fs, f_op=cfg.f_op, **STOCK_VALVE, seed=3)
        fault_model, rul_model = trained_fault[0], trained_rul[0]
        events, report = run_monitor(codes, fault_model, rul_model, cfg,
                                     on_event=lambda event: time.sleep(0.035))
        assert report.banks_delivered < codes.size // cfg.k
        got = monitor_events(events)
        assert got and len(got) == len(events)
        excfg = ExtractionConfig.for_sample_rate(cfg.fs)
        ma = codes_to_current(codes)
        assert {e.zero_index for e in got} <= set(detect_rising_edges(ma, excfg))
        for event in got:
            batch = extract_batch(ma, [event.zero_index], excfg)
            row = np.array([batch.di_dt[0], batch.auc[0]])
            assert event.fault_probs.tobytes() == infer(fault_model, row).tobytes()
            assert event.rul == max(float(infer(rul_model, row)[0]), 0.0)


class TestTimingReport:
    def test_monitor_report_measures_wall_time(self):
        cfg = MonitorConfig(k=2000, fs=1000.0, f_op=0.5)
        codes, _ = scenario_source(constant_schedule(FaultCondition.good(), 4),
                                   fs=cfg.fs, f_op=cfg.f_op, **STOCK_VALVE, seed=8)
        events, report = run_monitor(iter(codes), forced_classifier([9, 0, 0, 0]),
                                     forced_regressor(5000.0), cfg)
        assert report.inference_time_per_buffer is not None
        it_pc = [e.it_pc for e in monitor_events(events)]
        assert it_pc and all(t > 0 for t in it_pc)
        assert report.inference_time_per_buffer < buffer_fill_duration(cfg.k, cfg.fs)


class TestJsonEmission:
    def test_event_json_fields(self):
        cfg = MonitorConfig(k=3000, fs=1000.0, f_op=0.5)
        spool_stuck = FaultCondition(FaultKind.SPOOL_STUCK)
        codes, _ = scenario_source(constant_schedule(spool_stuck, 1), fs=cfg.fs, f_op=cfg.f_op,
                                   **STOCK_VALVE, seed=9)
        events, report = run_monitor(iter(codes), forced_classifier([0, 9, 0, 0]),
                                     forced_regressor(5000.0), cfg)
        (event,) = monitor_events(events)
        payload = json.loads(event_to_json(event, cfg, ExtractionConfig.for_sample_rate(cfg.fs)))
        assert payload["type"] == "event"
        assert payload["predicted_class"] == "spool_stuck"
        assert len(payload["fault_probs"]) == 4
        assert payload["alarm"] is True
        assert payload["it_pc_steps"] == 150  # deterministic under virtual clock
        report_payload = json.loads(report_to_json(report, cfg, events))
        assert report_payload["type"] == "timing_report"
        assert report_payload["b_fd_us"] == 3_000_000
        assert report_payload["f_op"] == 0.5
        assert report_payload["c_max"] == 1.5
        assert report_payload["it_pb_steps"] == 3000

    def test_realtime_json_uses_microseconds(self):
        cfg = MonitorConfig(k=3000, fs=1000.0, f_op=0.5, clock="realtime")
        event = MonitorEvent(buffer_seq=0, zero_index=58,
                             fault_probs=np.array([0.7, 0.1, 0.1, 0.1]),
                             predicted_class=FaultKind.GOOD, rul=900.0,
                             alarm=False, it_pc=0.002, timestamp_us=123)
        payload = json.loads(event_to_json(event, cfg, ExtractionConfig.for_sample_rate(cfg.fs)))
        assert payload["it_pc_us"] == 2000

    def test_realtime_report_has_producer_lag(self):
        cfg = MonitorConfig(k=500, fs=20_000.0, f_op=1.0, clock="realtime")
        events, report = run_monitor(np.zeros(2000, dtype=np.int32),
                                     forced_classifier([9, 0, 0, 0]), forced_regressor(5000.0), cfg)
        payload = json.loads(report_to_json(report, cfg, events))
        assert payload["banks_delivered"] == 4
        assert payload["producer_lag_max_us"] == round(report.producer_lag_max * 1e6) >= 0
        virtual = replace(cfg, clock="virtual")
        events, report = run_monitor(np.zeros(2000, dtype=np.int32),
                                     forced_classifier([9, 0, 0, 0]), forced_regressor(5000.0),
                                     virtual)
        assert report.producer_lag_max is None
        assert "producer_lag_max_us" not in json.loads(report_to_json(report, virtual, events))

    def test_realtime_report_reads_it_pc_from_events(self):
        cfg = MonitorConfig(k=3000, fs=1000.0, f_op=0.5, clock="realtime")
        report = TimingReport(inference_time_per_buffer=0.001, overrun_count=0,
                              banks_delivered=1, producer_lag_max=0.0)
        events = [MonitorEvent(buffer_seq=0, zero_index=z, fault_probs=np.ones(4) / 4,
                               predicted_class=FaultKind.GOOD, rul=900.0, alarm=False,
                               it_pc=it_pc, timestamp_us=0)
                  for z, it_pc in ((58, 0.002), (2058, 0.004))]
        events.insert(1, DiagnosticEvent(0, 1058, "NoActuationError"))
        payload = json.loads(report_to_json(report, cfg, events))
        assert payload["it_pc_us"] == 3000 and payload["it_pb_us"] == 1000
        assert payload["lossless"] is True and payload["b_fd_us"] == 3_000_000
        assert json.loads(report_to_json(report, cfg, events[1:2]))["it_pc_us"] is None

    @pytest.mark.parametrize("clock", ["virtual", "realtime"])
    def test_event_line_has_the_bytes_of_json_dumps(self, clock):
        # the template against the payload json.dumps writes, on extreme,
        # signed-zero and non-finite floats, every class and both alarm values
        cfg = MonitorConfig(k=3000, fs=1000.0, f_op=0.5, clock=clock)
        excfg = ExtractionConfig.for_sample_rate(cfg.fs)
        probs_cases = [np.array([5e-324, 1e308, -0.0, 0.1]), np.array([0.7, 0.1, 0.1, 0.1]),
                       np.array([1 / 3, 2 / 3, 0.0, 1e-17]),
                       np.array([np.nan, np.inf, -np.inf, 0.5])]
        ruls = [-0.0, 0.0, 5e-324, 1e308, 1234.5678, np.float64(7.0), np.inf, np.nan]
        for kind, alarm, probs, rul in itertools.product(FaultKind, (False, np.True_),
                                                         probs_cases, ruls):
            event = MonitorEvent(buffer_seq=7, zero_index=123456, fault_probs=probs,
                                 predicted_class=kind, rul=rul, alarm=alarm,
                                 it_pc=0.0012345, timestamp_us=1792463013372912)
            payload = {"type": "event", "buffer_seq": 7, "zero_index": 123456,
                       "fault_probs": [float(p) for p in probs],
                       "predicted_class": kind.value, "rul": float(rul),
                       "alarm": bool(alarm), "timestamp_us": 1792463013372912}
            if clock == "virtual":
                payload["it_pc_steps"] = excfg.lower_window + excfg.frame
            else:
                payload["it_pc_us"] = 1234
            assert event_to_json(event, cfg, excfg) == json.dumps(payload)

    def test_diagnostic_json(self):
        cfg = MonitorConfig(k=3000, fs=1000.0, f_op=0.5)
        payload = json.loads(event_to_json(
            DiagnosticEvent(1, 42, "NoActuationError"), cfg,
            ExtractionConfig.for_sample_rate(cfg.fs)))
        assert payload == {"type": "diagnostic", "buffer_seq": 1,
                           "zero_index": 42, "reason": "NoActuationError"}


class TestScenarioSources:
    def test_constant_source_trigger_layout(self):
        codes, triggers = scenario_source(constant_schedule(FaultCondition.good(), 5),
                                          fs=1000.0, f_op=2.0, **STOCK_VALVE, seed=10)
        assert triggers == [60 + i * 500 for i in range(5)]
        assert len(codes) == 60 + 5 * 500

    def test_degradation_source_sweeps_to_failure(self, trained_fault, trained_rul):
        fault_model = trained_fault[0]
        rul_model = trained_rul[0]
        cfg = MonitorConfig(k=10000, fs=1000.0, f_op=0.5)
        codes, triggers = scenario_source(degradation_schedule(40, failure_cycle=200),
                                          fs=cfg.fs, f_op=cfg.f_op, **STOCK_VALVE, seed=11)
        events, _ = run_monitor(iter(codes), fault_model, rul_model, cfg)
        mons = monitor_events(events)
        assert len(mons) == len(triggers)
        # late-life actuations read as spool-stuck and raise the alarm
        assert mons[-1].predicted_class is FaultKind.SPOOL_STUCK
        assert any(e.alarm for e in mons[:-1])
        # remaining-life trend is downward
        rul_fit = np.polyfit(np.arange(len(mons)), [e.rul for e in mons], 1)
        assert rul_fit[0] < 0

    def test_mixed_schedule_segments(self):
        fs, f_op = 1000.0, 2.0
        conditions = [FaultCondition.good(), FaultCondition(FaultKind.SPOOL_STUCK),
                      FaultCondition(FaultKind.SPRING_FAILURE),
                      FaultCondition.under_voltage(10.0)]
        schedule = [(fault, DegradationState(cycle=wear, failure_cycle=100))
                    for fault, wear in zip(conditions, [0, 30, 60, 100])]
        params = ValveParams()
        codes, triggers = scenario_source(schedule, fs=fs, f_op=f_op, params=params,
                                          noise_std=0.0, seed=0)
        period = 500
        on = period // 2
        idle = current_to_codes(np.array([params.idle_current]))[0]
        assert triggers == [60 + i * period for i in range(len(schedule))]
        assert len(codes) == 60 + len(schedule) * period
        assert np.all(codes[:60] == idle)
        t_ms = np.arange(on) * (1000.0 / fs)
        for trigger, (fault, deg) in zip(triggers, schedule):
            expected = current_to_codes(transient_current(params, fault, deg, t_ms))
            assert np.array_equal(codes[trigger:trigger + on], expected)
            assert np.all(codes[trigger + on:trigger + period] == idle)

    def test_bad_args(self):
        rates = dict(fs=1000.0, f_op=0.5, **STOCK_VALVE, seed=0)
        with pytest.raises(ParameterError):
            scenario_source(constant_schedule(FaultCondition.good(), 0), **rates)
        with pytest.raises(ParameterError):
            scenario_source(degradation_schedule(0), **rates)
