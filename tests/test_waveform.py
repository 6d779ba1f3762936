import dataclasses
import math

import numpy as np
import pytest

from reference import GAIN, adc_quantize, lsb_ma, raw_to_current
from valvehealth.errors import CsvFormatError, ParameterError
from valvehealth.features import extract_all
from valvehealth.waveform import (BOARD_ADC, DegradationState, FaultCondition,
                                  FaultKind, TransientTrace, ValveParams,
                                  codes_to_current, current_to_codes,
                                  current_to_voltage, effective_transient,
                                  read_trace_csv, sensor_gain, synth_transient,
                                  transient_current, write_trace_csv)

GOOD = FaultCondition.good()
FRESH = DegradationState(cycle=0, failure_cycle=1)
LEAD = 60  # samples before the actuation: synth_transient's default 60 ms at 1 kHz


class TestSensorAlgebra:
    def test_gain_from_paper_resistors(self):
        assert sensor_gain(0.1, 122000) == pytest.approx(12.2, abs=1e-9)

    def test_zero_shunt_gives_zero_gain(self):
        assert sensor_gain(0, 122000) == 0.0

    def test_unit_gain_by_construction(self):
        assert sensor_gain(1.0, 1000) == 1.0

    def test_negative_resistance_rejected(self):
        with pytest.raises(ParameterError):
            sensor_gain(-0.1, 1000)

    def test_full_scale_voltage(self):
        v = current_to_voltage(270, 12.22)
        assert 3.29 <= v <= 3.30
        assert v == pytest.approx(3.2994, abs=1e-9)

    def test_zero_current(self):
        assert current_to_voltage(0, 12.22) == 0.0

    def test_direct_arithmetic(self):
        assert current_to_voltage(100, 10.0) == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ParameterError):
            current_to_voltage(100, 0.0)


class TestAdc:
    def test_full_scale_code(self):
        assert adc_quantize(3.3) == 4095

    def test_zero_code(self):
        assert adc_quantize(0.0) == 0

    def test_midpoint_truncates(self):
        assert adc_quantize(1.65) == math.floor(0.5 * 4095) == 2047

    def test_saturates_both_ends(self):
        assert adc_quantize(-1.0) == 0
        assert adc_quantize(99.0) == 4095

    def test_raw_to_current_endpoints(self):
        # 4095 -> full scale / gain: 3.3 / 12.22 * 1000
        assert raw_to_current(4095) == pytest.approx(270.0491, abs=1e-3)
        assert raw_to_current(0) == 0.0
        assert raw_to_current(2047) == pytest.approx(2047 / 4095 * 3.3 / 12.22 * 1000, abs=1e-12)

    def test_raw_out_of_range(self):
        with pytest.raises(ParameterError):
            raw_to_current(4096)
        with pytest.raises(ParameterError):
            raw_to_current(-1)

    def test_round_trip_within_one_lsb(self):
        for i in np.linspace(0.0, 270.0, 2000):
            code = adc_quantize(current_to_voltage(i, GAIN))
            back = raw_to_current(code)
            assert abs(back - i) <= lsb_ma()

    def test_vector_helpers_match_scalar_path(self):
        currents = np.append(np.linspace(-5.0, 300.0, 500), [-1e300, 1e300])
        codes = current_to_codes(currents)
        for i, c in zip(currents, codes):
            assert c == adc_quantize(current_to_voltage(i, GAIN))
        back = codes_to_current(codes, BOARD_ADC)
        for c, b in zip(codes, back):
            assert b == raw_to_current(int(c))

    def test_table_lookup_equals_formula_on_every_code(self):
        adc = BOARD_ADC
        codes = np.arange(adc.max_code + 1, dtype=np.int32)
        formula = codes.astype(np.float64) / adc.max_code * adc.full_scale / adc.gain * 1000.0
        assert codes_to_current(codes, adc).tobytes() == formula.tobytes()
        assert codes_to_current(codes.astype(np.int64)).tobytes() == formula.tobytes()
        assert codes_to_current(codes.reshape(64, 64)).tobytes() == formula.tobytes()

    def test_every_code_round_trips(self):
        # a trace CSV holds each code's table current; reading it back must
        # give the same code, not the one below it where the floor rounds low
        codes = np.arange(BOARD_ADC.max_code + 1, dtype=np.int32)
        assert np.array_equal(current_to_codes(codes_to_current(codes)), codes)

    @pytest.mark.parametrize("current", [math.nan, math.inf, -math.inf])
    def test_non_finite_current_rejected(self, current):
        with pytest.raises(ParameterError):
            current_to_codes(np.array([1.0, current, 1e300]))

    @pytest.mark.parametrize("codes", [[-1], [4096], [0, 4096, 5], np.array([-1], np.int8)])
    def test_out_of_range_codes_rejected(self, codes):
        with pytest.raises(ParameterError):
            codes_to_current(np.asarray(codes))

    def test_non_integer_codes_rejected(self):
        with pytest.raises(ParameterError):
            codes_to_current(np.array([100.0, 200.0]))

    def test_bits_bounds(self):
        with pytest.raises(ParameterError):
            dataclasses.replace(BOARD_ADC, bits=7)
        with pytest.raises(ParameterError):
            dataclasses.replace(BOARD_ADC, bits=17)


class TestValveParams:
    def test_defaults_valid(self):
        ValveParams()

    def test_idle_must_stay_near_zero(self):
        with pytest.raises(ParameterError):
            ValveParams(idle_current=20.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ParameterError):
            ValveParams(settling_current=float("nan"))

    def test_under_voltage_bounds(self):
        FaultCondition.under_voltage(8.0)
        with pytest.raises(ParameterError):
            FaultCondition.under_voltage(24.0)
        with pytest.raises(ParameterError):
            FaultCondition.under_voltage(7.9)
        with pytest.raises(ParameterError):
            FaultCondition(FaultKind.UNDER_VOLTAGE)  # voltage missing

    def test_voltage_only_for_under_voltage(self):
        with pytest.raises(ParameterError):
            FaultCondition(FaultKind.GOOD, applied_voltage=12.0)


class TestDegradation:
    def test_fresh_severity_zero(self):
        assert DegradationState(0, 1500).severity == 0.0

    def test_boundary_severity_one(self):
        assert DegradationState(1500, 1500).severity == 1.0

    def test_linear_ratio(self):
        assert DegradationState(750, 1500).severity == 0.5

    def test_degrade_advances_and_saturates(self):
        d = DegradationState(750, 1500)
        assert d.cycle == 750 and d.severity == 0.5
        assert DegradationState(d.cycle + 10_000, 1500).severity == 1.0

    def test_negative_cycles_rejected(self):
        with pytest.raises(ParameterError):
            DegradationState(-1, 1500)


class TestSynthTransient:
    def test_deterministic_given_seed(self):
        a = synth_transient(ValveParams(), GOOD, FRESH, noise_std=1.5, seed=42)
        b = synth_transient(ValveParams(), GOOD, FRESH, noise_std=1.5, seed=42)
        assert np.array_equal(a.samples, b.samples)
        c = synth_transient(ValveParams(), GOOD, FRESH, noise_std=1.5, seed=43)
        assert not np.array_equal(a.samples, c.samples)

    def test_idle_segment_then_rise(self):
        tr = synth_transient(ValveParams(), GOOD, FRESH)
        assert np.all(tr.samples[:LEAD] == 0.0)
        assert tr.samples[LEAD + 1] > 0.0  # the rise starts where the lead-in ends
        assert tr.samples[-1] > 200.0

    def test_delta_ecv_matches_closed_form_within_one_lsb(self):
        # the upper and lower ECV windows of the extracted feature set must
        # reproduce the analog generator's window means up to quantization
        p = ValveParams()
        tr = synth_transient(p, GOOD, FRESH)
        (ft,), _ = extract_all(tr)
        z = ft.zero_index
        t = (np.arange(tr.samples.size) - LEAD) * 1.0
        analog_upper = transient_current(p, GOOD, FRESH, t[z + 30: z + 50]).mean()
        analog_lower = transient_current(p, GOOD, FRESH, t[z - 50: z]).mean()
        assert abs(ft.delta_ecv - (analog_upper - analog_lower)) <= lsb_ma()
        # with the fast default rise the upper window is settled, so the
        # delta also lands within one LSB of settling - idle
        assert abs(ft.delta_ecv - (p.settling_current - p.idle_current)) <= lsb_ma()

    def test_under_voltage_scaling_rule(self):
        p = ValveParams()
        eff = effective_transient(p, FaultCondition.under_voltage(12.0), FRESH)
        assert eff.settling_ma == pytest.approx(0.5 * p.settling_current)
        assert eff.rise_tau_ms == pytest.approx(2.0 * p.rise_tau)
        tr = synth_transient(p, FaultCondition.under_voltage(12.0), FRESH)
        assert abs(tr.samples[-1] - 125.0) <= lsb_ma()

    def test_spool_stuck_has_no_notch(self):
        p = ValveParams()
        tr = synth_transient(p, FaultCondition(FaultKind.SPOOL_STUCK), FRESH)
        lo = LEAD + round(p.dip_time) - 5
        hi = LEAD + round(p.dip_time) + 5
        window = tr.samples[lo:hi]
        t = (np.arange(lo, hi) - LEAD) * 1.0
        rise = transient_current(p, FaultCondition(FaultKind.SPOOL_STUCK), FRESH, t)
        assert np.all(np.abs(window - rise) <= lsb_ma())
        assert window.min() == window[0]  # monotone rise, no dip

    def test_good_valve_has_visible_dip(self):
        p = ValveParams()
        tr = synth_transient(p, GOOD, FRESH)
        dip_region = tr.samples[LEAD + 10: LEAD + 20]
        plateau = tr.samples[LEAD + 40]
        assert plateau - dip_region.min() > 0.8 * p.dip_depth

    def test_spring_failure_dip_later_and_shallower(self):
        p = ValveParams()
        good = synth_transient(p, GOOD, FRESH).samples
        spring = synth_transient(p, FaultCondition(FaultKind.SPRING_FAILURE), FRESH).samples
        lo = 70  # past the rise; the notch sits at 15 ms (good) / 22.5 ms (spring)
        assert np.argmin(good[lo:110]) < np.argmin(spring[lo:110])
        plateau = good[110]
        assert plateau - spring[lo:110].min() < plateau - good[lo:110].min()

    def test_severity_one_equals_spool_stuck_trace(self):
        p = ValveParams()
        dead = DegradationState(1000, 1000)
        worn = synth_transient(p, GOOD, dead)
        stuck = synth_transient(p, FaultCondition(FaultKind.SPOOL_STUCK), dead)
        assert np.array_equal(worn.samples, stuck.samples)

    def test_monotone_degradation_auc(self):
        p = ValveParams()
        aucs = []
        for s in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            deg = DegradationState(int(round(s * 1000)), 1000)
            tr = synth_transient(p, GOOD, deg)
            (ft,), _ = extract_all(tr)
            aucs.append(ft.auc)
        assert all(a >= b for a, b in zip(aucs, aucs[1:]))

    def test_under_voltage_monotonicity(self):
        p = ValveParams()
        plateaus, slopes = [], []
        for v in (8.0, 10.0, 12.0, 14.0, 16.0):
            tr = synth_transient(p, FaultCondition.under_voltage(v), FRESH)
            (ft,), _ = extract_all(tr)
            plateaus.append(tr.samples.max())
            slopes.append(ft.di_dt)
        assert all(a < b for a, b in zip(plateaus, plateaus[1:]))
        assert all(a < b for a, b in zip(slopes, slopes[1:]))

    def test_temperature_reduces_auc(self):
        cool = synth_transient(ValveParams(temperature=26.0), GOOD, FRESH)
        hot = synth_transient(ValveParams(temperature=80.0), GOOD, FRESH)
        (ft_cool,), _ = extract_all(cool)
        (ft_hot,), _ = extract_all(hot)
        assert ft_hot.auc < ft_cool.auc

    def test_pressure_lifts_peak(self):
        low = synth_transient(ValveParams(pressure=1.0), GOOD, FRESH)
        high = synth_transient(ValveParams(pressure=6.0), GOOD, FRESH)
        assert high.samples.max() > low.samples.max()

    def test_noise_validity(self):
        with pytest.raises(ParameterError):
            synth_transient(ValveParams(), GOOD, FRESH, noise_std=-1.0)
        with pytest.raises(ParameterError):
            synth_transient(ValveParams(), GOOD, FRESH, noise_std=float("inf"))

    def test_samples_live_on_lsb_grid(self):
        tr = synth_transient(ValveParams(), GOOD, FRESH, noise_std=2.0, seed=9)
        codes = tr.samples / lsb_ma()
        assert np.allclose(codes, np.round(codes), atol=1e-9)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        tr = synth_transient(ValveParams(), GOOD, FRESH, noise_std=1.0, seed=3)
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        back = read_trace_csv(path)
        assert back.sample_rate == pytest.approx(tr.sample_rate)
        assert np.array_equal(back.samples, tr.samples)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,current\n0,1\n1,2\n")
        with pytest.raises(CsvFormatError) as err:
            read_trace_csv(path)
        assert err.value.line == 1

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_ms,current_mA\n0.0,1.5\n1.0,oops\n")
        with pytest.raises(CsvFormatError) as err:
            read_trace_csv(path)
        assert err.value.line == 3

    def test_nonuniform_spacing_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_ms,current_mA\n0.0,1.0\n1.0,2.0\n2.5,3.0\n")
        with pytest.raises(CsvFormatError):
            read_trace_csv(path)

    def test_trace_validation(self):
        with pytest.raises(ParameterError):
            TransientTrace(np.array([]), 1000.0)
        with pytest.raises(ParameterError):
            TransientTrace(np.array([1.0, float("nan")]), 1000.0)
        with pytest.raises(ParameterError):
            TransientTrace(np.array([1.0]), 0.0)
