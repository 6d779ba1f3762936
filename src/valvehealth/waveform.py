"""Synthetic solenoid-valve drive currents and the current-sensing chain.

A healthy valve's drive current rises exponentially toward its settling value
and shows a short notch (the plunger dip) while the armature is in motion.
Faults, wear, and operating conditions deform that signature in characteristic
ways, which is what the downstream feature extractor and classifiers key on.

The transient model is a first-order rise minus a Gaussian notch:

    I(t) = idle + A * (1 - exp(-t / tau)) - D * exp(-(t - t_d)^2 / (2 w^2))

for t >= 0 (actuation at t = 0), idle before. The sensing chain converts
current to a voltage through a shunt amplifier (gain = Rs * Rl / 1 kOhm) and
quantizes it with a saturating, truncating ADC, so synthesized traces live on
the ADC's LSB grid and tests can be bit-exact. The board has one such chain,
``BOARD_ADC``: a 12-bit ADC over 3.3 V behind a gain of 12.22.

``drive_currents`` evaluates the closed form for many transients at once,
one matrix row each. ``synth_batch`` builds on it to synthesize many
actuations as one trace matrix, each row with its own seeded noise draw;
``synth_transient`` is its one-row form.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import CsvFormatError, ParameterError

# Degradation and environment shape constants. The signs follow the observed
# behaviour of worn, heated and pressurised valves; the magnitudes are
# simulator tuning knobs, not measured values.
WEAR_SETTLING_DROOP = 0.15      # fractional settling-current loss at severity 1
SPRING_DIP_DELAY_FACTOR = 1.5   # a failing spring lets the plunger move later
SPRING_DIP_DEPTH_FACTOR = 0.5   # and with less back-EMF
TEMP_AUC_SLOPE = 0.003          # fractional amplitude loss per degC above reference
PRESSURE_PEAK_SLOPE_MA = 2.0    # settling-current rise per bar above reference
REFERENCE_TEMP_C = 26.0
REFERENCE_PRESSURE_BAR = 1.0

_LEAD_MS = 60.0        # idle lead of a synthesized row: room for the 50 ms pre-edge average
_TRANSIENT_MS = 105.0  # the transient after it: room for the 100 ms region of interest


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")


class FaultKind(Enum):
    GOOD = "good"
    SPOOL_STUCK = "spool_stuck"
    SPRING_FAILURE = "spring_failure"
    UNDER_VOLTAGE = "under_voltage"


@dataclass(frozen=True)
class FaultCondition:
    """Health condition injected into a synthesized transient.

    ``applied_voltage`` is only meaningful (and mandatory) for
    ``UNDER_VOLTAGE``; it must lie in [8, 24) volts.
    """

    kind: FaultKind
    applied_voltage: float | None = None

    def __post_init__(self):
        if self.kind is FaultKind.UNDER_VOLTAGE:
            if self.applied_voltage is None:
                raise ParameterError("under-voltage condition needs applied_voltage")
            _require_finite("applied_voltage", self.applied_voltage)
            if not 8.0 <= self.applied_voltage < 24.0:
                raise ParameterError(
                    f"applied_voltage must be in [8, 24) V, got {self.applied_voltage}"
                )
        elif self.applied_voltage is not None:
            raise ParameterError(f"applied_voltage is only valid for under-voltage, not {self.kind}")

    @classmethod
    def good(cls):
        return cls(FaultKind.GOOD)

    @classmethod
    def under_voltage(cls, volts: float):
        return cls(FaultKind.UNDER_VOLTAGE, applied_voltage=volts)


@dataclass(frozen=True)
class ValveParams:
    """Electrical and mechanical parameters of one valve.

    Defaults describe a 24 V valve settling at 250 mA with a 60 mA plunger
    dip 15 ms into the actuation. The rise constant is fast enough that the
    5 ms moving-average edge detector still fires on the weaker, slower
    transients an 8 V under-voltage drive produces (its first-window mean
    must clear the 40 mA threshold even with +10% jitter on tau).
    """

    supply_voltage: float = 24.0     # rated volts
    settling_current: float = 250.0  # mA at rated voltage
    rise_tau: float = 0.7            # ms
    dip_time: float = 15.0           # ms after actuation
    dip_depth: float = 60.0          # mA
    dip_width: float = 3.0           # ms (Gaussian sigma)
    idle_current: float = 0.0        # mA before actuation
    temperature: float = REFERENCE_TEMP_C    # degC
    pressure: float = REFERENCE_PRESSURE_BAR  # bar at the inlet

    def __post_init__(self):
        for name in ("supply_voltage", "settling_current", "rise_tau", "dip_time",
                     "dip_depth", "dip_width", "idle_current", "temperature", "pressure"):
            _require_finite(name, getattr(self, name))
        if self.settling_current <= 0:
            raise ParameterError("settling_current must be > 0")
        if self.rise_tau <= 0:
            raise ParameterError("rise_tau must be > 0")
        if self.dip_width <= 0:
            raise ParameterError("dip_width must be > 0")
        if self.dip_depth < 0:
            raise ParameterError("dip_depth must be >= 0")
        if self.supply_voltage <= 0:
            raise ParameterError("supply_voltage must be > 0")
        # The edge detector requires a near-zero pre-actuation baseline.
        if self.idle_current >= 0.05 * self.settling_current:
            raise ParameterError("idle_current must stay below 5% of settling_current")


@dataclass(frozen=True)
class DegradationState:
    """Run-to-failure progress: ``severity`` ramps 0 -> 1 as cycles accrue."""

    cycle: int = 0
    failure_cycle: int = 1500

    def __post_init__(self):
        if self.cycle < 0:
            raise ParameterError("cycle must be >= 0")
        if self.failure_cycle <= 0:
            raise ParameterError("failure_cycle must be > 0")

    @property
    def severity(self) -> float:
        return min(self.cycle / self.failure_cycle, 1.0)


@dataclass(frozen=True)
class AdcConfig:
    """Shunt-amplifier gain plus ADC sizing of the sensing chain."""

    full_scale: float  # volts
    bits: int
    gain: float        # dimensionless, from sensor_gain()

    def __post_init__(self):
        if not 8 <= self.bits <= 16:
            raise ParameterError(f"bits must be in [8, 16], got {self.bits}")
        if self.full_scale <= 0 or self.gain <= 0:
            raise ParameterError("full_scale and gain must be > 0")

    @property
    def max_code(self) -> int:
        return (1 << self.bits) - 1

    @functools.cached_property
    def _currents(self) -> np.ndarray:
        """The mA value of every code, read-only: ``code / max_code *
        full_scale / gain * 1000``, computed element by element in that order."""
        codes = np.arange(self.max_code + 1, dtype=np.float64)
        table = codes / self.max_code * self.full_scale / self.gain * 1000.0
        table.setflags(write=False)
        return table


BOARD_ADC = AdcConfig(full_scale=3.3, bits=12, gain=12.22)
_NEXT_CURRENT = np.append(BOARD_ADC._currents[1:], np.inf)  # the current of code + 1


@dataclass(frozen=True)
class TransientTrace:
    """Uniformly sampled drive current in mA."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ParameterError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ParameterError("samples must be finite")
        if not 0 < self.sample_rate < math.inf:
            raise ParameterError(f"sample_rate must be finite and > 0, got {self.sample_rate!r}")


def sensor_gain(rs_ohm: float, rl_ohm: float) -> float:
    """Gain of the shunt amplifier: Rs * Rl / 1 kOhm."""
    if rs_ohm < 0 or rl_ohm < 0:
        raise ParameterError("resistances must be >= 0")
    return rs_ohm * rl_ohm / 1000.0


def current_to_voltage(i_ma: float, gain: float) -> float:
    """Amplifier output voltage for a drive current of ``i_ma`` mA."""
    if gain <= 0:
        raise ParameterError("gain must be > 0")
    return i_ma / 1000.0 * gain


def current_to_codes(i_ma: np.ndarray) -> np.ndarray:
    """Vectorized analog-current to raw-code conversion through ``BOARD_ADC``.

    Where the floor rounds one below a code whose table current ``i_ma``
    reaches, the code is raised to it, so every code round-trips through
    ``codes_to_current``. Finite currents saturate at codes 0 and
    ``max_code``; a non-finite one raises ``ParameterError``."""
    i_ma = np.asarray(i_ma, dtype=np.float64)
    if not np.logical_and.reduce(np.isfinite(i_ma), axis=None):
        raise ParameterError("currents must be finite")
    clamped = np.clip(i_ma / 1000.0 * BOARD_ADC.gain, 0.0, BOARD_ADC.full_scale)
    # the cast truncates, which is the floor of a value >= 0
    codes = (clamped / BOARD_ADC.full_scale * BOARD_ADC.max_code).astype(np.int32)
    codes += _NEXT_CURRENT.take(codes) <= i_ma
    return codes


def codes_to_current(codes: np.ndarray, cfg: AdcConfig = BOARD_ADC) -> np.ndarray:
    """Vectorized raw-code to mA conversion, a lookup in the table of every
    code's current that ``cfg`` builds once."""
    codes = np.asarray(codes)
    if codes.dtype.kind not in "iu":
        raise ParameterError(f"codes must be integers, got dtype {codes.dtype}")
    table = cfg._currents
    if codes.size and (np.minimum.reduce(codes, axis=None) < 0
                       or np.maximum.reduce(codes, axis=None) >= table.size):
        raise ParameterError(f"codes must be in [0, {table.size - 1}]")
    return table.take(codes)


class EffectiveTransient(NamedTuple):
    """Closed-form transient parameters after fault/wear/environment effects,
    in the argument order of ``_drive_current``."""

    settling_ma: float
    rise_tau_ms: float
    dip_depth_ma: float
    dip_time_ms: float
    dip_width_ms: float
    idle_ma: float


def effective_transient(p: ValveParams, fault: FaultCondition,
                        deg: DegradationState) -> EffectiveTransient:
    """Resolve the generator parameters for one health condition.

    Rules, applied in order:
      * under-voltage at V scales settling current and dip depth by
        V/rated and stretches the rise constant by rated/V;
      * a stuck spool removes the dip, a failing spring delays it and
        halves it;
      * wear severity s shrinks the dip by (1 - s) and droops the settling
        current, so the first-30 ms area falls monotonically and the s = 1
        trace coincides with the spool-stuck signature;
      * temperature above reference scales the whole actuated component
        down; inlet pressure above reference lifts the settling current.
    """
    s = deg.severity
    v_ratio = 1.0
    if fault.kind is FaultKind.UNDER_VOLTAGE:
        v_ratio = fault.applied_voltage / p.supply_voltage

    settling = p.settling_current * v_ratio
    tau = p.rise_tau / v_ratio
    depth = p.dip_depth * v_ratio
    dip_time = p.dip_time
    if fault.kind is FaultKind.SPOOL_STUCK:
        depth = 0.0
    elif fault.kind is FaultKind.SPRING_FAILURE:
        dip_time *= SPRING_DIP_DELAY_FACTOR
        depth *= SPRING_DIP_DEPTH_FACTOR

    depth *= 1.0 - s
    settling *= 1.0 - WEAR_SETTLING_DROOP * s

    env = max(1.0 - TEMP_AUC_SLOPE * (p.temperature - REFERENCE_TEMP_C), 0.0)
    settling *= env
    depth *= env
    settling += PRESSURE_PEAK_SLOPE_MA * (p.pressure - REFERENCE_PRESSURE_BAR)

    return EffectiveTransient(settling, tau, depth, dip_time, p.dip_width, p.idle_current)


def _drive_current(settling, tau, depth, dip_time, width, idle, t) -> np.ndarray:
    """The closed-form current at times ``t``. Pass an ``EffectiveTransient``
    as scalars for one transient, or as ``(n, 1)`` columns for one row per
    transient."""
    rise = settling * (1.0 - np.exp(-t / tau))
    dip = depth * np.exp(-((t - dip_time) ** 2) / (2.0 * width ** 2))
    return np.where(t < 0.0, idle, idle + rise - dip)


def drive_currents(transients: list[EffectiveTransient], t_ms: np.ndarray) -> np.ndarray:
    """Noise-free current of every transient at times ``t_ms``, as one
    ``(len(transients), len(t_ms))`` matrix evaluated column-wise."""
    return _drive_current(*np.array(transients).T[:, :, None], t_ms)


def transient_current(p: ValveParams, fault: FaultCondition, deg: DegradationState,
                      t_ms) -> np.ndarray:
    """Noise-free analog drive current at time(s) ``t_ms`` (actuation at 0)."""
    return _drive_current(*effective_transient(p, fault, deg),
                          np.asarray(t_ms, dtype=np.float64))


def synth_batch(transients: list[EffectiveTransient], seeds: list[int], noise_std: float,
                fs: float) -> np.ndarray:
    """Synthesize one actuation per transient as seen through the sensing
    chain, as one ``(len(transients), samples)`` matrix in mA.

    Each row holds a fixed 60 ms of idle baseline followed by 105 ms of
    transient, sampled at ``fs`` Hz: room for the 50 ms pre-actuation
    average and the 100 ms region of interest. Gaussian noise
    (``noise_std`` mA) is added to the analog value before quantization
    through ``BOARD_ADC``; row i draws it from
    ``default_rng(seeds[i])``, so a row does not depend on the others.
    """
    _require_finite("noise_std", noise_std)
    if noise_std < 0:
        raise ParameterError("noise_std must be >= 0")
    if not 0 < fs < math.inf:
        raise ParameterError(f"fs must be finite and > 0, got {fs!r}")

    n_pre = round(_LEAD_MS * fs / 1000.0)
    n_post = round(_TRANSIENT_MS * fs / 1000.0)
    t = (np.arange(n_pre + n_post) - n_pre) * (1000.0 / fs)
    analog = drive_currents(transients, t)
    if noise_std > 0:
        analog = analog + np.array([np.random.default_rng(seed).normal(0.0, noise_std, t.size)
                                    for seed in seeds])
    return codes_to_current(current_to_codes(analog))


def synth_transient(p: ValveParams, fault: FaultCondition, deg: DegradationState,
                    noise_std: float = 0.0, seed: int = 0,
                    fs: float = 1000.0) -> TransientTrace:
    """One-row form of ``synth_batch``: a fixed 60 ms lead, then 105 ms of transient."""
    samples = synth_batch([effective_transient(p, fault, deg)], [seed], noise_std, fs)
    return TransientTrace(samples[0], fs)


def write_trace_csv(trace: TransientTrace, path) -> None:
    """Write a trace as ``t_ms,current_mA`` rows (full float precision)."""
    dt = 1000.0 / trace.sample_rate
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["t_ms", "current_mA"])
        for i, v in enumerate(trace.samples):
            w.writerow([f"{i * dt:.6f}", repr(float(v))])


def read_trace_csv(path) -> TransientTrace:
    """Read a ``t_ms,current_mA`` file; infers the sample rate from spacing."""
    times, currents = [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != ["t_ms", "current_mA"]:
            raise CsvFormatError("expected header 't_ms,current_mA'", line=1)
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise CsvFormatError(f"expected 2 columns, got {len(row)}", line=line_no)
            try:
                t, ma = float(row[0]), float(row[1])
            except ValueError:
                raise CsvFormatError(f"non-numeric value {row!r}", line=line_no) from None
            if not (math.isfinite(t) and math.isfinite(ma)):
                raise CsvFormatError(f"non-finite value {row!r}", line=line_no)
            times.append(t)
            currents.append(ma)
    if len(times) < 2:
        raise CsvFormatError("trace needs at least 2 rows", line=len(times) + 1)
    dt = times[1] - times[0]
    if dt <= 0:
        raise CsvFormatError("t_ms must be strictly increasing", line=3)
    for i in range(1, len(times)):
        if abs((times[i] - times[i - 1]) - dt) > 1e-6 * max(dt, 1.0):
            raise CsvFormatError("t_ms spacing is not uniform", line=i + 2)
    return TransientTrace(np.asarray(currents), sample_rate=1000.0 / dt)
