"""Solenoid-valve condition monitoring from drive-current transients.

Submodules mirror the signal path: ``waveform`` synthesizes drive currents
and models the sensing chain, ``acquisition`` provides the lossless
ping-pong buffer, ``features`` extracts the transient feature set,
``tinynn`` is the dense-network engine, ``models`` builds and trains the
fault classifier and remaining-life regressor, and ``pipeline`` wires it
all into the live monitor loop exposed by the ``valvehealth`` CLI.
"""

from .acquisition import (BankHandle, PingPongBuffer, TimingReport,
                          buffer_fill_duration, max_cycles, run_acquisition)
from .features import (ExtractionConfig, TransientFeatures, detect_rising_edges,
                       extract_all, extract_features)
from .models import (Dataset, FaultReport, RulReport, build_fault_model,
                     build_rul_model, evaluate, gen_fault_dataset, gen_rul_dataset,
                     split_dataset, train_fault, train_rul)
from .pipeline import (DiagnosticEvent, MonitorConfig, MonitorEvent,
                       run_monitor, scenario_source)
from .tinynn import (Activation, LayerSpec, Mlp, ModelKind, TrainConfig,
                     TrainHistory, infer, restore, save, train)
from .waveform import (BOARD_ADC, AdcConfig, DegradationState, FaultCondition,
                       FaultKind, TransientTrace, ValveParams, current_to_voltage,
                       sensor_gain, synth_transient)

__version__ = "0.1.0"
