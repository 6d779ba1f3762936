import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the reference oracle module

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # Deterministic examples, no wall-clock deadline and no example database,
    # so a property test neither flakes on a slow runner nor writes files.
    settings.register_profile("deterministic", derandomize=True, deadline=None,
                              max_examples=40, database=None)
    settings.load_profile("deterministic")

from valvehealth import models
from valvehealth.tinynn import TrainConfig
from valvehealth.waveform import (DegradationState, FaultCondition, FaultKind,
                                  ValveParams, synth_transient)


@pytest.fixture(scope="session")
def fault_dataset():
    return models.gen_fault_dataset(seed=0)


@pytest.fixture(scope="session")
def rul_dataset():
    return models.gen_rul_dataset(n_valves=4, seed=0)


@pytest.fixture(scope="session")
def trained_fault(fault_dataset):
    """(model, history, report) trained with the production defaults."""
    return models.train_fault(fault_dataset, TrainConfig(epochs=50, batch_size=10, seed=0))


@pytest.fixture(scope="session")
def trained_rul(rul_dataset):
    return models.train_rul(rul_dataset, TrainConfig(epochs=50, batch_size=10, seed=0))


def constant_schedule(fault: FaultCondition, n_cycles: int):
    """``scenario_source`` schedule of ``n_cycles`` identical, unworn actuations."""
    return [(fault, DegradationState(cycle=0, failure_cycle=1_000_000))] * n_cycles


def degradation_schedule(n_cycles: int, failure_cycle: int = 200):
    """``scenario_source`` schedule of a good valve wearing out: actuation i
    runs at wear cycle ``5 * i``."""
    return [(FaultCondition.good(), DegradationState(cycle=5 * i, failure_cycle=failure_cycle))
            for i in range(n_cycles)]


def random_synthetic_trace(seed: int) -> np.ndarray:
    """One randomized multi-actuation sample stream for oracle-equivalence
    sweeps: random valve, fault, severity, noise and actuation count.

    Some draws legitimately produce no detectable edge or degenerate
    transients; equivalence checks care about agreement, not success.
    """
    rng = np.random.default_rng(seed)
    params = ValveParams(
        settling_current=rng.uniform(180.0, 270.0),
        rise_tau=rng.uniform(0.5, 2.5),
        dip_time=rng.uniform(10.0, 20.0),
        dip_depth=rng.uniform(20.0, 80.0),
        dip_width=rng.uniform(2.0, 4.0),
        idle_current=rng.uniform(0.0, 3.0),
    )
    roll = rng.integers(4)
    if roll == 0:
        fault = FaultCondition.good()
    elif roll == 1:
        fault = FaultCondition(FaultKind.SPOOL_STUCK)
    elif roll == 2:
        fault = FaultCondition(FaultKind.SPRING_FAILURE)
    else:
        fault = FaultCondition.under_voltage(rng.uniform(8.0, 23.0))
    deg = DegradationState(cycle=int(rng.integers(0, 1001)), failure_cycle=1000)
    noise = rng.uniform(0.0, 2.0)

    pieces = []
    for i in range(int(rng.integers(1, 4))):
        tr = synth_transient(params, fault, deg, noise_std=noise,
                             seed=int(rng.integers(2 ** 31)))
        # a random extra 0-60 ms of lead and 0-55 ms of tail, held at the end values
        pad = (int(rng.integers(0, 61)), int(rng.integers(0, 56)))
        pieces.append(np.pad(tr.samples, pad, mode="edge"))
    return np.concatenate(pieces)
