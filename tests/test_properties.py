"""Property tests over randomized streams and bank sizes."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from conftest import random_synthetic_trace
from test_pipeline import forced_classifier, forced_regressor
from valvehealth.features import ExtractionConfig, detect_rising_edges
from valvehealth.pipeline import MonitorConfig, run_monitor
from valvehealth.waveform import codes_to_current, current_to_codes


@given(seed=st.integers(0, 2 ** 16), k=st.integers(1, 2000))
def test_events_do_not_depend_on_bank_size(seed, k):
    """Every edge the whole stream holds is emitted once, whatever K."""
    codes = current_to_codes(random_synthetic_trace(seed))
    cfg = MonitorConfig(k=k, fs=1000.0, f_op=1.0)
    events, _ = run_monitor(codes, forced_classifier([9, 0, 0, 0]),
                            forced_regressor(5000.0), cfg)
    whole = detect_rising_edges(codes_to_current(codes),
                                ExtractionConfig.for_sample_rate(cfg.fs))
    assert [e.zero_index for e in events] == whole
