#!/usr/bin/env python3
"""Synthesize the four valve health conditions and compare their signatures.

Walks through the waveform generator: a healthy transient (exponential rise
with a plunger dip), a stuck spool (no dip), a failing spring (late, shallow
dip), and an under-voltage drive (lower plateau, slower rise). Prints the
extracted feature pair for each and, if matplotlib is available, saves an
overlay plot to transient_zoo.png.
"""

import numpy as np

from valvehealth import (DegradationState, FaultCondition, FaultKind, ValveParams,
                         extract_all, synth_transient)

CONDITIONS = [
    ("good", FaultCondition.good()),
    ("spool_stuck", FaultCondition(FaultKind.SPOOL_STUCK)),
    ("spring_failure", FaultCondition(FaultKind.SPRING_FAILURE)),
    ("under_voltage_12V", FaultCondition.under_voltage(12.0)),
]


def main():
    params = ValveParams()
    fresh = DegradationState(cycle=0, failure_cycle=1500)

    print(f"{'condition':<20} {'di/dt mA/ms':>12} {'AUC mA':>10} "
          f"{'Tl ms':>6} {'Tu ms':>6} {'peak mA':>8}")
    print("-" * 68)

    traces = {}
    for name, fault in CONDITIONS:
        trace = synth_transient(params, fault, fresh, noise_std=1.0, seed=7)
        traces[name] = trace
        (ft,), _ = extract_all(trace)
        print(f"{name:<20} {ft.di_dt:>12.3f} {ft.auc:>10.2f} "
              f"{ft.tl:>6.1f} {ft.tu:>6.1f} {trace.samples.max():>8.1f}")

    print()
    print("The dip (back-EMF of the moving plunger) is what separates a")
    print("healthy valve from a stuck one; its timing separates a failing")
    print("spring; the plateau level separates an under-voltage drive.")

    # degradation sweep: the same valve wearing out
    print()
    print("wear sweep (good valve, severity 0 -> 1):")
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        deg = DegradationState(cycle=int(s * 1500), failure_cycle=1500)
        trace = synth_transient(params, FaultCondition.good(), deg)
        (ft,), _ = extract_all(trace)
        print(f"  severity {s:4.2f}: di/dt {ft.di_dt:8.3f}  AUC {ft.auc:8.2f}")
    print("AUC falls monotonically toward the spool-stuck signature.")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("\nmatplotlib not installed; skipping the plot")
        return

    fig, ax = plt.subplots(figsize=(9, 5))
    for name, trace in traces.items():
        times_ms = np.arange(trace.samples.size) * 1000.0 / trace.sample_rate
        ax.plot(times_ms, trace.samples, label=name, linewidth=1.2)
    ax.set_xlabel("time (ms)")
    ax.set_ylabel("drive current (mA)")
    ax.set_title("Solenoid transient signatures by health condition")
    ax.legend()
    fig.tight_layout()
    fig.savefig("transient_zoo.png", dpi=130)
    print("\nwrote transient_zoo.png")


if __name__ == "__main__":
    main()
