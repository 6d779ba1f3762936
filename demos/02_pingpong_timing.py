#!/usr/bin/env python3
"""Exercise the ping-pong buffer: lossless reconstruction and timing algebra.

First streams sine waves through the double buffer and verifies the
concatenated banks reproduce the input sample-for-sample. Then prints the
fill-duration / max-cycles table for the usual bank sizes and actuation
rates, plus what happens when the consumer is too slow to keep up.
"""

import numpy as np

from valvehealth import buffer_fill_duration, max_cycles, run_acquisition

FS = 1000.0
K = 500


def reconstruct(freq_hz: float) -> None:
    t = np.arange(12 * K) / FS
    src = np.round(2047.5 + 2047.5 * np.sin(2 * np.pi * freq_hz * t)).astype(np.int64)

    chunks = []

    def consumer(handle):
        chunks.append(np.array(handle.data, copy=True))
        handle.release()

    report = run_acquisition(iter(src), K, FS, consumer, clock="virtual")
    exact = np.array_equal(np.concatenate(chunks), src)
    print(f"  {freq_hz:6.1f} Hz sine: {report.banks_delivered} bank switches, "
          f"exact={exact}, overruns={report.overrun_count}")


def main():
    print("reconstruction through the double buffer (K=500, fs=1 kHz):")
    for freq in (100.0, 10.0, 1.0):
        reconstruct(freq)

    print()
    print("timing algebra at fs = 1 kHz:")
    print(f"  {'K':>6} {'f_op Hz':>8} {'B_fd s':>8} {'C_max':>6}")
    for k in (1000, 2000, 5000, 10000):
        for f_op in (2.0, 1.0, 0.5):
            c = max_cycles(k, f_op, FS)
            if c < 1:
                continue
            print(f"  {k:>6} {f_op:>8.1f} {buffer_fill_duration(k, FS):>8.1f} {c:>6.3g}")
    print("one bank of 10k samples at 0.5 Hz actuation holds 5 full cycles.")

    print()
    print("a consumer that outlives the fill duration loses data, counted:")
    held = []

    def hoarder(handle):
        held.append(handle)       # never releases in time
        if len(held) > 3:
            held.pop(0).release()

    report = run_acquisition(iter(np.zeros(10 * K, dtype=int)), K, FS, hoarder,
                             clock="virtual")
    print(f"  overruns={report.overrun_count} (banks reused before release)")


if __name__ == "__main__":
    main()
