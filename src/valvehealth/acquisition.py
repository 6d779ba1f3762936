"""Lossless double-buffered sample acquisition.

Two fixed banks alternate roles: a producer fills one while a consumer holds
the other. When the active bank fills, the roles switch atomically and the
just-filled bank is handed to the consumer as an immutable view that stays
valid until released. If a bank must be refilled while the consumer still
holds it, the write proceeds (newest data wins) and the overrun counter
increments, so data loss is counted, never silent.

Timing algebra for a bank of K samples at rate fs with actuations at f_op:

    buffer_fill_duration = K / fs
    max_cycles           = K * f_op / fs

Single producer, single consumer only.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


def buffer_fill_duration(k: int, fs: float) -> float:
    """Seconds needed to fill one bank of ``k`` samples at ``fs`` Hz."""
    if k <= 0 or fs <= 0:
        raise ParameterError("k and fs must be > 0")
    return k / fs


def max_cycles(k: int, f_op: float, fs: float) -> float:
    """Actuation cycles at ``f_op`` Hz that fit in one bank (may be fractional)."""
    if k <= 0 or f_op <= 0 or fs <= 0:
        raise ParameterError("k, f_op and fs must be > 0")
    return k * f_op / fs


class BankHandle:
    """Read-only view of a filled bank, valid until released."""

    __slots__ = ("bank_index", "seq", "data", "released")

    def __init__(self, bank_index: int, seq: int, data: np.ndarray):
        self.bank_index = bank_index
        self.seq = seq
        self.data = data
        self.released = False

    def __len__(self):
        return self.data.size


class PingPongBuffer:
    """Two fixed banks of raw ADC codes with atomic role switching."""

    def __init__(self, k: int, dtype=np.int32):
        if k <= 0:
            raise ParameterError("bank size k must be > 0")
        self.k = k
        self._banks = [np.zeros(k, dtype=dtype), np.zeros(k, dtype=dtype)]
        self._active = 0
        self._write_pos = 0
        self._seq = 0
        self._held: list[BankHandle | None] = [None, None]
        self._overruns = 0
        self._lock = threading.Lock()

    @property
    def overrun_count(self) -> int:
        return self._overruns

    def _hand_out(self, bank_index: int, length: int) -> BankHandle:
        view = self._banks[bank_index][:length].view()
        view.setflags(write=False)
        handle = BankHandle(bank_index, self._seq, view)
        self._held[bank_index] = handle
        self._seq += 1
        return handle

    def push_sample(self, code: int) -> BankHandle | None:
        """Store one sample; returns a handle when this push fills the bank.

        The switch into the other bank counts an overrun if the consumer
        still holds it (its outstanding handle then observes overwrites).
        """
        self._banks[self._active][self._write_pos] = code
        self._write_pos += 1
        if self._write_pos < self.k:
            return None
        with self._lock:
            filled = self._active
            incoming = 1 - filled
            if self._held[incoming] is not None:
                self._overruns += 1
                self._held[incoming] = None  # stale: about to be overwritten
            handle = self._hand_out(filled, self.k)
            self._active = incoming
            self._write_pos = 0
        return handle

    def flush(self) -> BankHandle | None:
        """Deliver the partially filled active bank (end of stream)."""
        if self._write_pos == 0:
            return None
        with self._lock:
            filled = self._active
            handle = self._hand_out(filled, self._write_pos)
            self._active = 1 - filled
            self._write_pos = 0
        return handle

    def release(self, handle: BankHandle) -> None:
        """Return a bank to the producer; releasing a stale handle is a no-op."""
        with self._lock:
            if self._held[handle.bank_index] is handle:
                self._held[handle.bank_index] = None
            handle.released = True


@dataclass
class TimingReport:
    """Derived and measured acquisition timing for one run.

    ``inference_time_*`` are wall-clock means (seconds); per-cycle figures
    are filled in by the monitor pipeline, which knows about actuations.
    ``lossless`` holds exactly when no bank was reused before release.
    """

    k: int
    fs: float
    f_op: float | None
    buffer_fill_duration: float
    max_cycles: float | None
    inference_time_per_cycle: float | None
    inference_time_per_buffer: float | None
    lossless: bool
    overrun_count: int
    banks_delivered: int

    @property
    def it_pb_under_fill(self) -> bool | None:
        """Whether the measured per-buffer time beats the fill duration."""
        if self.inference_time_per_buffer is None:
            return None
        return self.inference_time_per_buffer < self.buffer_fill_duration


def run_acquisition(source, k: int, fs: float, consumer,
                    clock: str = "virtual", f_op: float | None = None,
                    buf: PingPongBuffer | None = None) -> TimingReport:
    """Drive a sample stream through a ping-pong buffer.

    ``consumer(handle)`` is invoked for every filled bank and is responsible
    for releasing it; a consumer that holds banks too long causes counted
    overruns instead of crashes. With ``clock="virtual"`` the consumer runs
    inline and pushes are unpaced (deterministic, as fast as the machine
    allows); with ``"realtime"`` the producer paces pushes at ``fs`` on the
    wall clock and the consumer runs on its own thread. Wall-clock consumer
    durations are measured in both modes. A trailing partial bank is
    delivered at the end of the stream. Pass ``buf`` to reuse a
    caller-owned buffer (the consumer needs it to release handles).
    """
    b_fd = buffer_fill_duration(k, fs)  # validates k, fs
    if clock not in ("virtual", "realtime"):
        raise ParameterError(f"clock must be 'virtual' or 'realtime', got {clock!r}")
    if buf is None:
        buf = PingPongBuffer(k)
    elif buf.k != k:
        raise ParameterError(f"buffer bank size {buf.k} does not match k={k}")
    durations: list[float] = []

    def timed_consume(handle):
        t0 = time.perf_counter()
        consumer(handle)
        durations.append(time.perf_counter() - t0)

    realtime = clock == "realtime"
    if realtime:
        handoff: queue.Queue = queue.Queue()

        def worker():
            for handle in iter(handoff.get, None):
                timed_consume(handle)

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        deliver = handoff.put
    else:
        deliver = timed_consume
    period = 1.0 / fs
    next_deadline = time.perf_counter()
    try:
        for code in source:
            handle = buf.push_sample(code)
            if handle is not None:
                deliver(handle)
            if realtime:  # inline: a pacing generator around source costs more CPU
                next_deadline += period
                delay = next_deadline - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
        handle = buf.flush()
        if handle is not None:
            deliver(handle)
    finally:
        if realtime:
            handoff.put(None)
            thread.join()

    mean_it_pb = sum(durations) / len(durations) if durations else None
    return TimingReport(
        k=k, fs=fs, f_op=f_op,
        buffer_fill_duration=b_fd,
        max_cycles=max_cycles(k, f_op, fs) if f_op else None,
        inference_time_per_cycle=None,
        inference_time_per_buffer=mean_it_pb,
        lossless=buf.overrun_count == 0,
        overrun_count=buf.overrun_count,
        banks_delivered=len(durations),
    )
