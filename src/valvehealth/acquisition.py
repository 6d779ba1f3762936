"""Lossless double-buffered sample acquisition.

Two fixed banks alternate roles: the producer fills one while the consumer
holds the other. When the active bank fills, the roles switch atomically and
the just-filled bank is handed to the consumer as an immutable view that
stays valid until the consumer calls ``handle.release()``. If a bank must be
refilled while the consumer still holds it, the write proceeds (newest data
wins) and the overrun counter increments, so data loss is counted, never
silent. The buffer is safe for one producer thread and one consumer thread.

The producer moves data a block at a time: each block is at most the active
bank's free space and is copied in with one slice assignment, so a bank
costs one copy, not K per-sample stores.

``run_acquisition`` owns the buffer and runs producer and consumer on one
thread; the consumer sees only handles. On the board a DMA fills one bank
while the CPU works on the other. Under the realtime clock the loop keeps
that DMA's schedule as numbers and sleeps until each bank is due, so an
overrun means exactly that the consumer did not have a bank for its window
of ``B_fd = K / fs``: the bank waited for a busy consumer until its window
closed (it is skipped, never delivered with overwritten data), or the
consumer released it after the window closed, or still held it at the
switch that reused it. A slow consumer thus skips the banks it missed
instead of falling ever further behind, and the loop's own late wake-ups
are never counted against it.

Timing algebra for a bank of K samples at rate fs with actuations at f_op:

    buffer_fill_duration = K / fs
    max_cycles           = K * f_op / fs
"""

from __future__ import annotations

import itertools
import numbers
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


def buffer_fill_duration(k: int, fs: float) -> float:
    """Seconds needed to fill one bank of ``k`` samples at ``fs`` Hz."""
    if k <= 0 or not 0 < fs < np.inf:
        raise ParameterError("k must be > 0 and fs finite and > 0")
    return k / fs


def max_cycles(k: int, f_op: float, fs: float) -> float:
    """Actuation cycles at ``f_op`` Hz that fit in one bank (may be fractional)."""
    if k <= 0 or not (0 < f_op < np.inf and 0 < fs < np.inf):
        raise ParameterError("k must be > 0 and f_op and fs finite and > 0")
    return k * f_op / fs


class BankHandle:
    """Read-only view of a filled bank, valid until released.

    ``deadline`` is the ``time.perf_counter()`` time after which a release
    counts an overrun (None: never, as under the virtual clock)."""

    __slots__ = ("bank_index", "seq", "data", "deadline", "_buf")

    def __init__(self, buf: PingPongBuffer, bank_index: int, seq: int, data: np.ndarray):
        self._buf = buf
        self.bank_index = bank_index
        self.seq = seq
        self.data = data
        self.deadline = None

    def release(self) -> None:
        """Return the bank to the producer; releasing a stale handle is a no-op."""
        self._buf._release(self)


class PingPongBuffer:
    """Two fixed banks of raw ADC codes with atomic role switching."""

    dtype = np.dtype(np.int32)
    _range = np.iinfo(dtype)

    def __init__(self, k: int):
        if not isinstance(k, numbers.Integral) or k <= 0:
            raise ParameterError(f"bank size k must be an integer > 0, got {k!r}")
        self.k = k
        self._banks = [np.zeros(k, dtype=self.dtype), np.zeros(k, dtype=self.dtype)]
        self._views = [bank.view() for bank in self._banks]  # what handles expose
        for view in self._views:
            view.setflags(write=False)
        self._active = 0
        self._write_pos = 0
        self._seq = 0
        self._held: list[BankHandle | None] = [None, None]
        self._overruns = 0
        self._lock = threading.Lock()

    @property
    def overrun_count(self) -> int:
        return self._overruns

    @property
    def free(self) -> int:
        """Samples the active bank can still take before it switches."""
        return self.k - self._write_pos

    def _hand_out(self, length: int) -> BankHandle:
        """Hand out the active bank's first ``length`` codes and make the
        other bank active; the caller holds the lock."""
        filled = self._active
        view = self._views[filled]
        handle = BankHandle(self, filled, self._seq, view if length == self.k else view[:length])
        self._held[filled] = handle
        self._seq += 1
        self._active = 1 - filled
        self._write_pos = 0
        return handle

    def push_block(self, codes) -> BankHandle | None:
        """Copy a block of at most ``free`` codes into the active bank;
        returns a handle when the block fills it.

        A block that is not of an integer dtype raises ParameterError and a
        code that does not fit the bank's dtype raises OverflowError, both
        before anything is written. The switch into the other bank counts
        an overrun if the consumer still holds it (its outstanding handle
        then observes overwrites).
        """
        same = type(codes) is np.ndarray and codes.dtype == self.dtype
        block = codes if same else np.asarray(codes)
        start = self._write_pos
        end = start + block.size
        if end > self.k:
            raise ParameterError(f"block of {block.size} exceeds the bank's "
                                 f"free space of {self.free}")
        if not same and block.size:
            if block.dtype.kind not in "iu":
                raise ParameterError(f"codes must be integers, got dtype {block.dtype}")
            if not np.can_cast(block.dtype, self.dtype):
                lo, hi = block.min(), block.max()
                if not (self._range.min <= lo and hi <= self._range.max):
                    raise OverflowError(f"codes in [{lo}, {hi}] do not fit {self.dtype}")
        self._banks[self._active][start:end] = block
        self._write_pos = end
        if end < self.k:
            return None
        with self._lock:
            incoming = 1 - self._active
            if self._held[incoming] is not None:
                self._overruns += 1
                self._held[incoming] = None  # stale: about to be overwritten
            return self._hand_out(self.k)

    def flush(self) -> BankHandle | None:
        """Deliver the partially filled active bank (end of stream)."""
        if self._write_pos == 0:
            return None
        with self._lock:
            return self._hand_out(self._write_pos)

    def _release(self, handle: BankHandle) -> None:
        with self._lock:
            if self._held[handle.bank_index] is handle:
                self._held[handle.bank_index] = None
                if handle.deadline is not None and time.perf_counter() > handle.deadline:
                    self._overruns += 1


@dataclass
class TimingReport:
    """What one acquisition run measured; the rates it ran at are the caller's.

    ``inference_time_per_buffer`` is the wall-clock mean of the consumer
    calls in seconds (IT_pb; None when no bank was delivered). The run was
    lossless exactly when ``overrun_count`` is 0: under the virtual clock no
    bank was reused before release, under the realtime clock the consumer
    also had every bank for its whole ``B_fd`` window. ``producer_lag_max``
    is the worst lateness, in seconds, of a bank's handover against the due
    time of its last sample (None under the virtual clock). Only a source
    that stalls makes it: a slow consumer delays no handover, so a source
    that keeps up reads well under ``B_fd`` whatever the consumer does.
    """

    inference_time_per_buffer: float | None
    overrun_count: int
    banks_delivered: int
    producer_lag_max: float | None


def _blocks(source, buf: PingPongBuffer):
    """``source`` in blocks of at most ``buf.free`` codes, each sized as it
    is drawn. An ndarray is sliced; any other iterable is collected into an
    array of the dtype NumPy infers, so the write checks both kinds of
    source alike."""
    if isinstance(source, np.ndarray):
        pos = 0
        while pos < source.size:
            block = source[pos:pos + buf.free]
            pos += block.size
            yield block
    else:
        it = iter(source)
        while (block := np.array(list(itertools.islice(it, buf.free)))).size:
            yield block


def run_acquisition(source, k: int, fs: float, consumer, *, clock: str) -> TimingReport:
    """Drive a sample stream through the two ``k``-sample banks of a
    ping-pong buffer that the loop owns, calling ``consumer(handle)`` inline
    for every bank; the consumer returns it with ``handle.release()``.

    ``source`` is an ndarray of codes (sliced) or any iterable of them; a
    trailing partial bank is delivered at the end of the stream. With
    ``clock="virtual"`` nothing is paced and the run is deterministic. With
    ``"realtime"`` a bank is handed over at ``max(due, previous handover +
    the time the source took to yield its block)``, ``due`` being its last
    sample's time at ``fs``, and the loop sleeps until then. The bank is the
    consumer's for ``B_fd = k / fs`` from that handover, or from when an
    idle consumer receives it. A bank whose window closed while the
    consumer was busy is skipped; one skipped or released after its window
    closed counts one overrun, as does one still held at the switch that
    reuses it. A consumer that raises stops the run and its error reaches
    the caller. Consumer durations are measured on the wall clock.
    """
    b_fd = buffer_fill_duration(k, fs)  # validates k, fs
    if clock not in ("virtual", "realtime"):
        raise ParameterError(f"clock must be 'virtual' or 'realtime', got {clock!r}")
    realtime = clock == "realtime"
    buf = PingPongBuffer(k)
    durations: list[float] = []
    lag_max = 0.0 if realtime else None
    # The DMA's schedule as numbers: the last handover, when this loop last
    # went back to the source, and when the consumer was done with its last
    # bank on the DMA's clock (from when it could take the bank, so a late
    # wake-up of this loop is not the consumer's busy time).
    start = handover = read_from = free = time.perf_counter()  # sample 0 is due now
    for block in _blocks(source, buf):
        handle = buf.push_block(block) or buf.flush()  # a short block ends the stream
        if realtime:
            now = time.perf_counter()
            due = start + (handle.seq * k + handle.data.size - 1) / fs
            handover = max(due, handover + now - read_from)  # a stalling source delays the DMA
            lag_max = max(lag_max, handover - due)
            wait = max(free - handover, 0.0)  # the bank waited for a busy consumer
            if wait > b_fd:  # its window closed while the consumer was busy:
                # skip the bank; releasing it now is late, one overrun
                handle.deadline = handover + b_fd
                handle.release()
                read_from = now
                continue
            if handover > now:
                time.sleep(handover - now)
            handle.deadline = time.perf_counter() + b_fd - wait
        t0 = time.perf_counter()
        consumer(handle)
        read_from = time.perf_counter()
        durations.append(read_from - t0)
        if realtime:
            free = handover + wait + read_from - t0

    mean_it_pb = sum(durations) / len(durations) if durations else None
    return TimingReport(
        inference_time_per_buffer=mean_it_pb,
        overrun_count=buf.overrun_count,
        banks_delivered=len(durations),
        producer_lag_max=lag_max,
    )
