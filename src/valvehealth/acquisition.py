"""Lossless double-buffered sample acquisition.

Two fixed banks alternate roles: a producer fills one while a consumer holds
the other. When the active bank fills, the roles switch atomically and the
just-filled bank is handed to the consumer as an immutable view that stays
valid until the consumer calls ``handle.release()``. If a bank must be
refilled while the consumer still holds it, the write proceeds (newest data
wins) and the overrun counter increments, so data loss is counted, never
silent. ``run_acquisition`` owns the buffer; the consumer sees only handles.

The producer moves data a block at a time: each block is at most the active
bank's free space and is copied in with one slice assignment, so a bank
costs one copy, not K per-sample stores. Under the realtime clock the
producer writes each block into its own active bank as soon as the
previous bank is handed over, which the consumer cannot see, then sleeps
once, until the block's last sample is due; at the due time it only
switches banks and puts the handle on a ``queue.SimpleQueue``, whose
``put`` and ``get`` run in C. A bank handed to the consumer stays its own
for one fill duration unless released first: a producer that wakes late
and catches up waits for the release before reusing the bank, so an
overrun always means the consumer held a bank for longer than ``K / fs``.
A handle whose bank was reused before the consumer thread took it off the
queue is counted as that overrun and never delivered, so a slow consumer
skips the banks it missed instead of reading overwritten data and falling
ever further behind.

Timing algebra for a bank of K samples at rate fs with actuations at f_op:

    buffer_fill_duration = K / fs
    max_cycles           = K * f_op / fs

Single producer, single consumer only.
"""

from __future__ import annotations

import itertools
import numbers
import queue
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
    """Read-only view of a filled bank, valid until released."""

    __slots__ = ("bank_index", "seq", "data", "_buf")

    def __init__(self, buf: PingPongBuffer, bank_index: int, seq: int, data: np.ndarray):
        self._buf = buf
        self.bank_index = bank_index
        self.seq = seq
        self.data = data

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
        self._released = threading.Condition(self._lock)
        self._waiting = False  # the producer waits in wait_incoming

    @property
    def overrun_count(self) -> int:
        return self._overruns

    @property
    def free(self) -> int:
        """Samples the active bank can still take before it switches."""
        return self.k - self._write_pos

    def _hand_out(self, bank_index: int, length: int) -> BankHandle:
        view = self._views[bank_index]
        handle = BankHandle(self, bank_index, self._seq,
                            view if length == self.k else view[:length])
        self._held[bank_index] = handle
        self._seq += 1
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
        return self._switch() if self._write(codes) else None

    def _write(self, codes) -> bool:
        """The write half of ``push_block``: the block lands in the active
        bank, which no handle exposes, and the banks do not switch. Returns
        whether the bank is now full."""
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
        return end == self.k

    def _switch(self) -> BankHandle:
        """The switch half of ``push_block``, once the active bank is full:
        hand it out and make the other bank active."""
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

    def _release(self, handle: BankHandle) -> None:
        with self._lock:
            if self._held[handle.bank_index] is handle:
                self._held[handle.bank_index] = None
                if self._waiting:
                    self._released.notify()

    def wait_incoming(self, timeout: float) -> None:
        """Wait up to ``timeout`` seconds for the consumer to release the
        bank that the next switch reuses; returns at once if it is free."""
        if self._held[1 - self._active] is None:  # only the producer hands a bank out
            return
        with self._released:
            self._waiting = True
            self._released.wait_for(lambda: self._held[1 - self._active] is None, timeout)
            self._waiting = False


@dataclass
class TimingReport:
    """What one acquisition run measured; the rates it ran at are the caller's.

    ``inference_time_per_buffer`` is the wall-clock mean of the consumer
    calls in seconds (IT_pb; None when no bank was delivered). The run was
    lossless exactly when ``overrun_count`` is 0, i.e. no bank was reused
    before release. ``producer_lag_max`` is the worst lateness, in seconds,
    of a block push against the due time of its last sample (None under
    the virtual clock).
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
    """Drive a sample stream through a ping-pong buffer of two ``k``-sample
    banks that the loop owns.

    ``source`` is an ndarray of codes (sliced) or any iterable of them.
    ``consumer(handle)`` is invoked for every filled bank and returns it
    with ``handle.release()``; a consumer that holds banks too long causes
    counted overruns instead of crashes. Each pass reads a block of at most the
    active bank's free space and writes it whole. With ``clock="virtual"``
    the consumer runs inline and pushes are unpaced (deterministic, as fast
    as the machine allows); with ``"realtime"`` the consumer runs on its own
    thread and the producer, after writing a block, sleeps once, until the
    block's last sample is due at ``fs`` on the wall clock, so each bank is
    handed over when its last sample is due; before a switch it waits, for
    at most the fill duration after the previous handover, for the consumer
    to release the bank it reuses. The consumer thread skips a handle whose
    bank was reused while the handle waited for it; that reuse is already
    an overrun. A consumer that raises stops the producer and the error is
    re-raised to the caller under either clock.
    Wall-clock consumer durations are measured in both modes. A trailing
    partial bank is delivered at the end of the stream.
    """
    b_fd = buffer_fill_duration(k, fs)  # validates k, fs
    if clock not in ("virtual", "realtime"):
        raise ParameterError(f"clock must be 'virtual' or 'realtime', got {clock!r}")
    buf = PingPongBuffer(k)
    start = time.perf_counter()  # sample 0 is due now; starting the worker must not shift it
    durations: list[float] = []
    crashed: list[Exception] = []

    def timed_consume(handle):
        t0 = time.perf_counter()
        consumer(handle)
        durations.append(time.perf_counter() - t0)

    realtime = clock == "realtime"
    if realtime:
        handoff: queue.SimpleQueue = queue.SimpleQueue()

        def worker():
            try:
                for handle in iter(handoff.get, None):
                    if buf._held[handle.bank_index] is handle:  # else reused: an overrun
                        timed_consume(handle)
            except Exception as err:  # re-raised by the producer's thread
                crashed.append(err)

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        deliver = handoff.put
    else:
        deliver = timed_consume
    lag_max = 0.0 if realtime else None
    pushed = 0
    reuse_at = start  # a handed-over bank is the consumer's for B_fd unless released
    try:
        for block in _blocks(source, buf):
            full = buf._write(block)  # into the active bank, which no handle exposes
            pushed += block.size
            if realtime:
                due = start + (pushed - 1) / fs
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                if full:  # the switch reuses the other bank
                    buf.wait_incoming(reuse_at - time.perf_counter())
                lag_max = max(lag_max, time.perf_counter() - due)
            if full:
                deliver(buf._switch())
                reuse_at = time.perf_counter() + b_fd
            if crashed:
                break
        handle = buf.flush()
        if handle is not None:
            deliver(handle)
    finally:
        if realtime:
            handoff.put(None)
            thread.join()
    if crashed:
        raise crashed[0]

    mean_it_pb = sum(durations) / len(durations) if durations else None
    return TimingReport(
        inference_time_per_buffer=mean_it_pb,
        overrun_count=buf.overrun_count,
        banks_delivered=len(durations),
        producer_lag_max=lag_max,
    )
