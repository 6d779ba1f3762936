import threading
import time

import numpy as np
import pytest

from valvehealth.acquisition import (PingPongBuffer, buffer_fill_duration,
                                     max_cycles, run_acquisition)
from valvehealth.errors import ParameterError


def quantized_sine(freq_hz: float, fs: float, n: int) -> np.ndarray:
    t = np.arange(n) / fs
    return np.round(2047.5 + 2047.5 * np.sin(2 * np.pi * freq_hz * t)).astype(np.int64)


class TestTimingAlgebra:
    def test_fill_duration(self):
        assert buffer_fill_duration(10000, 1000) == 10.0
        assert buffer_fill_duration(1000, 1000) == 1.0
        assert buffer_fill_duration(1, 1) == 1.0

    def test_fill_duration_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            buffer_fill_duration(0, 1000)
        with pytest.raises(ParameterError):
            buffer_fill_duration(1000, 0)

    def test_max_cycles_table(self):
        # every reference (K, f_op) -> C_max cell at fs = 1 kHz
        table = [(1000, 2, 2), (1000, 1, 1),
                 (2000, 2, 4), (2000, 1, 2), (2000, 0.5, 1),
                 (5000, 2, 10), (5000, 1, 5), (5000, 0.5, 2.5),
                 (10000, 2, 20), (10000, 1, 10), (10000, 0.5, 5)]
        for k, f_op, want in table:
            assert max_cycles(k, f_op, 1000) == want

    def test_worked_example(self):
        assert max_cycles(10000, 0.5, 1000) == 5

    def test_max_cycles_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            max_cycles(1000, 0, 1000)

    def test_fill_duration_consistent_with_cycles(self):
        # B_fd == C_max / f_op for any positive inputs
        for k, f_op, fs in [(1000, 2, 1000), (5000, 0.5, 1000), (777, 3.5, 250)]:
            assert buffer_fill_duration(k, fs) == pytest.approx(
                max_cycles(k, f_op, fs) / f_op)


class TestPingPongBuffer:
    def test_not_full_returns_nothing(self):
        buf = PingPongBuffer(4)
        assert all(buf.push_block(np.array([i])) is None for i in range(3))

    def test_full_bank_in_order(self):
        buf = PingPongBuffer(4)
        handle = None
        for i in (10, 11, 12, 13):
            handle = buf.push_block(np.array([i])) or handle
        assert handle is not None
        assert list(handle.data) == [10, 11, 12, 13]
        assert handle.seq == 0

    def test_overrun_counted_per_reuse(self):
        buf = PingPongBuffer(2)
        for i in range(6):  # three fills, no releases
            buf.push_block(np.array([i]))
        assert buf.overrun_count == 2

    def test_release_prevents_overrun(self):
        buf = PingPongBuffer(2)
        for i in range(20):
            h = buf.push_block(np.array([i]))
            if h is not None:
                h.release()
        assert buf.overrun_count == 0

    def test_held_bank_content_stable_while_other_fills(self):
        buf = PingPongBuffer(4)
        held = None
        for i in range(4):
            held = buf.push_block(np.array([i])) or held
        snapshot = np.array(held.data, copy=True)
        for i in range(4, 7):  # fills the other bank only
            buf.push_block(np.array([i]))
        assert np.array_equal(held.data, snapshot)

    def test_handles_are_read_only(self):
        buf = PingPongBuffer(2)
        h = None
        for i in range(2):
            h = buf.push_block(np.array([i])) or h
        with pytest.raises(ValueError):
            h.data[0] = 99

    def test_overrun_overwrites_held_bank(self):
        # newest data wins: the held view observes the overwrite; both
        # unreleased banks get reused, each reuse counted once
        buf = PingPongBuffer(2)
        held = None
        for i in range(2):
            held = buf.push_block(np.array([i])) or held
        for i in range(2, 6):
            buf.push_block(np.array([i]))
        assert buf.overrun_count == 2
        assert list(held.data) == [4, 5]

    def test_stale_release_is_noop(self):
        buf = PingPongBuffer(2)
        held = None
        for i in range(6):
            h = buf.push_block(np.array([i]))
            if h is not None and held is None:
                held = h
        count = buf.overrun_count
        held.release()  # long stale
        assert buf.overrun_count == count

    def test_zero_size_rejected(self):
        with pytest.raises(ParameterError):
            PingPongBuffer(0)

    @pytest.mark.parametrize("k", [2.5, 4.0])
    def test_non_integer_size_rejected(self, k):
        with pytest.raises(ParameterError):
            PingPongBuffer(k)


class TestPushBlock:
    def test_block_that_exactly_fills(self):
        buf = PingPongBuffer(4)
        handle = buf.push_block(np.array([10, 11, 12, 13]))
        assert list(handle.data) == [10, 11, 12, 13]
        assert handle.seq == 0
        assert buf.free == 4  # the other bank is now active and empty

    def test_partial_block_then_filling_block(self):
        buf = PingPongBuffer(4)
        assert buf.push_block([1, 2]) is None
        assert buf.free == 2
        handle = buf.push_block([3, 4])
        assert list(handle.data) == [1, 2, 3, 4]

    def test_empty_block_is_noop(self):
        buf = PingPongBuffer(4)
        assert buf.push_block(np.empty(0, dtype=np.int32)) is None
        assert buf.free == 4

    def test_overrun_counted_when_incoming_bank_held(self):
        buf = PingPongBuffer(2)
        held = buf.push_block([0, 1])
        assert buf.overrun_count == 0
        assert buf.push_block([2, 3]) is not None  # switches into held bank 0
        assert buf.overrun_count == 1
        buf.push_block([4, 5])  # switches into bank 1, also still held
        assert buf.overrun_count == 2
        assert list(held.data) == [4, 5]  # newest data wins, counted

    def test_handles_are_read_only(self):
        buf = PingPongBuffer(2)
        handle = buf.push_block([5, 6])
        with pytest.raises(ValueError):
            handle.data[0] = 99

    def test_block_larger_than_free_space_rejected(self):
        buf = PingPongBuffer(4)
        buf.push_block([1])
        with pytest.raises(ParameterError):
            buf.push_block(np.arange(4))
        assert buf.free == 3  # nothing was written
        assert list(buf.push_block([2, 3, 4]).data) == [1, 2, 3, 4]

    def test_same_banks_as_one_code_blocks(self):
        src = quantized_sine(7.0, 1000.0, 23)
        by_sample, by_block = PingPongBuffer(5), PingPongBuffer(5)
        got_sample = [h for h in (by_sample.push_block(np.array([c])) for c in src)
                      if h is not None]
        got_block = []
        pos = 0
        while pos < src.size:
            block = src[pos:pos + by_block.free]
            pos += block.size
            handle = by_block.push_block(block)
            if handle is not None:
                got_block.append(handle)
        assert [(h.seq, h.bank_index) for h in got_sample] == \
            [(h.seq, h.bank_index) for h in got_block]
        assert by_sample.overrun_count == by_block.overrun_count == 3
        assert np.array_equal(by_sample.flush().data, by_block.flush().data)


class TestCodeRange:
    """A code that does not fit the int32 bank raises; it is never wrapped."""

    WIDE = 2 ** 32 + 100  # wraps to 100, a valid-looking code, in int32

    @pytest.mark.parametrize("code", [WIDE, np.int64(WIDE), -2 ** 31 - 1])
    def test_one_code_block_rejects(self, code):
        with pytest.raises(OverflowError):
            PingPongBuffer(4).push_block(np.array([code]))

    def test_push_block_rejects_before_writing(self):
        buf = PingPongBuffer(4)
        with pytest.raises(OverflowError):
            buf.push_block(np.array([1, self.WIDE], dtype=np.int64))
        assert buf.free == 4

    def test_wide_dtype_in_range_accepted(self):
        buf = PingPongBuffer(2)
        handle = buf.push_block(np.array([0, 2 ** 31 - 1], dtype=np.int64))
        assert list(handle.data) == [0, 2 ** 31 - 1]

    @pytest.mark.parametrize("clock", ["virtual", "realtime"])
    @pytest.mark.parametrize("kind", ["ndarray", "iterator", "python ints"])
    def test_source_with_wide_code_raises(self, clock, kind):
        src = np.arange(10, dtype=np.int64)
        src[6] = self.WIDE
        source = {"ndarray": src, "iterator": iter(src),
                  "python ints": (int(c) for c in src)}[kind]
        banks = []
        with pytest.raises(OverflowError):
            run_acquisition(source, 4, 100_000.0, lambda h: banks.append(list(h.data)),
                            clock=clock)
        assert banks == [[0, 1, 2, 3]]  # the bank before the bad code only


class TestCodeDtype:
    """A non-integer code raises; it is never truncated to a valid-looking one."""

    FLOATS = [10.6, 20.2, 30.9, 40.1]  # would truncate to 10, 20, 30, 40

    def test_one_code_block_rejects_float(self):
        buf = PingPongBuffer(4)
        with pytest.raises(ParameterError):
            buf.push_block(np.array([10.6]))
        assert buf.free == 4

    def test_push_block_rejects_float_before_writing(self):
        buf = PingPongBuffer(4)
        with pytest.raises(ParameterError):
            buf.push_block(np.array(self.FLOATS[:2]))
        assert buf.free == 4

    @pytest.mark.parametrize("clock", ["virtual", "realtime"])
    @pytest.mark.parametrize("kind", ["ndarray", "iterator"])
    def test_float_source_raises(self, clock, kind):
        source = np.array(self.FLOATS) if kind == "ndarray" else iter(self.FLOATS)
        banks = []
        with pytest.raises(ParameterError):
            run_acquisition(source, 2, 100_000.0, lambda h: banks.append(list(h.data)),
                            clock=clock)
        assert banks == []


class TestRunAcquisition:
    def test_lossless_reconstruction_multiple_rates(self):
        fs, k = 1000.0, 500
        for freq in (100.0, 10.0, 1.0):
            src = quantized_sine(freq, fs, 6000)  # 12 bank switches
            chunks = []

            def consumer(handle):
                chunks.append(np.array(handle.data, copy=True))
                handle.release()

            report = run_acquisition(iter(src), k, fs, consumer, clock="virtual")
            assert np.array_equal(np.concatenate(chunks), src)
            assert report.overrun_count == 0
            assert report.banks_delivered == 12

    def test_empty_source(self):
        report = run_acquisition(iter([]), 100, 1000.0, lambda h: None, clock="virtual")
        assert report.banks_delivered == 0
        assert report.overrun_count == 0

    @pytest.mark.parametrize("clock", ["virtual", "realtime"])
    def test_default_call_releases_banks(self, clock):
        # the loop owns its buffer, and a handle returns its own bank; a
        # 2 ms bank leaves the realtime consumer thread time to release it
        report = run_acquisition(np.arange(20, dtype=np.int32), 2, 1e3,
                                 lambda h: h.release(), clock=clock)
        assert report.banks_delivered == 10
        assert report.overrun_count == 0

    def test_partial_bank_flushed(self):
        sizes = []

        def consumer(handle):
            sizes.append(handle.data.size)
            handle.release()

        run_acquisition(iter(range(250)), 100, 1000.0, consumer, clock="virtual")
        assert sizes == [100, 100, 50]

    def test_starved_consumer_counts_overruns(self):
        held = []

        def slow(handle):  # holds each bank across two further fills
            held.append(handle)
            if len(held) > 2:
                held.pop(0).release()

        report = run_acquisition(iter(range(1000)), 50, 1000.0, slow, clock="virtual")
        assert report.overrun_count >= 1

    def test_it_pb_measured_and_under_fill(self):
        report = run_acquisition(iter(range(5000)), 1000, 1000.0, lambda h: h.release(),
                                 clock="virtual")
        assert report.inference_time_per_buffer is not None
        # microseconds of work vs a 1 s fill
        assert report.inference_time_per_buffer < buffer_fill_duration(1000, 1000.0)

    def test_bad_clock_rejected(self):
        with pytest.raises(ParameterError):
            run_acquisition(iter([]), 10, 1000.0, lambda h: None, clock="warp")

    def test_producer_lag_measured_only_under_realtime(self):
        for clock in ("virtual", "realtime"):
            report = run_acquisition(np.arange(500), 100, 50_000.0, lambda h: h.release(),
                                     clock=clock)
            assert report.banks_delivered == 5
            if clock == "virtual":
                assert report.producer_lag_max is None
            else:
                assert 0.0 <= report.producer_lag_max < 1.0

    def test_late_producer_leaves_consumer_its_window(self):
        # the source stalls for three bank periods, so the next banks are
        # overdue and pushed back to back; each handed-over bank must still
        # stay the consumer's for B_fd (20 ms) unless it is released first
        fs, k = 10_000.0, 200

        def source():
            for i in range(1200):
                if i == 400:
                    time.sleep(0.06)
                yield i % 4096


        def consumer(handle):
            time.sleep(0.002)  # releases well inside B_fd
            handle.release()

        report = run_acquisition(source(), k, fs, consumer, clock="realtime")
        assert report.banks_delivered == 6
        assert report.overrun_count == 0
        assert report.producer_lag_max >= 0.03  # the stall shows as producer lag

    def test_realtime_hoarding_consumer_counts_overruns(self):
        # the wait for a release is bounded: a consumer that never releases
        # still costs one counted overrun per reuse, as under the virtual clock
        held = []
        report = run_acquisition(np.arange(600), 100, 50_000.0, held.append,
                                 clock="realtime")
        assert report.banks_delivered == 6
        assert report.overrun_count == 5

    @pytest.mark.parametrize("k", [1, 7, 150, 151, 1000])
    def test_block_sources_deliver_identical_banks(self, k):
        src = quantized_sine(3.0, 1000.0, 2345)

        def banks(source):
            out = []

            def consumer(handle):
                out.append(np.array(handle.data, copy=True))
                handle.release()

            run_acquisition(source, k, 1000.0, consumer, clock="virtual")
            return out

        ref = banks(src)
        assert np.array_equal(np.concatenate(ref), src)
        assert [b.size for b in ref[:-1]] == [k] * (len(ref) - 1)
        for other in (banks(iter(src)), banks(int(c) for c in src)):
            assert len(other) == len(ref)
            assert all(np.array_equal(a, b) for a, b in zip(ref, other))


class TestConsumerFailure:
    @pytest.mark.parametrize("clock", ["virtual", "realtime"])
    def test_consumer_error_reaches_caller(self, clock):
        k, n = 100, 4000  # 40 banks; 4 ms each under the realtime clock
        read = []

        def source():
            for i in range(n):
                read.append(i)
                yield i % 4096

        boom = RuntimeError("consumer failed on the second bank")
        seen = []

        def consumer(handle):
            seen.append(handle.seq)
            handle.release()
            if handle.seq == 1:
                raise boom

        with pytest.raises(RuntimeError) as info:
            run_acquisition(source(), k, 25_000.0, consumer, clock=clock)
        assert info.value is boom
        assert seen == [0, 1]
        assert len(read) < n  # the producer stopped pulling from the source


class TestConcurrency:
    def test_spsc_threads_lossless(self):
        # producer thread pushes while this thread consumes released banks
        k, n = 250, 25000
        src = np.arange(n, dtype=np.int64) % 4096
        buf = PingPongBuffer(k)
        import queue
        handoff = queue.Queue()

        def producer():
            for code in src:
                h = buf.push_block(np.array([int(code)]))
                if h is not None:
                    handoff.put(h)
                    handoff.join()  # lossless regime: wait for the consumer
            handoff.put(None)

        thread = threading.Thread(target=producer)
        thread.start()
        chunks = []
        while True:
            h = handoff.get()
            if h is None:
                break
            chunks.append(np.array(h.data, copy=True))
            h.release()
            handoff.task_done()
        thread.join()
        assert np.array_equal(np.concatenate(chunks), src)
        assert buf.overrun_count == 0

    def test_immediate_release_does_not_overrun(self):
        # 0.2 ms banks released at once: a bank is the consumer's for B_fd
        # from when it receives it, and the loop's own late wake-ups are
        # kept out of the DMA's schedule, so only a stall of more than
        # 0.2 ms between the handover and the release call counts; one run
        # in 300 may meet one on a loaded host.
        overrun_runs = 0
        for _ in range(300):
            report = run_acquisition(np.arange(20, dtype=np.int32), 2, 1e4,
                                     lambda h: h.release(), clock="realtime")
            overrun_runs += report.overrun_count > 0
        assert overrun_runs <= 1

    def test_slow_consumer_is_never_handed_a_reused_bank(self):
        # 10 ms banks, each held for 25 ms: the consumer cannot keep up, so
        # some banks are reused before it takes them; each such bank is an
        # overrun and is skipped, never delivered with overwritten data
        fs, k, n = 10_000.0, 100, 3000
        src = np.arange(n, dtype=np.int32)
        delivered = []

        def consumer(handle):
            delivered.append((handle.seq, np.array(handle.data, copy=True)))
            time.sleep(0.025)
            handle.release()

        report = run_acquisition(src, k, fs, consumer, clock="realtime")
        seqs = [seq for seq, _ in delivered]
        for seq, data in delivered:
            assert np.array_equal(data, src[seq * k:(seq + 1) * k]), seq
        assert seqs == sorted(set(seqs))
        assert report.banks_delivered == len(delivered)
        assert report.overrun_count >= n // k - len(delivered)

    def test_slow_consumer_keeps_pace(self):
        # 10 ms banks, each held for 25 ms: the banks whose window closes
        # while the consumer is busy are skipped, so the run ends within one
        # hold plus B_fd of the stream's end (a loop that delivered every
        # bank would take 30 holds), and the source is never late
        fs, k, n, hold = 10_000.0, 100, 3000, 0.025

        def consumer(handle):
            time.sleep(hold)
            handle.release()

        t0 = time.perf_counter()
        report = run_acquisition(np.arange(n, dtype=np.int32), k, fs, consumer,
                                 clock="realtime")
        assert time.perf_counter() - t0 <= n / fs + hold + k / fs
        assert report.producer_lag_max < k / fs
        assert report.banks_delivered < n // k
        assert report.overrun_count >= n // k - report.banks_delivered

    def test_one_late_release_counts_one_overrun(self):
        # one 20 ms bank held for 30 ms, then released: one overrun; the next
        # bank waited 10 ms for the consumer but still had the rest of its
        # window, and the banks after it were handed to an idle consumer
        fs, k = 10_000.0, 200
        b_fd = k / fs

        def consumer(handle):
            if handle.seq == 2:
                time.sleep(1.5 * b_fd)
            handle.release()

        report = run_acquisition(np.arange(8 * k, dtype=np.int32), k, fs, consumer,
                                 clock="realtime")
        assert report.banks_delivered == 8
        assert report.overrun_count == 1

    @pytest.mark.parametrize("n", [2000, 2050])  # 2050 ends in a partial bank
    def test_realtime_clock_smoke(self, n):
        fs, k = 50_000.0, 200
        src = quantized_sine(1000.0, fs, n)
        chunks = []

        def consumer(handle):
            chunks.append(np.array(handle.data, copy=True))
            handle.release()

        report = run_acquisition(iter(src), k, fs, consumer, clock="realtime")
        assert np.array_equal(np.concatenate(chunks), src)
        assert report.overrun_count == 0
