"""Process-free scheduler primitives: batch-cut policy, wake planning,
the bounded frame store, the stats ledger, and the detection wire format.
"""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.detection.decode import Detection
from repro.serve import FrameStore, PendingRequest, ServeStats, batch_cut, next_wake
from repro.serve.scheduler import SAMPLE_RING
from repro.serve.workers import decode_detections, encode_detections

pytestmark = pytest.mark.serve


def make_request(enqueue_t=0.0, deadline_t=100.0, slot=0):
    return PendingRequest(session_id=1, seq=0, slot=slot,
                          enqueue_t=enqueue_t, deadline_t=deadline_t,
                          future=Future())


class TestBatchCut:
    def test_empty_queue_never_cuts(self):
        assert batch_cut([], now=10.0, max_batch=4, batch_window_s=0.01) == 0

    def test_full_batch_cuts_immediately(self):
        queue = [make_request(enqueue_t=5.0) for _ in range(6)]
        assert batch_cut(queue, now=5.0, max_batch=4, batch_window_s=1.0) == 4

    def test_partial_batch_waits_for_window(self):
        queue = [make_request(enqueue_t=5.0)]
        assert batch_cut(queue, now=5.001, max_batch=4,
                         batch_window_s=0.01) == 0

    def test_partial_batch_cuts_after_window(self):
        queue = [make_request(enqueue_t=5.0), make_request(enqueue_t=5.005)]
        assert batch_cut(queue, now=5.02, max_batch=4,
                         batch_window_s=0.01) == 2

    def test_draining_flushes_partial_batch(self):
        queue = [make_request(enqueue_t=5.0)]
        assert batch_cut(queue, now=5.0, max_batch=4, batch_window_s=10.0,
                         draining=True) == 1

    def test_lone_request_on_idle_backend_cuts_at_once(self):
        # Idle for a whole window: no co-batcher is coming, so waiting
        # out the request's own window would only add latency.
        queue = [make_request(enqueue_t=5.0)]
        assert batch_cut(queue, now=5.0, max_batch=4, batch_window_s=0.01,
                         idle_since=4.0) == 1

    def test_request_within_a_window_of_completion_waits(self):
        # A batch completed at 5.0: its clients may resubmit, so a lone
        # request arriving soon after waits until the backend has been
        # idle for a full window (before its own window runs out).
        queue = [make_request(enqueue_t=5.002)]
        assert batch_cut(queue, now=5.004, max_batch=4, batch_window_s=0.01,
                         idle_since=5.0) == 0
        assert batch_cut(queue, now=5.0101, max_batch=4,
                         batch_window_s=0.01, idle_since=5.0) == 1

    def test_in_flight_batch_keeps_the_window_rule(self):
        # idle_since=None: a batch is in flight, however long ago the
        # backend was last idle.
        queue = [make_request(enqueue_t=5.0)]
        assert batch_cut(queue, now=5.005, max_batch=4, batch_window_s=0.01,
                         idle_since=None) == 0
        assert batch_cut(queue, now=5.011, max_batch=4, batch_window_s=0.01,
                         idle_since=None) == 1


class TestNextWake:
    def test_empty_queue_sleeps_indefinitely(self):
        assert next_wake([], now=0.0, batch_window_s=0.01) is None

    def test_window_expiry_bounds_sleep(self):
        queue = [make_request(enqueue_t=5.0, deadline_t=100.0)]
        wake = next_wake(queue, now=5.002, batch_window_s=0.01)
        assert wake == pytest.approx(0.008)

    def test_deadline_bounds_sleep_when_sooner(self):
        queue = [make_request(enqueue_t=5.0, deadline_t=5.004)]
        wake = next_wake(queue, now=5.0, batch_window_s=0.1)
        assert wake == pytest.approx(0.004)

    def test_overdue_clamps_to_zero(self):
        queue = [make_request(enqueue_t=0.0, deadline_t=1.0)]
        assert next_wake(queue, now=50.0, batch_window_s=0.01) == 0.0

    @pytest.mark.parametrize("idle_since, deadline_t, expected", [
        (4.998, 100.0, 0.006),  # idle-window expiry first
        (5.001, 100.0, 0.008),  # request's window expiry first
        (4.998, 5.003, 0.001),  # deadline first
        (None, 100.0, 0.008),   # in flight: no idle-window candidate
    ])
    def test_earliest_of_window_idle_window_and_deadline(
            self, idle_since, deadline_t, expected):
        queue = [make_request(enqueue_t=5.0, deadline_t=deadline_t)]
        wake = next_wake(queue, now=5.002, batch_window_s=0.01,
                         idle_since=idle_since)
        assert wake == pytest.approx(expected)


class TestFrameStore:
    def test_capacity_is_the_admission_bound(self):
        store = FrameStore(input_size=32, capacity=2)
        try:
            frame = np.zeros((3, 32, 32), dtype=np.float32)
            first = store.acquire(frame)
            second = store.acquire(frame)
            assert {first, second} == {0, 1}
            assert store.in_use == 2
            assert store.acquire(frame) is None  # full -> shed
            store.release(first)
            assert store.acquire(frame) == first
        finally:
            store.close()

    def test_round_trips_frame_contents(self):
        store = FrameStore(input_size=32, capacity=1)
        try:
            frame = np.random.default_rng(3).random((3, 32, 32))
            slot = store.acquire(frame.astype(np.float32))
            np.testing.assert_array_equal(store.read(slot),
                                          frame.astype(np.float32))
        finally:
            store.close()

    def test_rejects_wrong_shape(self):
        store = FrameStore(input_size=32, capacity=1)
        try:
            with pytest.raises(ValueError, match="shape"):
                store.acquire(np.zeros((3, 16, 16), dtype=np.float32))
        finally:
            store.close()


class TestServeStats:
    def test_snapshot_aggregates(self):
        stats = ServeStats()
        stats.count("accepted", 3)
        stats.count("shed")
        stats.observe_depth(5)
        stats.observe_depth(2)
        stats.observe_batch(4)
        stats.observe_batch(2)
        for latency in (0.010, 0.020, 0.030):
            stats.observe_latency(latency)
        snap = stats.snapshot()
        assert snap["accepted"] == 3
        assert snap["shed"] == 1
        assert snap["max_queue_depth"] == 5
        assert snap["batches"] == 2
        assert snap["mean_batch_occupancy"] == pytest.approx(3.0)
        assert snap["latency_p50_ms"] == pytest.approx(20.0)
        assert snap["latency_p99_ms"] == pytest.approx(30.0, abs=0.5)

    def test_stage_percentiles_in_snapshot_and_probe(self):
        stats = ServeStats()
        for queue_s in (0.001, 0.002, 0.003):
            stats.observe_latency(0.01, {"queue": queue_s, "forward": 0.004})
        snap = stats.snapshot()
        assert snap["stages_ms"]["queue"]["p50"] == pytest.approx(2.0)
        assert snap["stages_ms"]["forward"]["p99"] == pytest.approx(4.0)
        assert "pool" not in snap["stages_ms"]  # never observed
        probe = stats.probe()
        assert probe["stage.queue_p50_ms"] == pytest.approx(2.0)
        assert probe["stage.forward_p99_ms"] == pytest.approx(4.0)

    def test_ledger_stays_bounded_over_a_long_life(self):
        # Two million answers is about an hour at 500 frames/s.
        stats = ServeStats()
        for index in range(2_000_000):
            stats.observe_latency(1e-3 * (index % 17))
        for index in range(250_000):
            stats.observe_batch(1 + index % 8)
        samples, seq, lost = stats.samples_since("latency", 0)
        assert len(samples) == SAMPLE_RING
        assert seq == 2_000_000 and lost == 2_000_000 - SAMPLE_RING
        assert len(stats.samples_since("occupancy", 0)[0]) == SAMPLE_RING
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            snap = stats.snapshot()
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.010
        # The occupancy mean is the lifetime one, not the ring's.
        assert snap["batches"] == 250_000
        assert snap["mean_batch_occupancy"] == pytest.approx(4.5)

    def test_samples_since_counts_what_left_the_ring(self):
        stats = ServeStats()
        for _ in range(10):
            stats.observe_latency(0.001)
        samples, seq, lost = stats.samples_since("latency", 0)
        assert (len(samples), seq, lost) == (10, 10, 0)
        for value in range(SAMPLE_RING + 5):
            stats.observe_latency(float(value))
        samples, seq, lost = stats.samples_since("latency", seq)
        assert len(samples) == SAMPLE_RING and lost == 5
        assert samples[0] == 5.0  # oldest retained first
        assert stats.samples_since("latency", seq) == ([], seq, 0)

    def test_concurrent_counting_is_exact(self):
        stats = ServeStats()

        def bump():
            for _ in range(500):
                stats.count("ok")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.snapshot()["ok"] == 2000


def test_detection_wire_format_round_trip():
    detections = [
        Detection(box_xyxy=np.array([1.0, 2.0, 30.5, 40.25], dtype=np.float32),
                  score=0.875, class_id=3,
                  class_probs=np.array([0.1, 0.1, 0.1, 0.6, 0.1],
                                       dtype=np.float32)),
        Detection(box_xyxy=np.array([0.0, 0.0, 5.0, 5.0], dtype=np.float32),
                  score=0.5, class_id=0,
                  class_probs=np.array([0.9, 0.025, 0.025, 0.025, 0.025],
                                       dtype=np.float32)),
    ]
    decoded = decode_detections(encode_detections(detections))
    assert len(decoded) == len(detections)
    for got, want in zip(decoded, detections):
        assert got.class_id == want.class_id
        assert got.score == pytest.approx(want.score)
        np.testing.assert_allclose(got.box_xyxy, want.box_xyxy)
        np.testing.assert_allclose(got.class_probs, want.class_probs)
