"""DetectionServer semantics on the in-process backend (``workers=0``).

No child processes: these tests pin down admission control, shed /
timeout / cancel behaviour, response ordering, parity with direct
inference, and the asyncio facade — fast enough to run everywhere.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.detection.decode import batched_detections
from repro.serve import (
    AdmissionError,
    DetectionServer,
    InprocBackend,
    RequestStatus,
    ServeConfig,
    ServerClosed,
)
from repro.serve import server as server_module

pytestmark = pytest.mark.serve


def inproc_config(**overrides):
    defaults = dict(workers=0, max_batch=4, batch_window_s=0.005,
                    queue_capacity=16, max_sessions=4, deadline_s=30.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


@pytest.fixture
def held(monkeypatch):
    """Serve through an in-process backend that finishes no batch until
    the test sets the returned event: a busy backend, so requests
    submitted after the first dispatch wait in the queue. Also returns
    the frame count of each batch the backend ran."""
    gate = threading.Event()
    ran = []

    class HeldBackend(InprocBackend):
        def poll(self, timeout=0.0):
            if not gate.wait(timeout):
                return []
            ran.extend(len(task["slots"]) for _, task in self._pending)
            return super().poll(timeout)

    monkeypatch.setattr(server_module, "InprocBackend", HeldBackend)
    yield gate, ran
    gate.set()


def test_parity_and_ordering_with_direct_inference(detector, make_frames):
    frames = make_frames(10, seed=11)
    server = DetectionServer(detector, inproc_config())
    try:
        session = server.open_session("client-a")
        futures = [server.submit(session, frame) for frame in frames]
        responses = [future.result(timeout=30) for future in futures]
    finally:
        server.close()

    assert [resp.seq for resp in responses] == list(range(10))
    assert all(resp.status == RequestStatus.OK for resp in responses)
    assert all(resp.degraded for resp in responses)  # inproc == degraded

    reference = batched_detections(detector, frames, conf_threshold=0.3,
                                   iou_threshold=0.45, max_detections=50,
                                   batch_size=4)
    for resp, want in zip(responses, reference):
        assert len(resp.detections) == len(want)
        for got, ref in zip(resp.detections, want):
            assert got.class_id == ref.class_id
            np.testing.assert_allclose(got.box_xyxy, ref.box_xyxy, atol=1e-4)
            assert got.score == pytest.approx(ref.score, abs=1e-5)


def test_lowered_backend_matches_reference_detections(detector, make_frames):
    """`ServeConfig(lowered=True)` swaps the inproc backend onto the
    eval-time lowered executor (DESIGN.md §13); detections must match
    the unlowered server within the lowering trace band."""
    frames = make_frames(6, seed=13)
    server = DetectionServer(detector, inproc_config(lowered=True))
    try:
        session = server.open_session("client-lowered")
        futures = [server.submit(session, frame) for frame in frames]
        responses = [future.result(timeout=30) for future in futures]
    finally:
        server.close()

    assert all(resp.status == RequestStatus.OK for resp in responses)
    reference = batched_detections(detector, frames, conf_threshold=0.3,
                                   iou_threshold=0.45, max_detections=50,
                                   batch_size=4)
    for resp, want in zip(responses, reference):
        assert len(resp.detections) == len(want)
        for got, ref in zip(resp.detections, want):
            assert got.class_id == ref.class_id
            np.testing.assert_allclose(got.box_xyxy, ref.box_xyxy, atol=1e-3)
            assert got.score == pytest.approx(ref.score, abs=1e-3)


def test_burst_past_capacity_sheds_instead_of_queueing(detector, make_frames,
                                                      held):
    # The held backend frees no slot mid-burst, so requests past the
    # slot capacity must be rejected immediately.
    gate, _ = held
    config = inproc_config(queue_capacity=2, max_batch=8)
    server = DetectionServer(detector, config)
    try:
        session = server.open_session("bursty")
        futures = [server.submit(session, frame)
                   for frame in make_frames(5, seed=2)]
        # Shed responses resolve instantly, before any batch finishes.
        shed_now = [f for f in futures if f.done()
                    and f.result().status == RequestStatus.SHED]
        assert len(shed_now) == 3
        assert all(not f.result().detections for f in shed_now)
        gate.set()
        responses = [future.result(timeout=30) for future in futures]
    finally:
        server.close()
    statuses = [resp.status for resp in responses]
    assert statuses.count(RequestStatus.OK) == 2
    snap = server.snapshot()
    assert snap["shed"] == 3
    assert snap["accepted"] == 2
    assert snap["max_queue_depth"] <= config.queue_capacity


def test_deadline_expires_queued_request(detector, make_frames, held):
    # The first request holds the backend; the second waits in the queue
    # behind it (window far longer than its deadline) and times out
    # there, without a forward pass.
    gate, ran = held
    config = inproc_config(batch_window_s=5.0, max_batch=8)
    server = DetectionServer(detector, config)
    first_frame, late_frame = make_frames(2)
    try:
        session = server.open_session("slowpoke")
        first = server.submit(session, first_frame)
        wait_for(lambda: server.snapshot()["batches"] == 1)
        late = server.submit(session, late_frame, deadline_s=0.02)
        response = late.result(timeout=10)
        assert response.status == RequestStatus.TIMEOUT
        assert not response.detections
        assert not first.done()
        gate.set()
        assert first.result(timeout=10).status == RequestStatus.OK
    finally:
        server.close()
    assert server.snapshot()["timeouts"] == 1
    assert ran == [1]  # the first request's forward pass only


def test_idle_server_answers_a_lone_request_at_once(detector, make_frames):
    # No batch in flight and none completed within the window: no
    # co-batcher can be on its way, so the 5 s window is not waited out.
    server = DetectionServer(detector, inproc_config(batch_window_s=5.0))
    try:
        session = server.open_session("lone")
        start = time.monotonic()
        response = server.submit(session, make_frames(1)[0]).result(timeout=10)
        elapsed = time.monotonic() - start
    finally:
        server.close()
    assert response.status == RequestStatus.OK
    assert elapsed < 1.0


def test_admission_control_caps_sessions(detector):
    server = DetectionServer(detector, inproc_config(max_sessions=2))
    try:
        server.open_session("a")
        second = server.open_session("b")
        with pytest.raises(AdmissionError):
            server.open_session("c")
        assert server.snapshot()["admission_rejected"] == 1
        server.close_session(second)
        server.open_session("d")  # freed capacity is reusable
    finally:
        server.close()


def test_submit_after_close_raises(detector, make_frames):
    server = DetectionServer(detector, inproc_config())
    session = server.open_session("late")
    server.close()
    with pytest.raises(ServerClosed):
        server.submit(session, make_frames(1)[0])


def submit_behind_held_batch(server, session, frames):
    """Submit ``frames[0]``, wait until it is dispatched to the held
    backend, then queue the rest behind it."""
    futures = [server.submit(session, frames[0])]
    wait_for(lambda: server.snapshot()["batches"] == 1)
    return futures + [server.submit(session, frame) for frame in frames[1:]]


def test_close_without_drain_cancels_queued_requests(detector, make_frames,
                                                     held):
    config = inproc_config(batch_window_s=10.0, max_batch=8)
    server = DetectionServer(detector, config)
    session = server.open_session("doomed")
    futures = submit_behind_held_batch(server, session, make_frames(3))
    server.close(drain=False)
    statuses = [future.result(timeout=5).status for future in futures]
    # In flight and queued alike: nothing completed before the close.
    assert statuses == [RequestStatus.CANCELLED] * 3


def test_drain_close_completes_queued_requests(detector, make_frames, held):
    gate, ran = held
    config = inproc_config(batch_window_s=10.0, max_batch=8)
    server = DetectionServer(detector, config)
    session = server.open_session("drained")
    futures = submit_behind_held_batch(server, session, make_frames(3))
    # The held batch finishes only after close() has begun draining.
    release = threading.Timer(0.1, gate.set)
    release.start()
    server.close(drain=True)
    release.join(timeout=5)
    responses = [future.result(timeout=5) for future in futures]
    assert all(resp.status == RequestStatus.OK for resp in responses)
    assert ran == [1, 2]  # the queued pair was flushed as one batch


def test_asyncio_facade(detector, make_frames):
    frames = make_frames(6, seed=9)
    server = DetectionServer(detector, inproc_config())

    async def drive():
        session = server.open_session("async-client")
        awaitables = [server.submit_async(session, frame) for frame in frames]
        return await asyncio.gather(*awaitables)

    try:
        responses = asyncio.run(drive())
    finally:
        server.close()
    assert [resp.seq for resp in responses] == list(range(6))
    assert all(resp.status == RequestStatus.OK for resp in responses)


def test_ok_stages_are_non_negative_and_sum_to_latency(detector,
                                                      make_frames):
    server = DetectionServer(detector, inproc_config())
    try:
        session = server.open_session("split")
        responses = [future.result(timeout=30) for future in
                     [server.submit(session, frame)
                      for frame in make_frames(10, seed=4)]]
        stages_ms = server.snapshot()["stages_ms"]
    finally:
        server.close()
    for resp in responses:
        assert resp.status == RequestStatus.OK
        assert set(resp.stages) == set(server_module.STAGES)
        assert min(resp.stages.values()) >= 0.0
        in_latency = sum(value for name, value in resp.stages.items()
                         if name != "admit")
        assert in_latency == pytest.approx(resp.latency_s, abs=1e-6)
    assert set(stages_ms) == set(server_module.STAGES)


def test_snapshot_reports_inproc_mode(detector, make_frames):
    server = DetectionServer(detector, inproc_config())
    try:
        session = server.open_session("s")
        server.submit(session, make_frames(1)[0]).result(timeout=10)
    finally:
        server.close()
    snap = server.snapshot()
    assert snap["mode"] == "inproc"
    assert snap["degraded"] is True
    assert snap["ok"] == 1
