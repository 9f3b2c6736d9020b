"""DetectionServer on the real worker pool: spawned processes, chaos.

The acceptance bar for the serving layer (DESIGN.md §11): a SIGKILL'd
worker must not drop or duplicate a single admitted request, and a pool
that cannot come up must degrade to serial in-process inference rather
than fail the stream.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.detection.decode import batched_detections
from repro.serve import DetectionServer, RequestStatus, ServeConfig

pytestmark = [pytest.mark.serve, pytest.mark.parallel]


def pool_config(**overrides):
    defaults = dict(workers=2, max_batch=4, batch_window_s=0.01,
                    queue_capacity=32, deadline_s=60.0, task_timeout_s=30.0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def test_pool_parity_and_exactly_once(detector, make_frames):
    frames = make_frames(16, seed=5)
    server = DetectionServer(detector, pool_config())
    try:
        session = server.open_session("pool-client")
        futures = [server.submit(session, frame) for frame in frames]
        responses = [future.result(timeout=120) for future in futures]
    finally:
        server.close()

    assert sorted(resp.seq for resp in responses) == list(range(16))
    assert all(resp.status == RequestStatus.OK for resp in responses)
    assert all(not resp.degraded for resp in responses)
    snap = server.snapshot()
    assert snap["mode"] == "pool"
    assert snap["degraded"] is False
    assert snap["degraded_batches"] == 0

    reference = batched_detections(detector, frames, conf_threshold=0.3,
                                   iou_threshold=0.45, max_detections=50,
                                   batch_size=4)
    for resp, want in zip(responses, reference):
        assert len(resp.detections) == len(want)
        for got, ref in zip(resp.detections, want):
            assert got.class_id == ref.class_id
            np.testing.assert_allclose(got.box_xyxy, ref.box_xyxy, atol=1e-4)


def test_pool_ok_stages_are_non_negative_and_sum_to_latency(detector,
                                                           make_frames):
    """The worker times forward and postprocess; the parent times the
    rest. Together they must account for each latency exactly."""
    server = DetectionServer(detector, pool_config(workers=1))
    try:
        session = server.open_session("split")
        responses = [future.result(timeout=120) for future in
                     [server.submit(session, frame)
                      for frame in make_frames(12, seed=8)]]
    finally:
        server.close()
    assert server.snapshot()["mode"] == "pool"
    for resp in responses:
        assert resp.status == RequestStatus.OK
        assert min(resp.stages.values()) >= 0.0
        assert resp.stages["forward"] > 0.0
        in_latency = sum(value for name, value in resp.stages.items()
                         if name != "admit")
        assert in_latency == pytest.approx(resp.latency_s, abs=1e-6)


def test_chaos_sigkill_mid_stream_loses_nothing(detector, make_frames):
    """Kill a live worker mid-stream: every admitted request still
    resolves exactly once, and the pool respawns the dead slot."""
    frames = make_frames(24, seed=6)
    server = DetectionServer(detector, pool_config())
    killed = False
    try:
        session = server.open_session("chaos-client")
        futures = []
        for index, frame in enumerate(frames):
            futures.append(server.submit(session, frame))
            if index == 8 and not killed:
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    pids = server.worker_pids()
                    if pids:
                        os.kill(pids[0], signal.SIGKILL)
                        killed = True
                        break
                    time.sleep(0.02)
            time.sleep(0.002)
        responses = [future.result(timeout=120) for future in futures]
    finally:
        server.close()

    assert killed, "no live worker pid appeared within 10s"
    # Exactly once: every seq present, none duplicated, all ok.
    assert sorted(resp.seq for resp in responses) == list(range(24))
    assert all(resp.status == RequestStatus.OK for resp in responses)
    snap = server.snapshot()
    assert snap["ok"] == 24
    assert snap["pool"]["respawns"] >= 1
    assert snap["pool"]["worker_deaths"] >= 1


def test_init_failure_degrades_to_inproc(detector, make_frames):
    """A pool whose workers cannot initialize must fall back to serial
    in-process inference and still answer every request."""
    config = pool_config(debug_fail_worker_init=True, task_timeout_s=10.0)
    frames = make_frames(8, seed=7)
    server = DetectionServer(detector, config)
    try:
        session = server.open_session("degraded-client")
        futures = [server.submit(session, frame) for frame in frames]
        responses = [future.result(timeout=120) for future in futures]
    finally:
        server.close()

    assert sorted(resp.seq for resp in responses) == list(range(8))
    assert all(resp.status == RequestStatus.OK for resp in responses)
    snap = server.snapshot()
    assert snap["mode"] == "inproc"
    assert snap["degraded"] is True
    assert snap["ok"] == 8
