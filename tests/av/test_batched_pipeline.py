"""Parity of the batched AvPipeline.run hot path with per-frame step().

The batched path must be behaviourally indistinguishable from the
historical frame-by-frame loop: same detections, same confirmations, same
planner actions, same sensor-fault flags — including when a
FaultSchedule drops frames mid-stream.
"""

import numpy as np
import pytest

from repro.av import AvPipeline
from repro.detection import TinyYolo, reduced_config
from repro.obs import Run, load_trace, stage_table
from repro.runtime import FaultSchedule

pytestmark = pytest.mark.perf

N_FRAMES = 12


def make_pipeline(conf_threshold=0.01):
    detector = TinyYolo(reduced_config(input_size=64, width_multiplier=0.25),
                        seed=0)
    return AvPipeline(detector, confirm_frames=2, conf_threshold=conf_threshold)


def make_frames(rng, n=N_FRAMES):
    return [rng.random((3, 64, 64)).astype(np.float32) for _ in range(n)]


def step_reference(pipeline, stream):
    """The historical per-frame loop over an already degraded stream."""
    pipeline.reset()
    return [pipeline.step(frame) for frame in stream]


def assert_traces_match(reference, batched, box_atol):
    """``box_atol=0`` demands bit-identity; otherwise discrete outcomes
    must still match exactly and only box/score floats may drift within
    BLAS reassociation noise."""
    assert len(reference) == len(batched)
    for ref, bat in zip(reference, batched):
        assert ref.sensor_fault == bat.sensor_fault
        assert ref.decision.action == bat.decision.action
        assert len(ref.detections) == len(bat.detections)
        for a, b in zip(ref.detections, bat.detections):
            assert a.class_id == b.class_id
            if box_atol == 0:
                np.testing.assert_array_equal(a.box_xyxy, b.box_xyxy)
                assert a.score == b.score
            else:
                np.testing.assert_allclose(a.box_xyxy, b.box_xyxy,
                                           atol=box_atol)
                assert abs(a.score - b.score) <= box_atol
        assert ([(c.track_id, c.class_id) for c in ref.confirmed]
                == [(c.track_id, c.class_id) for c in bat.confirmed])


class TestBatchedPipelineParity:
    @pytest.fixture(scope="class")
    def pipeline(self):
        return make_pipeline()

    def test_batch_size_one_is_bit_identical(self, pipeline, rng):
        frames = make_frames(rng)
        reference = step_reference(pipeline, frames)
        batched = pipeline.run(frames, batch_size=1)
        assert_traces_match(reference, batched, box_atol=0)

    def test_batched_matches_per_frame_loop(self, pipeline, rng):
        frames = make_frames(rng)
        reference = step_reference(pipeline, frames)
        for batch_size in (4, 8, len(frames) + 5):
            batched = pipeline.run(frames, batch_size=batch_size)
            assert_traces_match(reference, batched, box_atol=1e-3)

    def test_parity_with_dropped_frames(self, pipeline, rng):
        """FaultSchedule drops must hit identical frames in both paths and
        coast identically through the confirmation layer."""
        frames = make_frames(rng)
        faults = FaultSchedule.dropped_frames(0.4, seed=7)
        stream = faults.degrade_stream(frames, np.random.default_rng(99))
        assert any(frame is None for frame in stream)  # scenario is live

        reference = step_reference(pipeline, stream)
        batched = pipeline.run(frames, faults=faults,
                               rng=np.random.default_rng(99), batch_size=4)
        assert_traces_match(reference, batched, box_atol=1e-3)
        assert ([t.sensor_fault for t in batched]
                == [frame is None for frame in stream])

    def test_all_frames_dropped(self, pipeline):
        batched = pipeline.run([None] * 4, batch_size=2)
        assert all(t.sensor_fault for t in batched)
        assert all(t.detections == [] for t in batched)

    def test_schedule_dropping_every_frame_matches_per_frame(self, pipeline, rng):
        """drop_probability=1.0: every batch is all-fault, so the batched
        path must coast the whole stream without ever touching the
        detector — and still mirror the per-frame loop exactly."""
        frames = make_frames(rng)
        faults = FaultSchedule.dropped_frames(1.0, seed=3)
        stream = faults.degrade_stream(frames, np.random.default_rng(5))
        assert all(frame is None for frame in stream)

        reference = step_reference(pipeline, stream)
        batched = pipeline.run(frames, faults=faults,
                               rng=np.random.default_rng(5), batch_size=4)
        assert_traces_match(reference, batched, box_atol=0)
        assert all(t.sensor_fault for t in batched)
        assert all(t.decision.action == ref.decision.action
                   for t, ref in zip(batched, reference))

    def test_fault_window_spanning_batch_boundary(self, pipeline, rng):
        """A contiguous drop window (frames 2..5) that straddles the
        batch_size=4 boundary: the tail of batch 0 and the head of batch
        1 are both faulty, so confirmation coasting must carry state
        across the batch cut identically to the per-frame loop."""
        frames = make_frames(rng)
        stream = [None if 2 <= i <= 5 else frame
                  for i, frame in enumerate(frames)]
        reference = step_reference(pipeline, stream)
        batched = pipeline.run(stream, batch_size=4)
        assert_traces_match(reference, batched, box_atol=1e-3)
        assert ([t.sensor_fault for t in batched]
                == [frame is None for frame in stream])

    def test_perf_recorder_sees_all_stages(self, pipeline, rng, tmp_path):
        frames = make_frames(rng, n=6)
        with Run(str(tmp_path / "run")) as run:
            pipeline.run(frames, batch_size=3, obs=run)
        stages = stage_table(load_trace(run.trace_path))
        for stage in ("detect.forward", "detect.decode", "detect.nms",
                      "pipeline.confirm"):
            assert stages[stage]["self_s"] > 0.0
        assert stages["pipeline.run"]["items"] == 6
        assert stages["detect.forward"]["calls"] == 2
        assert stages["detect.forward"]["items"] == 6
