"""Attack-trainer internals: batch construction and capture-EOT."""

import numpy as np
import pytest

from repro.attack.config import AttackConfig
from repro.attack.trainer import _batch_frames, _capture_augment, _composite_batch
from repro.eot import EOTPipeline
from repro.nn import Tensor
from repro.patch import placement_offsets
from repro.scene import AttackScenario
from repro.scene.video import sample_training_frames


@pytest.fixture(scope="module")
def frame_pool():
    scenario = AttackScenario(image_size=64)
    return sample_training_frames(
        scenario, np.random.default_rng(0), 12, placement_offsets(2), 1.5,
        consecutive=True, group=3, degrade_fraction=0.0,
    )


class TestBatchFrames:
    def test_consecutive_batches_are_whole_runs(self, frame_pool):
        config = AttackConfig(consecutive=True, batch_frames=6, group=3,
                              frame_pool=12)
        rng = np.random.default_rng(1)
        batch = _batch_frames(frame_pool, config, rng)
        assert len(batch) == 6
        # Each group of 3 decreases in distance (an approach run).
        for start in (0, 3):
            distances = [f.pose.distance for f in batch[start:start + 3]]
            assert distances == sorted(distances, reverse=True)

    def test_nonconsecutive_batches_sample_freely(self, frame_pool):
        config = AttackConfig(consecutive=False, batch_frames=5)
        rng = np.random.default_rng(2)
        batch = _batch_frames(frame_pool, config, rng)
        assert len(batch) == 5

    def test_batches_vary_across_draws(self, frame_pool):
        config = AttackConfig(consecutive=True, batch_frames=6, group=3)
        rng = np.random.default_rng(3)
        first = [f.pose.distance for f in _batch_frames(frame_pool, config, rng)]
        second = [f.pose.distance for f in _batch_frames(frame_pool, config, rng)]
        assert first != second


class TestCaptureAugment:
    def test_preserves_shape_and_range(self, rng):
        image = Tensor(rng.random((2, 3, 32, 32)).astype(np.float32),
                       requires_grad=True)
        out = _capture_augment(image, np.random.default_rng(0))
        assert out.shape == image.shape
        assert ((out.data >= 0) & (out.data <= 1)).all()

    def test_differentiable(self, rng):
        image = Tensor(rng.random((1, 3, 16, 16)).astype(np.float32),
                       requires_grad=True)
        out = _capture_augment(image, np.random.default_rng(1))
        out.sum().backward()
        assert image.grad is not None
        assert np.abs(image.grad).sum() > 0

    def test_stochastic_across_rngs(self, rng):
        image = Tensor(rng.random((1, 3, 16, 16)).astype(np.float32))
        a = _capture_augment(image, np.random.default_rng(1)).data
        b = _capture_augment(image, np.random.default_rng(2)).data
        assert not np.allclose(a, b)


class TestCompositeBatch:
    def test_composite_shapes_and_gradients(self, frame_pool, rng):
        patch = Tensor(rng.random((1, 1, 20, 20)).astype(np.float32),
                       requires_grad=True)
        pipeline = EOTPipeline.with_tricks(frozenset({"rotation"}))
        frames = frame_pool[:3]
        images, boxes = _composite_batch(frames, patch, pipeline,
                                         np.random.default_rng(0),
                                         capture_probability=1.0)
        assert images.shape == (3, 3, 64, 64)
        assert len(boxes) == 3
        images.sum().backward()
        assert patch.grad is not None
        assert np.abs(patch.grad).sum() > 0

    def test_capture_probability_zero_is_clean(self, frame_pool, rng):
        patch = Tensor(np.ones((1, 1, 20, 20), dtype=np.float32))
        pipeline = EOTPipeline.with_tricks(frozenset())
        frames = frame_pool[:1]
        a, _ = _composite_batch(frames, patch, pipeline,
                                np.random.default_rng(5),
                                capture_probability=0.0)
        b, _ = _composite_batch(frames, patch, pipeline,
                                np.random.default_rng(5),
                                capture_probability=0.0)
        np.testing.assert_allclose(a.data, b.data)

    def test_patch_batch_must_be_one(self, frame_pool, rng):
        # The step composites the one deployment patch; a batch of N would
        # otherwise be read as one row per decal instance.
        patch = Tensor(rng.random((2, 1, 20, 20)).astype(np.float32))
        pipeline = EOTPipeline.with_tricks(frozenset({"rotation"}))
        with pytest.raises(ValueError, match="one patch"):
            _composite_batch(frame_pool[:1], patch, pipeline,
                             np.random.default_rng(0), capture_probability=0.0)
