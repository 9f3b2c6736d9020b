"""Eval-time graph lowering: the parity oracle and its guard rails.

The lowered executor may only ever be *faster* — never different. These
tests pin the contract from DESIGN.md §13: per-layer |Δ| vs the
differentiable eval graph stays under :data:`~repro.nn.LOWERING_ATOL`
across profiles, end-to-end pipeline traces are behaviourally identical,
checkpoints survive a load → lower → detect round-trip, and every way of
accidentally training or differentiating through a lowered model raises
instead of silently detaching.
"""

import os

import numpy as np
import pytest

from repro.av import AvPipeline
from repro.detection import TinyYolo, reduced_config
from repro.detection.decode import batched_detections
from repro.nn import (
    LOWERING_ATOL,
    LoweredDetector,
    Tensor,
    layer_parity,
    load_module,
    no_grad,
    save_module,
)

pytestmark = pytest.mark.lowered

class TestLayerParity:
    @pytest.mark.parametrize("width", [0.25, 0.5])
    @pytest.mark.parametrize("input_size", [32, 64])
    def test_per_layer_delta_within_tolerance(self, make_model, input_size, width):
        model = make_model(input_size=input_size, width=width)
        lowered = model.lower(debug=True)
        x = np.random.default_rng(2).random(
            (4, 3, input_size, input_size)).astype(np.float32)
        deltas = layer_parity(model, lowered, x)
        assert set(deltas) == set(model.graph.names("conv")
                                  + model.graph.names("head"))
        for name, delta in deltas.items():
            assert delta <= LOWERING_ATOL, (name, delta)

    def test_forward_contract_matches_reference_heads(self, make_model):
        model = make_model()
        lowered = model.lower()
        x = np.random.default_rng(3).random((2, 3, 64, 64)).astype(np.float32)
        coarse, fine = lowered(Tensor(x))
        with no_grad():
            ref_coarse, ref_fine = model(Tensor(x))
        assert coarse.data.shape == ref_coarse.data.shape
        assert fine.data.shape == ref_fine.data.shape
        np.testing.assert_allclose(coarse.data, ref_coarse.data,
                                   atol=LOWERING_ATOL)
        np.testing.assert_allclose(fine.data, ref_fine.data,
                                   atol=LOWERING_ATOL)

    def test_repeated_forwards_are_deterministic(self, make_model):
        # Plan buffers are reused across calls; a leaked view or an
        # unwritten region would make the second call differ.
        lowered = make_model().lower()
        x = np.random.default_rng(4).random((3, 3, 64, 64)).astype(np.float32)
        first = [a.copy() for a in lowered.forward_arrays(x)]
        lowered.forward_arrays(np.zeros_like(x))  # dirty the buffers
        second = lowered.forward_arrays(x)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_plans_cached_per_batch_shape(self, make_model):
        lowered = make_model().lower()
        lowered.forward_arrays(np.zeros((1, 3, 64, 64), np.float32))
        lowered.forward_arrays(np.zeros((1, 3, 64, 64), np.float32))
        lowered.forward_arrays(np.zeros((5, 3, 64, 64), np.float32))
        assert len(lowered._plans) == 2


class TestTraceIdentity:
    def test_pipeline_traces_identical_on_bench_scenario(self, make_model):
        """The bench oracle, in the default suite: a lowered AvPipeline
        must produce behaviourally identical frame traces — detections,
        confirmations, planner actions — on the bench-style video."""
        rng = np.random.default_rng(0)
        frames = [rng.random((3, 64, 64)).astype(np.float32)
                  for _ in range(12)]
        model = make_model()
        reference = AvPipeline(model, confirm_frames=3,
                               conf_threshold=0.001).run(frames, batch_size=4)
        lowered = AvPipeline(model, confirm_frames=3, conf_threshold=0.001,
                             lowered=True).run(frames, batch_size=4)
        assert len(reference) == len(lowered)
        for ref, low in zip(reference, lowered):
            assert ref.decision.action == low.decision.action
            assert len(ref.detections) == len(low.detections)
            for a, b in zip(ref.detections, low.detections):
                assert a.class_id == b.class_id
                np.testing.assert_allclose(a.box_xyxy, b.box_xyxy, atol=1e-3)
                assert abs(a.score - b.score) <= 1e-3
            assert ([(c.track_id, c.class_id) for c in ref.confirmed]
                    == [(c.track_id, c.class_id) for c in low.confirmed])

    def test_checkpoint_load_lower_detect_round_trip(self, make_model, tmp_path):
        trained = make_model(stats_seed=7)
        path = os.path.join(tmp_path, "detector.npz")
        save_module(trained, path)

        restored = TinyYolo(reduced_config(input_size=64,
                                           width_multiplier=0.25), seed=99)
        load_module(restored, path)
        lowered = restored.eval().lower()

        frames = [np.random.default_rng(5).random(
            (3, 64, 64)).astype(np.float32) for _ in range(4)]
        want = batched_detections(trained, frames, conf_threshold=0.001,
                                  batch_size=4)
        got = batched_detections(lowered, frames, conf_threshold=0.001,
                                 batch_size=4)
        for ref_dets, low_dets in zip(want, got):
            assert len(ref_dets) == len(low_dets)
            for a, b in zip(ref_dets, low_dets):
                assert a.class_id == b.class_id
                np.testing.assert_allclose(a.box_xyxy, b.box_xyxy, atol=1e-3)


class TestGuards:
    def test_lowering_training_model_raises(self, make_model):
        model = make_model().train()
        with pytest.raises(RuntimeError, match="eval"):
            model.lower()

    def test_grad_tracked_input_raises(self, make_model):
        lowered = make_model().lower()
        x = Tensor(np.zeros((1, 3, 64, 64), np.float32), requires_grad=True)
        with pytest.raises(RuntimeError, match="inference-only"):
            lowered(x)

    def test_grad_tracked_input_allowed_under_no_grad(self, make_model):
        lowered = make_model().lower()
        x = Tensor(np.zeros((1, 3, 64, 64), np.float32), requires_grad=True)
        with no_grad():
            coarse, fine = lowered(x)
        assert not coarse.requires_grad and not fine.requires_grad

    def test_train_mode_raises(self, make_model):
        lowered = make_model().lower()
        with pytest.raises(RuntimeError, match="inference-only"):
            lowered.train()
        assert lowered.eval() is lowered  # eval is a no-op, not an error

    def test_wrong_spatial_size_raises(self, make_model):
        lowered = make_model().lower()
        with pytest.raises(ValueError, match="spatial"):
            lowered(np.zeros((1, 3, 32, 32), np.float32))

    def test_folded_weights_are_copies(self, make_model):
        model = make_model()
        lowered = model.lower()
        x = np.random.default_rng(6).random((1, 3, 64, 64)).astype(np.float32)
        before = lowered.forward_arrays(x)[0].copy()
        model.conv1.conv.weight.data[:] += 1.0  # mutate the source
        after = lowered.forward_arrays(x)[0]
        np.testing.assert_array_equal(before, after)

    def test_debug_mode_runs_clean_under_aliasing_guard(self, make_model):
        # The plan executor itself must respect the pad aliasing rule it
        # is built on — debug mode would raise on any violation.
        lowered = make_model().lower(debug=True)
        assert isinstance(lowered, LoweredDetector)
        x = np.random.default_rng(8).random((2, 3, 64, 64)).astype(np.float32)
        lowered.forward_arrays(x)
        lowered.forward_arrays(x)
