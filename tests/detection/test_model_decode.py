"""TinyYolo architecture and head decoding."""

import numpy as np
import pytest

from repro.detection import (
    TinyYolo,
    TinyYoloConfig,
    decode_head,
    decode_heads,
    detections_from_outputs,
    reduced_config,
)
from repro.nn import Tensor, no_grad
from repro.nn.serialization import state_digest


#: ``named_parameters()`` order. It fixes the seeded RNG draws and the keys
#: of every saved checkpoint, so it must never change.
_LAYERS = [f"conv{i}" for i in range(1, 10)] + ["head_coarse", "conv10", "conv11", "head_fine"]
PARAMETER_ORDER = tuple(
    f"{layer}.{param}" for layer in _LAYERS
    for param in (("weight", "bias") if layer.startswith("head")
                  else ("conv.weight", "bn.gamma", "bn.beta")))


@pytest.fixture(scope="module")
def small_model():
    return TinyYolo(reduced_config(input_size=64, width_multiplier=0.25), seed=0)


class TestConfig:
    def test_input_size_must_be_multiple_of_32(self):
        with pytest.raises(ValueError):
            TinyYoloConfig(input_size=100)

    def test_class_names_length_checked(self):
        with pytest.raises(ValueError):
            TinyYoloConfig(num_classes=3)

    def test_grid_sizes(self):
        config = reduced_config(input_size=96)
        assert config.grid_sizes == (3, 6)

    def test_anchor_scaling(self):
        full = TinyYoloConfig(input_size=416)
        coarse, fine = full.anchors()
        assert coarse[0] == (81.0, 82.0)
        double = reduced_config(input_size=832, width_multiplier=1.0)
        coarse_double, _ = double.anchors()
        assert coarse_double[0] == (162.0, 164.0)

    def test_custom_anchors_split_by_area(self):
        anchors = ((4, 4), (30, 30), (6, 6), (20, 20), (10, 10), (2, 2))
        config = reduced_config(input_size=96, custom_anchors=anchors)
        coarse, fine = config.anchors()
        assert fine == [(2.0, 2.0), (4.0, 4.0), (6.0, 6.0)]
        assert coarse == [(10.0, 10.0), (20.0, 20.0), (30.0, 30.0)]

    def test_custom_anchors_validated(self):
        with pytest.raises(ValueError):
            reduced_config(custom_anchors=((1, 2), (3, 4)))

    def test_head_channels(self):
        config = reduced_config()
        assert config.head_channels == 3 * (5 + 5)

    def test_channels_scaled_and_rounded(self):
        config = reduced_config(width_multiplier=0.25)
        assert config.channels(1024) == 256
        assert config.channels(16) == 8  # floor at 8


class TestModel:
    def test_forward_shapes(self, small_model):
        out_coarse, out_fine = small_model(
            Tensor(np.zeros((2, 3, 64, 64), dtype=np.float32))
        )
        assert out_coarse.shape == (2, 30, 2, 2)
        assert out_fine.shape == (2, 30, 4, 4)

    def test_wrong_input_size_raises(self, small_model):
        with pytest.raises(ValueError):
            small_model(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)))

    def test_full_scale_parameter_count_matches_darknet(self):
        # The real yolov3-tiny has ~8.7M parameters; ours should be close
        # (clustered batch-norm bookkeeping differs slightly).
        model = TinyYolo(reduced_config(input_size=416, width_multiplier=1.0))
        assert 8.0e6 < model.num_parameters() < 9.5e6

    def test_objectness_bias_initialized_negative(self, small_model):
        per_anchor = 5 + small_model.config.num_classes
        bias = small_model.head_coarse.bias.data.reshape(3, per_anchor)
        assert (bias[:, 4] < -2).all()

    @pytest.mark.parametrize("input_size, width, seed, digest", [
        (64, 0.25, 0, "2e972cdb6bcd9704c293b24ec3c70f20cb8c45f0c1c05b1d545f0ce7f80202d7"),
        (96, 0.5, 7, "6fcaa1a6b1f4afcf69047280196b4105bb622e4471789fb1165237a1faf53c5c"),
    ])
    def test_seeded_construction_is_pinned(self, input_size, width, seed, digest):
        model = TinyYolo(reduced_config(input_size, width), seed=seed)
        assert tuple(name for name, _ in model.named_parameters()) == PARAMETER_ORDER
        assert state_digest(model.state_dict()) == digest

    def test_gradients_reach_input(self):
        model = TinyYolo(reduced_config(input_size=64, width_multiplier=0.25), seed=1)
        x = Tensor(np.random.default_rng(0).random((1, 3, 64, 64)).astype(np.float32),
                   requires_grad=True)
        coarse, fine = model(x)
        (coarse.sum() + fine.sum()).backward()
        assert x.grad is not None
        assert np.abs(x.grad).sum() > 0


class TestDecode:
    def test_boxes_land_in_correct_cell(self):
        config = reduced_config(input_size=64)
        raw = np.zeros((1, 30, 2, 2), dtype=np.float32)
        decoded = decode_head(Tensor(raw), config.anchors()[0], 32, 5)
        # With tx=ty=0, sigmoid=0.5: center at (cell + 0.5) * stride.
        np.testing.assert_allclose(decoded.boxes_xywh.data[0, 0, 0, 0, :2], [16.0, 16.0])
        np.testing.assert_allclose(decoded.boxes_xywh.data[0, 0, 1, 1, :2], [48.0, 48.0])

    def test_anchor_size_at_zero_twth(self):
        config = reduced_config(input_size=64)
        anchors = config.anchors()[0]
        raw = np.zeros((1, 30, 2, 2), dtype=np.float32)
        decoded = decode_head(Tensor(raw), anchors, 32, 5)
        np.testing.assert_allclose(
            decoded.boxes_xywh.data[0, 0, 0, 0, 2:], anchors[0], rtol=1e-5
        )

    def test_bad_channel_count_raises(self):
        config = reduced_config(input_size=64)
        with pytest.raises(ValueError):
            decode_head(Tensor(np.zeros((1, 31, 2, 2), dtype=np.float32)),
                        config.anchors()[0], 32, 5)

    def test_extreme_twth_clamped(self):
        config = reduced_config(input_size=64)
        raw = np.full((1, 30, 2, 2), 100.0, dtype=np.float32)
        decoded = decode_head(Tensor(raw), config.anchors()[0], 32, 5)
        assert np.isfinite(decoded.boxes_xywh.data).all()

    def test_decode_heads_returns_both_strides(self, small_model):
        outputs = small_model(Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))
        heads = decode_heads(outputs, small_model.config)
        assert [h.stride for h in heads] == [32, 16]


class TestDetections:
    def test_high_threshold_gives_empty(self, small_model):
        with no_grad():
            outputs = small_model(Tensor(np.zeros((1, 3, 64, 64), dtype=np.float32)))
        detections = detections_from_outputs(outputs, small_model.config,
                                             conf_threshold=0.999)
        assert detections == [[]]

    def test_batch_results_align(self, small_model):
        with no_grad():
            outputs = small_model(Tensor(np.zeros((3, 3, 64, 64), dtype=np.float32)))
        detections = detections_from_outputs(outputs, small_model.config,
                                             conf_threshold=0.0, max_detections=5)
        assert len(detections) == 3
        assert all(len(d) <= 5 for d in detections)

    def test_detection_fields(self, small_model):
        with no_grad():
            outputs = small_model(
                Tensor(np.random.default_rng(0).random((1, 3, 64, 64)).astype(np.float32))
            )
        detections = detections_from_outputs(outputs, small_model.config,
                                             conf_threshold=0.0, max_detections=3)[0]
        det = detections[0]
        assert det.box_xyxy.shape == (4,)
        assert 0.0 <= det.score <= 1.0
        assert 0 <= det.class_id < 5
        assert det.class_probs.shape == (5,)
