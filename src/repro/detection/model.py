"""YOLOv3-tiny network definition.

Faithful to the darknet ``yolov3-tiny.cfg`` topology: 13 convolution layers,
six max-pools (the last one stride-1), a route from layer 13 through a 1×1
conv and 2× upsample that concatenates with layer 8's features, and two
detection heads at strides 32 and 16 with 3 anchors each.

The width multiplier in :class:`~repro.detection.config.TinyYoloConfig`
scales every channel count so the identical topology trains in minutes on a
CPU at the reduced profile (DESIGN.md §5) while ``width_multiplier=1.0``
reconstructs the paper's ~8.7M-parameter network.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.graph import INPUT, WEIGHTED, Graph, Node
from .config import TinyYoloConfig

__all__ = ["TinyYolo"]

#: The darknet ``yolov3-tiny.cfg`` graph, one row per node in execution
#: order. ``conv`` is conv + batch-norm + leaky ReLU with ``(base output
#: channels, kernel)`` — the width multiplier scales the channels — and
#: ``head`` a linear 1×1 conv to the head channels. Modules are built in
#: table order, which fixes the seeded RNG draws and the checkpoint keys.
YOLOV3_TINY = Graph([
    Node("conv1", "conv", (INPUT,), (16, 3)),
    Node("pool1", "pool", ("conv1",), (2, 2)),
    Node("conv2", "conv", ("pool1",), (32, 3)),
    Node("pool2", "pool", ("conv2",), (2, 2)),
    Node("conv3", "conv", ("pool2",), (64, 3)),
    Node("pool3", "pool", ("conv3",), (2, 2)),
    Node("conv4", "conv", ("pool3",), (128, 3)),
    Node("pool4", "pool", ("conv4",), (2, 2)),
    Node("conv5", "conv", ("pool4",), (256, 3)),  # route to the fine head
    Node("pool5", "pool", ("conv5",), (2, 2)),
    Node("conv6", "conv", ("pool5",), (512, 3)),
    Node("pool6", "pool", ("conv6",), (2, 1)),  # darknet's stride-1 'same' pool
    Node("conv7", "conv", ("pool6",), (1024, 3)),
    Node("conv8", "conv", ("conv7",), (256, 1)),  # layer-13 route point
    Node("conv9", "conv", ("conv8",), (512, 3)),
    Node("head_coarse", "head", ("conv9",)),  # stride 32
    Node("conv10", "conv", ("conv8",), (128, 1)),
    Node("upsample", "upsample", ("conv10",), (2,)),
    Node("route", "concat", ("upsample", "conv5")),
    Node("conv11", "conv", ("route",), (256, 3)),
    Node("head_fine", "head", ("conv11",)),  # stride 16
])


class TinyYolo(nn.Module):
    """YOLOv3-tiny object detector.

    ``forward`` returns the two raw head tensors; use
    :func:`repro.detection.decode.decode_heads` to turn them into boxes,
    objectness and class probabilities. The topology is the class's
    ``graph`` table; a variant is a subclass with another table.
    """

    graph = YOLOV3_TINY

    def __init__(self, config: TinyYoloConfig, seed: int = 0):
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
        channels = {INPUT: 3}
        for node in self.graph.nodes:
            inputs = [channels[name] for name in node.inputs]
            out = sum(inputs) if node.op == "concat" else inputs[0]
            if node.op == "conv":
                base, kernel = node.args
                out = config.channels(base)
                setattr(self, node.name,
                        nn.ConvBlock(inputs[0], out, kernel, rng=rng))
            elif node.op == "head":
                out = config.head_channels
                setattr(self, node.name, nn.Conv2d(inputs[0], out, 1, rng=rng))
            channels[node.name] = out
        self._initialize_heads()

    def _initialize_heads(self) -> None:
        """Bias objectness strongly negative so the untrained network starts
        from 'no objects anywhere', which stabilizes early training."""
        per_anchor = 5 + self.config.num_classes
        for name in self.graph.outputs:
            head = getattr(self, name)
            bias = head.bias.data.reshape(self.config.anchors_per_head, per_anchor)
            bias[:, 4] = -4.0
            head.bias.data = bias.reshape(-1)

    def forward(self, x: nn.Tensor) -> Tuple[nn.Tensor, nn.Tensor]:
        """Run the detector.

        Parameters
        ----------
        x:
            NCHW tensor, 3 channels, values in [0, 1], spatial size equal to
            ``config.input_size``.

        Returns
        -------
        (coarse, fine):
            Raw head outputs with shape ``(N, 3*(5+C), S, S)`` at strides
            32 and 16 respectively.
        """
        if x.shape[-1] != self.config.input_size or x.shape[-2] != self.config.input_size:
            raise ValueError(
                f"input spatial size {x.shape[-2:]} != configured "
                f"{self.config.input_size}"
            )
        return self.graph.run(x, self.run_node)

    def run_node(self, node: Node, *inputs: nn.Tensor) -> nn.Tensor:
        """Apply one graph node with the differentiable ops."""
        if node.op in WEIGHTED:
            return getattr(self, node.name)(inputs[0])
        if node.op == "pool":
            return F.max_pool2d(inputs[0], *node.args)
        if node.op == "upsample":
            return F.upsample_nearest(inputs[0], *node.args)
        return nn.concatenate(list(inputs), axis=1)

    # ------------------------------------------------------------------
    def lower(self, debug: bool = False) -> "nn.LoweredDetector":
        """Compile this frozen detector for inference (DESIGN.md §13).

        Folds batch-norm into the conv weights, fuses the leaky-ReLU
        epilogue, and pre-sizes every plan buffer per input shape.
        Requires eval mode; the result shares this model's ``forward``
        contract but is inference-only. Weights are folded *copies* —
        re-lower after loading a new checkpoint.
        """
        from ..nn.lowering import LoweredDetector
        return LoweredDetector(self, debug=debug)

    # ------------------------------------------------------------------
    def quantize(self, calibration_frames=None, *, calibration=None,
                 percentile: float = 100.0,
                 debug: bool = False) -> "nn.QuantizedDetector":
        """Compile this frozen detector to int8 inference (DESIGN.md §15).

        Either pass ``calibration_frames`` — an ``(N, 3, H, W)`` array of
        representative inputs run through the lowered fp graph to record
        per-layer activation ranges (optionally percentile-clipped) — or a
        previously computed
        :class:`~repro.nn.quant.CalibrationResult` via ``calibration``.
        Requires eval mode. The result shares this model's ``forward``
        contract but is inference-only and *approximate*: detections
        match the fp oracle within the accuracy budget reported by
        ``bench_hotpath.py``, not bit-exactly. Scales are quantized
        *copies* — re-quantize after loading a new checkpoint.
        """
        from ..nn.quant import (QuantizationError, QuantizedDetector,
                                calibrate_detector)
        if calibration is None:
            if calibration_frames is None:
                raise QuantizationError(
                    "TinyYolo.quantize needs calibration: pass "
                    "calibration_frames (representative (N, 3, H, W) "
                    "inputs) or calibration=CalibrationResult")
            calibration = calibrate_detector(self, calibration_frames,
                                             percentile=percentile)
        return QuantizedDetector(self, calibration, debug=debug)
