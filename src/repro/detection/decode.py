"""Decoding of raw YOLO head tensors into detections.

Two entry points:

* :func:`decode_heads` — differentiable decode returning Tensors; the attack
  loss (Eq. 2 of the paper) reads class logits from here so that gradients
  reach the patch generator.
* :func:`detections_from_outputs` — inference path combining decode,
  confidence thresholding and NMS into a list of :class:`Detection`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Tensor, no_grad
from ..nn import functional as F
from ..nn.functional import stable_sigmoid
from ..nn.tensor import concatenate
from ..obs import Run, span_scope
from .boxes import xywh_to_xyxy
from .config import TinyYoloConfig
from .nms import non_max_suppression

__all__ = [
    "DecodedHead",
    "Detection",
    "decode_head",
    "decode_heads",
    "detections_from_outputs",
    "batched_detections",
]


@dataclass
class DecodedHead:
    """Differentiable decode of one YOLO head.

    All tensors have shape ``(N, A, S, S, ·)`` where A = anchors per head and
    S = grid size. ``boxes_xywh`` is in input-image pixels.
    """

    boxes_xywh: Tensor        # (N, A, S, S, 4)
    objectness_logit: Tensor  # (N, A, S, S)
    class_logits: Tensor      # (N, A, S, S, C)
    stride: int
    anchors: np.ndarray       # (A, 2)


@dataclass
class Detection:
    """One final detection in input-image pixel coordinates."""

    box_xyxy: np.ndarray
    score: float
    class_id: int
    class_probs: np.ndarray

    @property
    def class_name_index(self) -> int:
        return self.class_id


#: Cache of decode constants keyed by (grid_size, anchor tuple). The cell
#: grids and anchor broadcasts are pure functions of the head geometry —
#: rebuilding them for every frame of every evaluation video is wasted
#: allocation on the hot path. Entries are tiny (a few KiB) and the key
#: space is bounded by the distinct head geometries a process ever sees.
_DECODE_CONSTANTS: Dict[tuple, Tuple[np.ndarray, np.ndarray, np.ndarray,
                                     np.ndarray, np.ndarray]] = {}


def _decode_constants(s: int, anchors: Sequence[Tuple[float, float]]):
    """(cell_x, cell_y, anchor_w, anchor_h, anchor_arr) for one geometry."""
    anchor_key = tuple(tuple(float(v) for v in pair) for pair in anchors)
    key = (int(s), anchor_key)
    cached = _DECODE_CONSTANTS.get(key)
    if cached is None:
        cell_x = np.arange(s, dtype=np.float32)[None, None, None, :]
        cell_y = np.arange(s, dtype=np.float32)[None, None, :, None]
        anchor_arr = np.asarray(anchors, dtype=np.float32)
        anchor_w = anchor_arr[:, 0][None, :, None, None]
        anchor_h = anchor_arr[:, 1][None, :, None, None]
        for array in (cell_x, cell_y, anchor_arr, anchor_w, anchor_h):
            array.setflags(write=False)
        cached = (cell_x, cell_y, anchor_w, anchor_h, anchor_arr)
        _DECODE_CONSTANTS[key] = cached
    return cached


def decode_head(raw: Tensor, anchors: Sequence[Tuple[float, float]],
                stride: int, num_classes: int) -> DecodedHead:
    """Decode one raw head tensor ``(N, A*(5+C), S, S)``.

    Follows the YOLOv3 parameterization: ``bx = (σ(tx)+cx)·stride``,
    ``bw = anchor_w·exp(tw)``, objectness and per-class scores via sigmoid.
    """
    n, channels, s, s2 = raw.shape
    num_anchors = len(anchors)
    per_anchor = 5 + num_classes
    if channels != num_anchors * per_anchor or s != s2:
        raise ValueError(f"head shape {raw.shape} inconsistent with "
                         f"{num_anchors} anchors and {num_classes} classes")
    # (N, A, 5+C, S, S) -> (N, A, S, S, 5+C)
    grid = raw.reshape((n, num_anchors, per_anchor, s, s)).transpose((0, 1, 3, 4, 2))

    tx = grid[..., 0]
    ty = grid[..., 1]
    tw = grid[..., 2]
    th = grid[..., 3]
    obj_logit = grid[..., 4]
    cls_logits = grid[..., 5:]

    cell_x, cell_y, anchor_w, anchor_h, anchor_arr = _decode_constants(s, anchors)

    bx = (F.sigmoid(tx) + cell_x) * float(stride)
    by = (F.sigmoid(ty) + cell_y) * float(stride)
    # Clamp tw/th before exp to avoid overflow from an untrained network.
    bw = tw.clip(-8.0, 8.0).exp() * anchor_w
    bh = th.clip(-8.0, 8.0).exp() * anchor_h

    boxes = concatenate(
        [
            bx.reshape((n, num_anchors, s, s, 1)),
            by.reshape((n, num_anchors, s, s, 1)),
            bw.reshape((n, num_anchors, s, s, 1)),
            bh.reshape((n, num_anchors, s, s, 1)),
        ],
        axis=-1,
    )
    return DecodedHead(
        boxes_xywh=boxes,
        objectness_logit=obj_logit,
        class_logits=cls_logits,
        stride=stride,
        anchors=anchor_arr,
    )


def decode_heads(outputs: Tuple[Tensor, Tensor], config: TinyYoloConfig) -> List[DecodedHead]:
    """Decode both heads of a :class:`~repro.detection.model.TinyYolo`."""
    coarse_anchors, fine_anchors = config.anchors()
    coarse, fine = outputs
    return [
        decode_head(coarse, coarse_anchors, config.strides[0], config.num_classes),
        decode_head(fine, fine_anchors, config.strides[1], config.num_classes),
    ]


def detections_from_outputs(
    outputs: Tuple[Tensor, Tensor],
    config: TinyYoloConfig,
    conf_threshold: float = 0.3,
    iou_threshold: float = 0.45,
    max_detections: int = 50,
    obs: Optional[Run] = None,
) -> List[List[Detection]]:
    """Full inference post-processing for a batch.

    Score = objectness × max class probability (YOLOv3 convention). Returns
    one detection list per batch element, NMS applied per class. ``obs``
    times decode and NMS as ``detect.decode`` / ``detect.nms`` spans.
    """
    batch = outputs[0].shape[0]
    with no_grad(), span_scope(obs, "detect.decode", items=batch):
        heads = decode_heads(outputs, config)
        all_boxes, all_obj, all_cls = [], [], []
        for head in heads:
            n = batch
            boxes = head.boxes_xywh.data.reshape(n, -1, 4)
            obj = stable_sigmoid(head.objectness_logit.data.reshape(n, -1))
            cls = stable_sigmoid(
                head.class_logits.data.reshape(n, -1, config.num_classes))
            all_boxes.append(boxes)
            all_obj.append(obj)
            all_cls.append(cls)
        boxes = np.concatenate(all_boxes, axis=1)
        obj = np.concatenate(all_obj, axis=1)
        cls = np.concatenate(all_cls, axis=1)

    results: List[List[Detection]] = []
    with span_scope(obs, "detect.nms", items=batch):
        for i in range(batch):
            scores = obj[i][:, None] * cls[i]
            best_class = scores.argmax(axis=1)
            best_score = scores[np.arange(scores.shape[0]), best_class]
            keep = best_score >= conf_threshold
            if not keep.any():
                results.append([])
                continue
            boxes_xyxy = xywh_to_xyxy(boxes[i][keep])
            kept_scores = best_score[keep]
            kept_classes = best_class[keep]
            kept_probs = cls[i][keep]
            selected = non_max_suppression(
                boxes_xyxy, kept_scores, kept_classes, iou_threshold, max_detections
            )
            results.append(
                [
                    Detection(
                        box_xyxy=boxes_xyxy[j],
                        score=float(kept_scores[j]),
                        class_id=int(kept_classes[j]),
                        class_probs=kept_probs[j],
                    )
                    for j in selected
                ]
            )
    return results


def batched_detections(
    model,
    images: Sequence[Optional[np.ndarray]],
    conf_threshold: float = 0.3,
    iou_threshold: float = 0.45,
    max_detections: int = 50,
    batch_size: int = 8,
    obs: Optional[Run] = None,
) -> List[Optional[List[Detection]]]:
    """Detect over a frame stream, forwarding frames in batches.

    ``images`` may contain ``None`` entries (dropped frames — e.g. from a
    :class:`~repro.runtime.FaultSchedule`); those positions come back as
    ``None`` so callers can keep their per-frame coasting semantics. All
    non-dropped frames are stacked into batches of up to ``batch_size``
    and pushed through ``model`` in one forward pass each, which is what
    makes frame-rate-scale evaluation affordable (DESIGN.md §8).

    ``obs`` records one ``detect.batched`` span per call (child of
    whatever span is open — a pipeline run, an eval challenge) carrying
    frame/drop counters, with one ``detect.forward`` span per batch and
    the ``detect.decode`` / ``detect.nms`` spans of
    :func:`detections_from_outputs` under it; ``obs=None`` is free
    (DESIGN.md §9).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    results: List[Optional[List[Detection]]] = [None] * len(images)
    live = [(index, image) for index, image in enumerate(images)
            if image is not None]
    with span_scope(obs, "detect.batched", items=len(live),
                    batch_size=batch_size):
        if obs is not None:
            obs.tracer.add("dropped", len(images) - len(live))
        for start in range(0, len(live), batch_size):
            chunk = live[start:start + batch_size]
            stacked = np.stack([image for _, image in chunk])
            with no_grad(), span_scope(obs, "detect.forward", items=len(chunk)):
                outputs = model(Tensor(stacked))
            per_image = detections_from_outputs(
                outputs, model.config, conf_threshold=conf_threshold,
                iou_threshold=iou_threshold, max_detections=max_detections,
                obs=obs,
            )
            for (index, _), detections in zip(chunk, per_image):
                results[index] = detections
    if obs is not None:
        obs.metrics.counter("detect.frames").inc(len(images))
        obs.metrics.counter("detect.dropped_frames").inc(len(images) - len(live))
    return results
