"""Spawn-side inference workers for the serving pool.

Module-level (picklable-by-reference) ``init_fn``/``work_fn`` pair for
:class:`repro.parallel.WorkerPool`, plus the slab-spec and wire-format
helpers shared between the parent and the workers.

Transport layout (all ``repro.parallel.shm`` machinery):

* detector weights+buffers travel **once**, through the pool's parameter
  slab (broadcast at server start — the detector is frozen, so there is
  never a re-broadcast);
* frames travel through a dedicated :class:`~repro.parallel.shm.SharedSlab`
  with one slot per admitted request — the task queue only ever carries
  ``{"slots": [...]}`` descriptors, never pixels;
* detections return through the result queue as plain tuples (they are a
  few dozen floats — the one payload small enough to pickle), each row
  with its batch's forward and postprocess seconds (:func:`detect_batch`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..detection.config import TinyYoloConfig
from ..detection.decode import Detection, detections_from_outputs
from ..detection.model import TinyYolo
from ..nn import Tensor, no_grad
from ..nn.quant import resolve_inference_model
from ..parallel import ArraySpec, SharedSlab, SlabHandle

__all__ = [
    "ServeWorkerPayload",
    "serve_worker_init",
    "serve_worker_infer",
    "detect_batch",
    "detector_param_specs",
    "frame_spec",
    "encode_detections",
    "decode_detections",
]

#: Name of the single frame array in the request slab.
FRAME_ARRAY = "frame"


def detector_param_specs(detector: TinyYolo) -> Tuple[ArraySpec, ...]:
    """Parameter-slab specs covering the full state dict (weights *and*
    batch-norm buffers, so a worker reload is total)."""
    return tuple(
        ArraySpec(key, tuple(np.shape(value)), str(np.asarray(value).dtype))
        for key, value in detector.state_dict().items()
    )


def frame_spec(input_size: int) -> ArraySpec:
    """Spec of one CHW frame slot in the request slab."""
    return ArraySpec(FRAME_ARRAY, (3, input_size, input_size), "float32")


def encode_detections(detections: List[Detection]) -> list:
    """Wire format: one small tuple per detection (queue-picklable)."""
    return [
        (
            [float(v) for v in det.box_xyxy],
            float(det.score),
            int(det.class_id),
            [float(v) for v in det.class_probs],
        )
        for det in detections
    ]


def decode_detections(encoded: Sequence[tuple]) -> List[Detection]:
    """Inverse of :func:`encode_detections`."""
    return [
        Detection(
            box_xyxy=np.asarray(box, dtype=np.float32),
            score=float(score),
            class_id=int(class_id),
            class_probs=np.asarray(probs, dtype=np.float32),
        )
        for box, score, class_id, probs in encoded
    ]


def detect_batch(model, frames: Sequence[np.ndarray], conf_threshold: float,
                 iou_threshold: float, max_detections: int) -> List[tuple]:
    """One batch forward, then decode + NMS + encode, each timed where it
    runs — in the pool worker or in the in-process backend.

    Returns one ``(encoded detections, forward_s, postprocess_s)`` row
    payload per frame; every row carries its batch's two durations.
    """
    start = time.monotonic()
    with no_grad():
        outputs = model(Tensor(np.stack(frames)))
    forward_end = time.monotonic()
    encoded = [encode_detections(detections) for detections in
               detections_from_outputs(outputs, model.config,
                                       conf_threshold=conf_threshold,
                                       iou_threshold=iou_threshold,
                                       max_detections=max_detections)]
    forward_s = forward_end - start
    postprocess_s = time.monotonic() - forward_end
    return [(row, forward_s, postprocess_s) for row in encoded]


@dataclass(frozen=True)
class ServeWorkerPayload:
    """Everything a worker needs besides the broadcast weights."""

    detector_config: TinyYoloConfig
    frame_handle: SlabHandle
    conf_threshold: float
    iou_threshold: float
    max_detections: int
    fail_init: bool = False
    #: Compile the worker's detector through the eval-time lowering pass
    #: after each weight load (DESIGN.md §13).
    lowered: bool = False
    #: ``"fp"`` or ``"int8"`` — int8 re-quantizes after each weight load
    #: (DESIGN.md §15) and requires ``calibration``.
    precision: str = "fp"
    #: Calibration ranges for the int8 path. A
    #: :class:`~repro.nn.quant.CalibrationResult` is a small plain-field
    #: object, so it pickles through the spawn boundary by value — the
    #: ranges are data, not weights, and need no slab transport.
    calibration: Optional[object] = None


@dataclass
class _ServeContext:
    model: TinyYolo
    frames: SharedSlab
    payload: ServeWorkerPayload
    loaded_params: Optional[Dict[str, np.ndarray]] = None
    #: Compiled executor (lowered or quantized) built from the
    #: currently-loaded params; kept in lockstep with ``loaded_params``
    #: (folded weights/scales are copies, so any reload must re-compile).
    infer_model: Optional[object] = None


def serve_worker_init(payload: ServeWorkerPayload) -> _ServeContext:
    """Build the detector skeleton and attach the frame slab, once."""
    if payload.fail_init:
        raise RuntimeError("injected worker init failure (chaos hook)")
    model = TinyYolo(payload.detector_config)
    model.eval()
    for param in model.parameters():
        param.requires_grad = False
    frames = SharedSlab.attach(payload.frame_handle)
    return _ServeContext(model=model, frames=frames, payload=payload)


def serve_worker_infer(ctx: _ServeContext, params: Dict[str, np.ndarray],
                       task: dict) -> List[tuple]:
    """One batch forward: read the task's slots, detect, return rows.

    ``params`` is the slab read of the (frozen) detector state; the pool
    hands back the same object until a re-broadcast, so loading it into
    the model is an identity-guarded one-time cost per worker.

    Row shape follows the pool contract: ``(slot, grads, scalars)`` with
    an empty grads dict (the serve pool declares no gradient arrays) and
    :func:`detect_batch`'s row payload as the scalars.
    """
    if ctx.loaded_params is not params:
        ctx.model.load_state_dict(params)
        ctx.loaded_params = params
        # Compile *after* the load: folding/quantization copies the
        # weights, so an executor built from stale params would serve
        # stale detections.
        payload = ctx.payload
        if payload.lowered or payload.precision == "int8":
            ctx.infer_model = resolve_inference_model(
                ctx.model, precision=payload.precision,
                lowered=payload.lowered, calibration=payload.calibration)
        else:
            ctx.infer_model = None
    sleep_s = float(task.get("sleep_s", 0.0))
    if sleep_s > 0.0:  # chaos hook: simulate a hung forward
        time.sleep(sleep_s)
    slots = list(task["slots"])
    frames = [ctx.frames.slot_copy(FRAME_ARRAY, slot) for slot in slots]
    rows = detect_batch(
        ctx.infer_model if ctx.infer_model is not None else ctx.model,
        frames,
        conf_threshold=ctx.payload.conf_threshold,
        iou_threshold=ctx.payload.iou_threshold,
        max_detections=ctx.payload.max_detections,
    )
    return [(slot, {}, row) for slot, row in zip(slots, rows)]
