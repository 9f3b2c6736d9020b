"""End-to-end AV perception pipeline: detector → confirmation → planner.

Glues the victim detector, the consecutive-frame confirmation rule, and
the rule planner into one object that consumes raw frames — the system the
paper's threat model actually targets. Running an attack video through it
shows the *behavioural* consequence of the decals (an extension beyond the
paper's PWC/CWC tables).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..detection.decode import Detection, batched_detections, detections_from_outputs
from ..detection.model import TinyYolo
from ..nn import Tensor, no_grad
from ..nn.quant import resolve_inference_model
from ..obs import Run, span_scope
from ..runtime import FaultSchedule
from .confirmation import ConfirmedObject, DetectionConfirmer
from .planner import Action, PlannerDecision, RulePlanner

__all__ = ["FrameTrace", "AvPipeline", "DEFAULT_BATCH_SIZE"]

#: Frames stacked per detector forward pass in :meth:`AvPipeline.run`.
DEFAULT_BATCH_SIZE = 8


@dataclass
class FrameTrace:
    """Everything the pipeline produced for one frame.

    ``sensor_fault`` marks a frame that never reached the detector
    (dropped by the camera feed); detections are then empty and the
    confirmation layer coasted on its tracks.
    """

    detections: List[Detection]
    confirmed: List[ConfirmedObject]
    decision: PlannerDecision
    sensor_fault: bool = False


class AvPipeline:
    """The full perception-to-action stack under attack.

    Parameters
    ----------
    detector:
        A (fine-tuned) :class:`~repro.detection.model.TinyYolo`.
    confirm_frames:
        Consecutive frames required to confirm (paper: 3).
    conf_threshold:
        Detector confidence threshold.
    lowered:
        Compile the frozen detector through the eval-time lowering pass
        (``TinyYolo.lower()``, DESIGN.md §13) and run inference through
        the lowered executor. ``self.detector`` stays the source model
        (checkpoint reloads); detection forwards use
        ``self.infer_model``. Default off — trainers and attack loops
        need the differentiable graph.
    precision:
        ``"fp"`` (default) or ``"int8"``. Int8 compiles the quantized
        inference plan (DESIGN.md §15) — approximate within the bench
        accuracy budget, not bit-exact — and requires ``calibration``
        (a :class:`~repro.nn.quant.CalibrationResult`); ``lowered`` is
        implied by int8.
    """

    def __init__(self, detector: TinyYolo, confirm_frames: int = 3,
                 conf_threshold: float = 0.3, lowered: bool = False,
                 precision: str = "fp", calibration=None):
        # The pipeline owns the detector as a frozen perception component:
        # inference must use batch-norm running statistics. In training
        # mode, per-batch statistics made detections depend on how frames
        # were batched and mutated the running buffers on every "inference"
        # frame — both inference-path bugs.
        self.detector = detector.eval()
        self.lowered = lowered
        self.precision = precision
        self.infer_model = resolve_inference_model(
            detector, precision=precision, lowered=lowered,
            calibration=calibration)
        self.conf_threshold = conf_threshold
        self.confirmer = DetectionConfirmer(confirm_frames=confirm_frames)
        self.planner = RulePlanner(detector.config.input_size)

    def reset(self) -> None:
        self.confirmer.reset()

    def step(self, frame: Optional[np.ndarray]) -> FrameTrace:
        """Process one CHW frame; ``None`` is a dropped (never-arrived)
        frame — the confirmation layer coasts instead of resetting."""
        if frame is None:
            confirmed = self.confirmer.update(None, sensor_fault=True)
            decision = self.planner.decide(confirmed)
            return FrameTrace(detections=[], confirmed=confirmed,
                              decision=decision, sensor_fault=True)
        with no_grad():
            outputs = self.infer_model(Tensor(frame[None]))
        detections = detections_from_outputs(
            outputs, self.detector.config, conf_threshold=self.conf_threshold
        )[0]
        confirmed = self.confirmer.update(detections)
        decision = self.planner.decide(confirmed)
        return FrameTrace(detections=detections, confirmed=confirmed,
                          decision=decision)

    def run(self, frames: Sequence[Optional[np.ndarray]],
            faults: Optional[FaultSchedule] = None,
            rng: Optional[np.random.Generator] = None,
            batch_size: int = DEFAULT_BATCH_SIZE,
            obs: Optional[Run] = None) -> List[FrameTrace]:
        """Process a whole video (resets state first).

        ``faults`` degrades the stream first — dropped frames reach the
        confirmation layer as ``None``, noisy/occluded frames as corrupted
        images — measuring the stack's behaviour under imperfect sensing.

        Frames are forwarded through the detector in batches of
        ``batch_size`` (detection is per-frame independent), while the
        confirmation tracker and planner still step frame by frame in
        stream order — the traces are identical to a per-frame
        :meth:`step` loop (parity-tested), just measured faster.
        ``batch_size=1`` recovers one forward pass per frame.

        ``obs`` attaches the run to a telemetry run (DESIGN.md §9): one
        ``pipeline.run`` span with ``detect.batched`` (forward / decode /
        nms) and ``pipeline.confirm`` children, whose
        :func:`~repro.obs.stage_table` is the pipeline's stage breakdown.
        """
        self.reset()
        stream: Sequence[Optional[np.ndarray]] = list(frames)
        with span_scope(obs, "pipeline.run", items=len(stream),
                        batch_size=batch_size, faults=faults is not None):
            if faults is not None:
                stream = faults.degrade_stream(stream, rng)
            per_frame = batched_detections(
                self.infer_model, stream, conf_threshold=self.conf_threshold,
                batch_size=batch_size, obs=obs,
            )
            traces: List[FrameTrace] = []
            with span_scope(obs, "pipeline.confirm", items=len(stream)):
                for detections in per_frame:
                    if detections is None:
                        confirmed = self.confirmer.update(None, sensor_fault=True)
                        decision = self.planner.decide(confirmed)
                        traces.append(FrameTrace(detections=[], confirmed=confirmed,
                                                 decision=decision, sensor_fault=True))
                        continue
                    confirmed = self.confirmer.update(detections)
                    decision = self.planner.decide(confirmed)
                    traces.append(FrameTrace(detections=detections,
                                             confirmed=confirmed, decision=decision))
        if obs is not None:
            obs.metrics.counter("pipeline.frames").inc(len(stream))
            obs.metrics.counter("pipeline.runs").inc()
        return traces

    # ------------------------------------------------------------------
    @staticmethod
    def action_counts(traces: Sequence[FrameTrace]) -> dict:
        """Histogram of planner actions over a run."""
        counts = {action: 0 for action in Action}
        for trace in traces:
            counts[trace.decision.action] += 1
        return counts
