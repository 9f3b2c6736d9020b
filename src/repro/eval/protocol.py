"""The paper's evaluation protocol (§IV).

For a challenge (rotation / speed / angle setting) the protocol renders the
corresponding video — optionally with deployed decals and the physical
degradation model — runs the detector on every frame, classifies the victim
object per frame, and reports PWC and CWC. Every number is averaged over
three seeded runs, as the paper does ("we conduct three runs and average
the results"); CWC is reported as the majority outcome of the runs.

A :class:`~repro.runtime.FaultSchedule` evaluates the same protocol under
an imperfect frame stream (dropped / noisy / occluded frames). Dropped
frames degrade gracefully: the per-frame outcome *coasts* — carries the
last observed classification forward for up to ``max_coast`` consecutive
gaps — mirroring how the hardened AV confirmation tracker
(:mod:`repro.av.confirmation`) rides through sensor gaps instead of
resetting its consecutive-frame count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Protocol, Sequence, Union, runtime_checkable

import numpy as np

from ..detection.config import CLASS_NAMES
from ..detection.decode import batched_detections
from ..detection.model import TinyYolo
from ..nn.quant import resolve_inference_model
from ..obs import Run, span_scope
from ..runtime import FaultSchedule
from ..scene.trajectory import CHALLENGES, challenge_trajectory
from ..scene.video import AttackScenario, DeployedDecals, render_run
from ..utils.rng import derive_seed
from .metrics import FrameOutcome, VideoResult, classify_frame, score_video

__all__ = [
    "ChallengeResult",
    "Deployable",
    "run_challenge",
    "evaluate_challenges",
    "DEFAULT_CHALLENGES",
    "SPEED_ANGLE_CHALLENGES",
    "DEFAULT_EVAL_BATCH_SIZE",
]

#: All eight paper challenges (Table I columns).
DEFAULT_CHALLENGES = tuple(CHALLENGES)
#: The six-column subset used by the ablation tables (III-VI).
SPEED_ANGLE_CHALLENGES = (
    "speed/slow", "speed/normal", "speed/fast",
    "angle/-15", "angle/0", "angle/+15",
)

#: Frames an outcome may coast over consecutive dropped frames before the
#: victim counts as missed (matches the confirmation tracker's tolerance).
DEFAULT_MAX_COAST = 2

#: Frames stacked per detector forward pass (detection is per-frame
#: independent, so batching only changes wall-clock, not outcomes).
DEFAULT_EVAL_BATCH_SIZE = 8


@runtime_checkable
class Deployable(Protocol):
    """Anything that can materialize decals for scene rendering.

    Satisfied structurally by :class:`~repro.attack.trainer.AttackResult`
    and :class:`~repro.attack.baseline_sava.SavaBaselineResult`.
    """

    def deploy(self, physical: bool = False,
               rng: Optional[np.random.Generator] = None) -> DeployedDecals:
        ...


@dataclass
class ChallengeResult:
    """Averaged outcome of one challenge."""

    challenge: str
    pwc: float
    cwc: bool
    runs: List[VideoResult] = field(default_factory=list)

    def cell(self) -> str:
        """Paper-style table cell, e.g. ``'78% / ✓'``."""
        mark = "Y" if self.cwc else "X"
        return f"{self.pwc:.0f}% / {mark}"


def run_challenge(
    model: TinyYolo,
    scenario: AttackScenario,
    challenge: str,
    artifact: Optional[Deployable] = None,
    target_class: str = "word",
    physical: bool = False,
    n_runs: int = 3,
    seed: int = 0,
    conf_threshold: float = 0.3,
    faults: Optional[FaultSchedule] = None,
    max_coast: int = DEFAULT_MAX_COAST,
    batch_size: int = DEFAULT_EVAL_BATCH_SIZE,
    obs: Optional[Run] = None,
    lowered: bool = False,
    precision: str = "fp",
    calibration=None,
) -> ChallengeResult:
    """Evaluate one challenge, averaging PWC over ``n_runs`` seeded runs.

    ``lowered`` compiles the frozen detector through the eval-time
    lowering pass (DESIGN.md §13) and runs all detection forwards through
    the lowered executor — same outcomes within the parity tolerance,
    measurably faster. Default off so attack loops that re-enter training
    mode keep the differentiable graph.

    ``precision="int8"`` runs detection through the quantized inference
    plan instead (DESIGN.md §15; requires ``calibration``, a
    :class:`~repro.nn.quant.CalibrationResult`). Unlike lowering this is
    an accuracy-vs-speed point: PWC/CWC may differ from the fp oracle
    within the budget reported by ``bench_hotpath.py``.

    ``faults`` degrades the rendered frame stream before the detector sees
    it; the schedule is re-seeded per run (derived from ``seed``) so
    results stay reproducible and averaged over the same three runs as the
    clean protocol.

    Frames are forwarded through the detector ``batch_size`` at a time
    (the degradation draws and the per-frame coasting walk stay in strict
    stream order, so outcomes match the historical frame-by-frame loop).

    ``obs`` attaches the challenge to a telemetry run (DESIGN.md §9): an
    ``eval.challenge`` span with per-run render/detect/score children
    (the detect child carries the forward / decode / nms spans) and PWC
    gauges in the run's metrics registry. ``obs=None`` is free.
    """
    if challenge not in CHALLENGES:
        raise KeyError(f"unknown challenge {challenge!r}")
    if artifact is not None and not isinstance(artifact, Deployable):
        raise TypeError(
            f"artifact {type(artifact).__name__!r} does not satisfy the "
            f"Deployable protocol (needs .deploy(physical, rng))"
        )
    target_label = CLASS_NAMES.index(target_class)
    poses = challenge_trajectory(challenge)
    # Evaluation is inference: batch-norm must read running statistics, or
    # per-frame outcomes would depend on how frames are batched (and every
    # frame would corrupt the running buffers). Restored on exit so a
    # mid-training caller keeps its mode.
    was_training = model.training
    model.eval()
    infer_model = resolve_inference_model(model, precision=precision,
                                          lowered=lowered,
                                          calibration=calibration)

    try:
        with span_scope(obs, "eval.challenge", challenge=challenge,
                        physical=physical, n_runs=n_runs, seed=seed):
            runs: List[VideoResult] = []
            for run_index in range(n_runs):
                rng = np.random.default_rng(derive_seed(seed, "eval", challenge, run_index))
                with span_scope(obs, "eval.render", run_index=run_index):
                    decals: Optional[DeployedDecals] = None
                    if artifact is not None:
                        decals = artifact.deploy(physical=physical, rng=rng)
                    frames = render_run(scenario, poses, rng, decals=decals,
                                        physical=physical)
                    if obs is not None:
                        obs.tracer.add("items", len(frames))

                fault_events = None
                fault_rng = None
                if faults is not None:
                    fault_rng = np.random.default_rng(
                        derive_seed(seed, "faults", challenge, run_index))
                    fault_events = faults.sample(len(frames), fault_rng)

                # Degrade the stream in strict frame order first (the fault RNG is
                # consumed per frame, so ordering is part of reproducibility), then
                # batch all surviving frames through the detector.
                images: List[Optional[np.ndarray]] = []
                for index, frame in enumerate(frames):
                    image = frame.image
                    if fault_events is not None:
                        image = faults.apply(image, fault_events[index], fault_rng)
                    images.append(image)
                detections_per_frame = batched_detections(
                    infer_model, images, conf_threshold=conf_threshold,
                    batch_size=batch_size, obs=obs,
                )

                with span_scope(obs, "eval.score", run_index=run_index):
                    outcomes: List[FrameOutcome] = []
                    last_seen: Optional[FrameOutcome] = None
                    coast_run = 0
                    for frame, detections in zip(frames, detections_per_frame):
                        if detections is None:
                            # Dropped frame: coast on the last observation for a
                            # bounded gap, then concede the victim as missed.
                            if last_seen is not None and coast_run < max_coast:
                                coast_run += 1
                                outcomes.append(replace(last_seen, coasted=True))
                            else:
                                outcomes.append(FrameOutcome(predicted_class=None,
                                                             coasted=True))
                            continue
                        coast_run = 0
                        outcome = classify_frame(detections, frame.target_box_xywh)
                        last_seen = outcome
                        outcomes.append(outcome)
                    runs.append(score_video(outcomes, target_label))

    finally:
        if was_training:
            model.train()

    mean_pwc = float(np.mean([r.pwc for r in runs]))
    majority_cwc = sum(r.cwc for r in runs) * 2 > len(runs)
    if obs is not None:
        obs.metrics.gauge(f"eval.{challenge}.pwc").set(mean_pwc)
        obs.metrics.gauge(f"eval.{challenge}.cwc").set(float(majority_cwc))
        obs.metrics.counter("eval.challenges_run").inc()
        obs.metrics.counter("eval.videos_scored").inc(len(runs))
    return ChallengeResult(challenge=challenge, pwc=mean_pwc, cwc=majority_cwc, runs=runs)


def evaluate_challenges(
    model: TinyYolo,
    scenario: AttackScenario,
    artifact: Optional[Deployable] = None,
    challenges: Sequence[str] = DEFAULT_CHALLENGES,
    target_class: str = "word",
    physical: bool = False,
    n_runs: int = 3,
    seed: int = 0,
    faults: Optional[FaultSchedule] = None,
    batch_size: int = DEFAULT_EVAL_BATCH_SIZE,
    obs: Optional[Run] = None,
    lowered: bool = False,
    precision: str = "fp",
    calibration=None,
) -> Dict[str, ChallengeResult]:
    """Run a set of challenges; returns challenge → result."""
    return {
        challenge: run_challenge(
            model, scenario, challenge, artifact=artifact,
            target_class=target_class, physical=physical,
            n_runs=n_runs, seed=seed, faults=faults,
            batch_size=batch_size, obs=obs, lowered=lowered,
            precision=precision, calibration=calibration,
        )
        for challenge in challenges
    }
