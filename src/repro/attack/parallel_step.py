"""Worker-side step functions of the data-parallel attack trainer.

One EOT *sample* — transform → composite → frozen-detector forward →
L_f → gradient w.r.t. the deployment patch — is an independent unit of
work, which is exactly what ``repro.parallel`` fans out (DESIGN.md §10).
The parent keeps everything that is cheap or stateful (GAN forwards,
optimizer steps, the divergence guard); workers receive the current patch
through the shared parameter slab and return per-sample patch gradients
through the gradient slab.

Determinism contract: the per-sample RNG is derived from
``(seed, eot_epoch, step, sample_index)`` via :func:`sample_stream` —
never from worker identity, task sharding, or arrival order — so the
``workers=0`` in-process oracle and every ``workers=N`` schedule draw
byte-identical transformations.

Everything here must stay module-level importable: the spawn start method
pickles ``attack_worker_init`` / ``attack_worker_step`` by reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..detection.config import TinyYoloConfig
from ..detection.model import TinyYolo
from ..eot.compose import EOTPipeline
from ..nn import Tensor
from ..parallel import ArraySpec
from ..scene.video import TrainingFrame
from ..utils.rng import derive_seed

__all__ = [
    "AttackWorkerPayload",
    "attack_worker_init",
    "attack_worker_step",
    "sample_stream",
    "attack_slab_specs",
]


def sample_stream(seed: int, epoch: int, step: int,
                  sample_index: int) -> np.random.Generator:
    """The one EOT-sample RNG derivation every schedule shares."""
    return np.random.default_rng(
        derive_seed(seed, "eot-sample", epoch, step, sample_index))


@dataclass(frozen=True)
class AttackWorkerPayload:
    """Everything a worker needs once, shipped at pool spawn (not per step).

    ``tricks`` travels as a *sorted tuple*: frozenset iteration order is
    process-dependent (string hash randomization), and the payload must
    hash/compare identically in every worker.
    """

    detector_config: TinyYoloConfig
    detector_state: Dict[str, np.ndarray]
    frames: Tuple[TrainingFrame, ...]
    tricks: Tuple[str, ...]
    target_label: int
    objectness_weight: float
    targeted: bool
    capture_probability: float
    seed: int


@dataclass
class _AttackContext:
    model: TinyYolo
    pipeline: EOTPipeline
    payload: AttackWorkerPayload


def attack_worker_init(payload: AttackWorkerPayload) -> _AttackContext:
    """Build the frozen detector + EOT pipeline once per worker process."""
    model = TinyYolo(payload.detector_config)
    model.load_state_dict(payload.detector_state)
    model.eval()
    # Frozen victim, same as the parent: gradients flow through, not into.
    for param in model.parameters():
        param.requires_grad = False
    pipeline = EOTPipeline.with_tricks(frozenset(payload.tricks))
    return _AttackContext(model=model, pipeline=pipeline, payload=payload)


def attack_worker_step(ctx: _AttackContext, params: Dict[str, np.ndarray],
                       task: dict) -> List[tuple]:
    """Evaluate one task's EOT samples against the current patch.

    ``task`` carries ``{"step", "epoch", "samples": [(sample_index,
    frame_index), ...]}``; ``params["patch"]`` is the step's deployment
    patch from the parameter slab. Returns ``(sample_index,
    {"patch": grad}, {"loss": value})`` rows.
    """
    from .trainer import _composite_batch, attack_loss

    payload = ctx.payload
    rows: List[tuple] = []
    for sample_index, frame_index in task["samples"]:
        rng = sample_stream(payload.seed, task["epoch"], task["step"], sample_index)
        patch = Tensor(np.array(params["patch"], copy=True), requires_grad=True)
        image, boxes = _composite_batch([payload.frames[frame_index]], patch,
                                        ctx.pipeline, rng,
                                        payload.capture_probability)
        outputs = ctx.model(image)
        loss = attack_loss(outputs, boxes, ctx.model,
                           payload.target_label, payload.objectness_weight,
                           targeted=payload.targeted)
        loss.backward()
        rows.append((sample_index,
                     {"patch": np.ascontiguousarray(patch.grad, dtype=np.float32)},
                     {"loss": float(loss.data)}))
    return rows


def attack_slab_specs(k: int) -> Tuple[Tuple[ArraySpec, ...], Tuple[ArraySpec, ...]]:
    """(param_specs, grad_specs) for the attack engine's shared slabs."""
    patch = ArraySpec("patch", (1, 1, k, k))
    return (patch,), (patch,)
