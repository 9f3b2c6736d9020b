"""Re-implementation of the Sava et al. [34] baseline.

The paper compares against "Assessing the impact of transformations on
physical adversarial attacks" (AISec '22), re-implemented because no
official code exists. Faithful differences from our attack, exactly the
ones the paper highlights:

* the patch is a **full-color, free-form square** (3 channels, no shape
  prior, no GAN) optimized directly in pixel space through a sigmoid
  parameterization;
* EOT is used (the baseline's own contribution is studying transformations)
  — all five tricks are enabled to make it as strong as possible digitally;
* batches are **independent single frames** — no consecutive-frame runs.

Because the patch is saturated-color, the printer gamut model distorts it
heavily at physical deployment, reproducing the paper's Table I finding
that [34] collapses in the real world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..detection.config import CLASS_NAMES
from ..detection.model import TinyYolo
from ..eot.compose import EOTPipeline
from ..eot.sampler import ALL_TRICKS
from ..nn import Adam, Parameter, Tensor, clip_grad_norm, concatenate
from ..nn import functional as F
from ..patch.apply import apply_patches
from ..patch.placement import patch_world_size, placement_offsets
from ..scene.physical import print_patch
from ..scene.video import AttackScenario, DeployedDecals, sample_training_frames
from ..utils.logging import TrainLog
from ..utils.rng import derive_seed
from .config import AttackConfig
from .trainer import attack_loss

__all__ = ["SavaBaselineResult", "train_sava_baseline"]


@dataclass
class SavaBaselineResult:
    """The trained colored baseline patch."""

    patch_rgb: np.ndarray   # (3, k, k) in [0, 1]
    config: AttackConfig
    history: TrainLog
    world_size_m: float

    def deploy(self, physical: bool = False,
               rng: Optional[np.random.Generator] = None) -> DeployedDecals:
        rgb = self.patch_rgb
        if physical:
            if rng is None:
                rng = np.random.default_rng(derive_seed(self.config.seed, "print-sava"))
            rgb = print_patch(rgb, rng)
        alpha = np.ones(rgb.shape[1:], dtype=np.float32)
        return DeployedDecals(
            patch_rgb=rgb,
            alpha=alpha,
            world_size_m=self.world_size_m,
            offsets=placement_offsets(self.config.n_patches),
        )


def train_sava_baseline(
    model: TinyYolo,
    scenario: AttackScenario,
    config: Optional[AttackConfig] = None,
    log: Optional[TrainLog] = None,
) -> SavaBaselineResult:
    """Optimize a colored EOT patch against a frozen detector."""
    config = config or AttackConfig(consecutive=False, tricks=frozenset(ALL_TRICKS))
    log = log or TrainLog("sava")
    target_label = CLASS_NAMES.index(config.target_class)
    rng = np.random.default_rng(derive_seed(config.seed, "sava"))

    model.eval()
    with model.frozen():
        # Unconstrained parameterization: patch = σ(theta) stays in [0, 1].
        theta = Parameter(rng.normal(0.0, 1.0, size=(1, 3, config.k, config.k)))
        optimizer = Adam([theta], lr=5e-2)
        pipeline = EOTPipeline.with_tricks(config.tricks)

        world_size = patch_world_size(
            config.k,
            n_patches=config.n_patches,
            constant_total_area=config.constant_total_area,
        )
        offsets = placement_offsets(config.n_patches)
        pool = sample_training_frames(
            scenario,
            np.random.default_rng(derive_seed(config.seed, "sava-frames")),
            config.frame_pool,
            offsets,
            world_size,
            consecutive=False,  # the baseline trains on independent frames
        )

        full_alpha = Tensor(np.ones((1, 1, config.k, config.k), dtype=np.float32))
        for step in range(config.steps):
            indices = rng.choice(len(pool), size=config.batch_frames, replace=False)
            frames = [pool[i] for i in indices]
            patch = F.sigmoid(theta)
            composited = []
            boxes = []
            for frame in frames:
                patches = []
                alphas = []
                for _ in frame.placements:
                    transformed, alpha_t, _ = pipeline.sample_and_apply(
                        patch, rng, alpha=full_alpha
                    )
                    patches.append(transformed)
                    alphas.append(alpha_t)
                composited.append(
                    apply_patches(frame.image, patches, alphas, frame.placements)
                )
                boxes.append(frame.target_box_xywh)
            images = concatenate(composited, axis=0)
            outputs = model(images)
            loss = attack_loss(outputs, boxes, model, target_label,
                               config.objectness_weight,
                               targeted=config.targeted)
            if not np.isfinite(loss.data):
                raise FloatingPointError(f"non-finite baseline loss at step {step}")
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm([theta], config.grad_clip)
            optimizer.step()
            if step % 10 == 0 or step == config.steps - 1:
                log.log(step, attack=float(loss.data))

        final = 1.0 / (1.0 + np.exp(-theta.data[0]))
        return SavaBaselineResult(
            patch_rgb=final.astype(np.float32),
            config=config,
            history=log,
            world_size_m=world_size,
        )
