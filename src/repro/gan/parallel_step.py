"""Worker-side step functions of the data-parallel GAN trainer.

The per-sample unit here is one Four-Shapes draw: real sample + latent →
(D phase) discriminator loss on real-vs-detached-fake, or (G phase)
adversarial loss through the updated discriminator — each returning that
sample's parameter gradients. The parent reduces them through the fixed
tree and applies one optimizer step per phase, so an engine-mode GAN step
is two evaluate rounds (D, then G against the just-stepped D) against the
weights broadcast through the parameter slab.

Per-sample scheduling note (DESIGN.md §10): batch-norm layers see batch
statistics of a *single* sample under this schedule, a deliberate semantic
of the sharded step (the ``workers=0`` oracle uses the identical math).
Running-statistic buffers mutated inside workers are discarded on the next
weight reload and are never read in training mode, so results stay
independent of sharding; the parent re-estimates them deterministically
after training (see ``_recalibrate_batch_norm`` in the trainer).

RNG contract: each sample's stream derives from ``(seed, eot_epoch, step,
sample_index)`` and draws in a fixed order (real batch, then latent) in
*both* phases, so the G phase reuses exactly the latents the D phase saw —
matching the legacy step's single-draw structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..nn import Tensor
from ..parallel import ArraySpec
from ..patch.shapes import sample_batch
from ..utils.rng import derive_seed
from .discriminator import PatchDiscriminator
from .generator import PatchGenerator
from .losses import discriminator_loss, generator_adversarial_loss

__all__ = [
    "GanWorkerPayload",
    "gan_worker_init",
    "gan_worker_step",
    "gan_sample_stream",
    "gan_slab_specs",
]


def gan_sample_stream(seed: int, epoch: int, step: int,
                      sample_index: int) -> np.random.Generator:
    return np.random.default_rng(
        derive_seed(seed, "gan-sample", epoch, step, sample_index))


@dataclass(frozen=True)
class GanWorkerPayload:
    patch_size: int
    latent_dim: int
    gen_base_channels: int
    disc_base_channels: int
    shape: str
    seed: int


@dataclass
class _GanContext:
    generator: PatchGenerator
    discriminator: PatchDiscriminator
    payload: GanWorkerPayload


def gan_worker_init(payload: GanWorkerPayload) -> _GanContext:
    # Architecture only — every weight is overwritten from the parameter
    # slab before any task computes.
    generator = PatchGenerator(payload.patch_size, latent_dim=payload.latent_dim,
                               base_channels=payload.gen_base_channels, seed=0)
    discriminator = PatchDiscriminator(payload.patch_size,
                                       base_channels=payload.disc_base_channels,
                                       seed=1)
    generator.train()
    discriminator.train()
    return _GanContext(generator=generator, discriminator=discriminator,
                       payload=payload)


def _load(module, params: Dict[str, np.ndarray], prefix: str) -> None:
    module.load_state_dict({key[len(prefix):]: value
                            for key, value in params.items()
                            if key.startswith(prefix)})


def gan_worker_step(ctx: _GanContext, params: Dict[str, np.ndarray],
                    task: dict) -> List[tuple]:
    """One task = one phase ("d" or "g") over a shard of sample indices."""
    _load(ctx.generator, params, "gen.")
    _load(ctx.discriminator, params, "disc.")
    payload = ctx.payload
    phase = task["phase"]
    rows: List[tuple] = []
    for sample_index, _ in task["samples"]:
        rng = gan_sample_stream(payload.seed, task["epoch"], task["step"],
                                sample_index)
        real = sample_batch(payload.shape, payload.patch_size, 1, rng)
        z = ctx.generator.sample_latent(1, rng)
        for param in ctx.generator.parameters():
            param.grad = None
        for param in ctx.discriminator.parameters():
            param.grad = None
        fake = ctx.generator(Tensor(z))
        if phase == "d":
            loss = discriminator_loss(
                ctx.discriminator(Tensor(real)), ctx.discriminator(fake.detach()))
            prefix, module = "disc.", ctx.discriminator
            loss.backward()
        else:
            # Only the generator's gradients ship back, so the
            # discriminator computes none.
            with ctx.discriminator.frozen():
                loss = generator_adversarial_loss(ctx.discriminator(fake))
                loss.backward()
            prefix, module = "gen.", ctx.generator
        grads = {prefix + name: np.ascontiguousarray(param.grad, dtype=np.float32)
                 for name, param in module.named_parameters()}
        rows.append((sample_index, grads, {"loss": float(loss.data)}))
    return rows


def gan_slab_specs(
    generator: PatchGenerator, discriminator: PatchDiscriminator
) -> Tuple[Tuple[ArraySpec, ...], Tuple[ArraySpec, ...]]:
    """(param_specs, grad_specs) for the GAN engine's shared slabs.

    Parameters ship the full state dicts (weights *and* batch-norm
    buffers, so worker reloads are total); gradients exist only for
    trainable parameters.
    """
    param_specs = tuple(
        ArraySpec(prefix + key, tuple(np.shape(value)),
                  str(np.asarray(value).dtype))
        for prefix, module in (("gen.", generator), ("disc.", discriminator))
        for key, value in module.state_dict().items()
    )
    grad_specs = tuple(
        ArraySpec(prefix + name, tuple(param.data.shape))
        for prefix, module in (("gen.", generator), ("disc.", discriminator))
        for name, param in module.named_parameters()
    )
    return param_specs, grad_specs
