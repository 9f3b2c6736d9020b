"""Plain GAN training on the Four Shapes distribution.

Used in two places: as a standalone sanity harness ("can G learn a star at
all?") and as the warm-up phase of the attack trainer, which continues from
these weights with the attack term of Eq. 1 switched on.

The loop is fault tolerant (DESIGN.md §7): pass a
:class:`~repro.runtime.RuntimeConfig` with a ``checkpoint_path`` to get
periodic atomic snapshots and bit-for-bit resume after a crash; divergence
(non-finite loss, exploding gradients) triggers rollback to the last good
snapshot with a learning-rate cut and a reseeded batch stream instead of
an abort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..nn import Adam, Tensor, clip_grad_norm, no_grad, replay_running_update
from ..obs import Run, span_scope
from ..patch.shapes import sample_batch
from ..runtime import (
    DivergenceGuard,
    RuntimeConfig,
    TrainingCheckpoint,
    capture_rng,
    restore_rng,
    run_with_recovery,
)
from ..utils.logging import TrainLog
from ..utils.rng import derive_seed
from .discriminator import PatchDiscriminator
from .generator import PatchGenerator
from .losses import discriminator_loss, generator_adversarial_loss

__all__ = ["GanTrainConfig", "train_gan"]


@dataclass
class GanTrainConfig:
    """Hyper-parameters of plain GAN training.

    The paper uses Adam at lr 1e-4 with batch size 18 (§IV-A); the defaults
    here match, with the step count scaled to the reduced profile.
    """

    steps: int = 200
    batch_size: int = 18
    learning_rate: float = 1e-4
    grad_clip: float = 5.0
    seed: int = 0
    log_every: int = 20
    #: EOT fan-out schedule (DESIGN.md §10): ``None`` keeps the legacy
    #: batched step; ``0`` runs the per-sample engine schedule serially
    #: (the bit-identity oracle); ``n >= 1`` fans it out over ``n``
    #: worker processes with byte-identical results.
    workers: Optional[int] = None


def _recalibrate_batch_norm(generator: PatchGenerator, batch_size: int,
                            seed: int, passes: int = 8) -> None:
    """Re-estimate G's batch-norm running statistics after engine training.

    The parallel-engine schedule runs every generator forward inside the
    workers, so the parent's running-mean/variance buffers never see the
    trained weights. Replay a seeded stream of full-batch training-mode
    forwards (no grad) before switching to eval — deterministic, and
    independent of worker count because it runs entirely in the parent.
    """
    generator.train()
    rng = np.random.default_rng(derive_seed(seed, "bn-recal"))
    with no_grad():
        for _ in range(passes):
            generator(Tensor(generator.sample_latent(batch_size, rng)))


def train_gan(
    generator: PatchGenerator,
    discriminator: PatchDiscriminator,
    shape: str,
    config: Optional[GanTrainConfig] = None,
    log: Optional[TrainLog] = None,
    runtime: Optional[RuntimeConfig] = None,
    obs: Optional[Run] = None,
    live=None,
) -> TrainLog:
    """Adversarially train G/D on one shape class in place.

    ``obs`` attaches the loop to a run (DESIGN.md §9): a ``gan.train``
    span, loss/grad gauges from the log, and guard/recovery counters all
    land in the run's trace and metrics registry. ``obs=None`` is free.

    ``config.workers`` selects the step schedule (DESIGN.md §10): the
    legacy batched step (``None``), or the per-sample parallel-engine
    schedule — serial oracle at ``0``, ``n`` worker processes otherwise,
    all byte-identical to each other. With ``obs``, the engine stages are
    ``gan.parallel.*`` spans.

    ``live`` (a :class:`repro.obs.TrainTelemetry`, DESIGN.md §14) attaches
    the loop to the live sampler under the ``gan`` trainer name — as the
    attack warm-up it rides along as a secondary trainer; standalone it is
    the primary and drives ``train.*``. ``live=None`` is free.
    """
    config = config or GanTrainConfig()
    log = log or TrainLog("gan")
    runtime = runtime or RuntimeConfig()
    if obs is not None:
        log.bind_metrics(obs.metrics, prefix="gan")
    manager = runtime.manager()
    guard = DivergenceGuard(runtime.guard,
                            metrics=obs.metrics if obs is not None else None)
    ledger = None
    if live is not None:
        ledger = live.attach("gan", config.steps)
        live.ensure_probe("train.gan.guard", guard.probe)
        live.register_host_probes()
    rng = np.random.default_rng(config.seed)
    g_optimizer = Adam(generator.parameters(), lr=config.learning_rate)
    d_optimizer = Adam(discriminator.parameters(), lr=config.learning_rate)
    generator.train()
    discriminator.train()

    evaluator = None
    if config.workers is not None:
        from ..parallel import ParallelEvaluator, WorkSpec, shard_indices, tree_reduce
        from .parallel_step import (
            GanWorkerPayload,
            gan_slab_specs,
            gan_worker_init,
            gan_worker_step,
        )

        param_specs, grad_specs = gan_slab_specs(generator, discriminator)
        payload = GanWorkerPayload(
            patch_size=generator.patch_size,
            latent_dim=generator.latent_dim,
            gen_base_channels=generator.base_channels,
            disc_base_channels=discriminator.conv1.weight.data.shape[0],
            shape=shape,
            seed=config.seed,
        )
        evaluator = ParallelEvaluator(
            WorkSpec(init_fn=gan_worker_init, work_fn=gan_worker_step,
                     init_payload=payload, param_specs=param_specs,
                     grad_specs=grad_specs, max_samples=config.batch_size),
            config.workers, obs=obs, name="gan.parallel",
        )
        if live is not None:
            live.ensure_probe("train.gan.pool", evaluator.probe)
    # Extra EOT-stream epoch: bumped on divergence recovery so the retry
    # draws fresh per-sample streams (the engine-mode analogue of the
    # legacy batch-rng reseed). Checkpointed for bit-exact resume.
    eot_epoch = [0]

    def snapshot(step: int) -> TrainingCheckpoint:
        state = {}
        for prefix, source in (
            ("gen.", generator.state_dict()),
            ("disc.", discriminator.state_dict()),
            ("gopt.", g_optimizer.state_dict()),
            ("dopt.", d_optimizer.state_dict()),
        ):
            state.update({prefix + k: np.asarray(v).copy() for k, v in source.items()})
        return TrainingCheckpoint(
            step=step, state=state,
            rngs={"batch": capture_rng(rng)},
            scalars={"lr": g_optimizer.lr, "eot_epoch": float(eot_epoch[0])},
        )

    def restore(checkpoint: TrainingCheckpoint) -> None:
        def part(prefix):
            return {k[len(prefix):]: v for k, v in checkpoint.state.items()
                    if k.startswith(prefix)}

        generator.load_state_dict(part("gen."))
        discriminator.load_state_dict(part("disc."))
        g_optimizer.load_state_dict(part("gopt."))
        d_optimizer.load_state_dict(part("dopt."))
        restore_rng(rng, checkpoint.rngs["batch"])
        eot_epoch[0] = int(checkpoint.scalars.get("eot_epoch", 0))

    start_step = 0
    resumed = manager.load()
    if resumed is not None:
        restore(resumed)
        start_step = resumed.step
        log.event(start_step, "checkpoint_restore", path=manager.path)
    last_good: List[TrainingCheckpoint] = []

    def gather_params() -> dict:
        params = {}
        for prefix, module in (("gen.", generator), ("disc.", discriminator)):
            params.update({prefix + k: v for k, v in module.state_dict().items()})
        return params

    def engine_phase(step: int, phase: str, module, optimizer, prefix: str):
        """One evaluate round + optimizer step; returns (loss, grad_norm)."""
        batch = config.batch_size
        tasks = [
            {"phase": phase, "step": step, "epoch": eot_epoch[0],
             "samples": [(i, i) for i in shard]}
            for shard in shard_indices(batch, max(1, config.workers or 1))
        ]
        grad_keys = [prefix + name for name, _ in module.named_parameters()]
        out = evaluator.evaluate(gather_params(), tasks, batch, grad_keys)
        reduced = evaluator.reduce_grads(out)
        scale = np.float32(1.0 / batch)
        loss = float(tree_reduce(
            [np.float32(s["loss"]) for s in out.scalars]) * scale)
        guard.check(step, **{f"{phase}_loss": loss})
        optimizer.zero_grad()
        for name, param in module.named_parameters():
            param.grad = reduced[prefix + name] * scale
        grad_norm = clip_grad_norm(module.parameters(), config.grad_clip)
        guard.check(step, **{f"{phase}_grad_norm": grad_norm})
        optimizer.step()
        return loss, grad_norm

    def run_steps(start: int) -> None:
        for step in range(start, config.steps):
            if manager.due(step) or not last_good:
                checkpoint = snapshot(step)
                last_good[:] = [checkpoint]
                manager.save(checkpoint)
                if ledger is not None:
                    ledger.checkpoint_saved()

            if evaluator is not None:
                # Engine schedule: D round, then G round against the
                # freshly stepped D re-broadcast through the slab.
                d_loss_value, d_grad_norm = engine_phase(
                    step, "d", discriminator, d_optimizer, "disc.")
                g_loss_value, g_grad_norm = engine_phase(
                    step, "g", generator, g_optimizer, "gen.")
            else:
                real = sample_batch(shape, generator.patch_size,
                                    config.batch_size, rng)
                z = generator.sample_latent(config.batch_size, rng)

                # Discriminator step (fakes detached). The G step reuses
                # this forward: the D step leaves G's weights as they are.
                fake = generator(Tensor(z))
                d_loss = discriminator_loss(
                    discriminator(Tensor(real)), discriminator(fake.detach())
                )
                d_loss_value = float(d_loss.data)
                guard.check(step, d_loss=d_loss_value)
                d_optimizer.zero_grad()
                d_loss.backward()
                d_grad_norm = clip_grad_norm(discriminator.parameters(),
                                             config.grad_clip)
                guard.check(step, d_grad_norm=d_grad_norm)
                d_optimizer.step()

                # Generator step, the discriminator frozen: its weight
                # gradients would go unread (the next D step zeroes them).
                # G's batch-norm layers update their running statistics a
                # second time, as a second forward would (DESIGN.md §8).
                replay_running_update(generator)
                with discriminator.frozen():
                    g_loss = generator_adversarial_loss(discriminator(fake))
                    g_loss_value = float(g_loss.data)
                    guard.check(step, g_loss=g_loss_value)
                    g_optimizer.zero_grad()
                    g_loss.backward()
                g_grad_norm = clip_grad_norm(generator.parameters(),
                                             config.grad_clip)
                guard.check(step, g_grad_norm=g_grad_norm)
                g_optimizer.step()
            if obs is not None:
                obs.metrics.counter("gan.steps_run").inc()
            if ledger is not None:
                ledger.step(step, loss=g_loss_value, grad_norm=g_grad_norm,
                            d_loss=d_loss_value, d_grad_norm=d_grad_norm,
                            lr=g_optimizer.lr)
                ledger.set_epoch(eot_epoch[0])

            if step % config.log_every == 0 or step == config.steps - 1:
                log.log(step, d_loss=d_loss_value, g_loss=g_loss_value,
                        d_grad_norm=d_grad_norm, g_grad_norm=g_grad_norm,
                        lr=g_optimizer.lr)

    def on_divergence(attempt_index: int, err) -> None:
        checkpoint = last_good[0]
        restore(checkpoint)
        g_optimizer.lr = max(g_optimizer.lr * runtime.guard.lr_decay,
                             runtime.guard.min_lr)
        d_optimizer.lr = max(d_optimizer.lr * runtime.guard.lr_decay,
                             runtime.guard.min_lr)
        restore_rng(rng, capture_rng(np.random.default_rng(
            derive_seed(config.seed, "gan-retry", attempt_index))))
        # Engine mode draws per-sample streams from (seed, epoch, step, i)
        # rather than the batch rng, so retries advance the epoch instead.
        eot_epoch[0] += 1
        recovered = snapshot(checkpoint.step)
        last_good[:] = [recovered]
        manager.save(recovered)
        if ledger is not None:
            ledger.recovery()
            ledger.checkpoint_saved()
            ledger.set_epoch(eot_epoch[0])
        log.event(err.step, "divergence_recovery", reason=err.reason,
                  attempt=attempt_index, lr=g_optimizer.lr,
                  rollback_step=checkpoint.step)

    try:
        with span_scope(obs, "gan.train", shape=shape, steps=config.steps,
                        seed=config.seed, workers=config.workers):
            run_with_recovery(
                lambda attempt: run_steps(start_step if attempt == 0 else last_good[0].step),
                runtime.retry_policy(),
                on_divergence,
            )
    finally:
        # Divergence rollback (or any crash) must not strand worker
        # processes or /dev/shm segments.
        if evaluator is not None:
            evaluator.close()
    if not runtime.keep_checkpoint:
        manager.delete()
    if config.workers is not None:
        _recalibrate_batch_norm(generator, config.batch_size, config.seed)
    if ledger is not None:
        ledger.finish()
    generator.eval()
    discriminator.eval()
    return log
