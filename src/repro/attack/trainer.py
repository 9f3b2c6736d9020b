"""Joint GAN + attack training (the paper's Eq. 1).

The trainer alternates:

* a **discriminator** step on real Four-Shapes samples vs. detached fakes
  (first two terms of Eq. 1), and
* a **generator** step whose loss is the adversarial term plus
  ``α · L_f`` (Eq. 2): the deployment patch is EOT-transformed per decal
  instance, background-removed, composited into a batch of training frames
  — runs of 3 consecutive approach frames when ``consecutive`` is on — and
  pushed through the frozen detector; ``L_f`` is the cross-entropy of the
  class logits at the victim object's cells toward the target class, plus a
  small objectness term that keeps the object *detected* (just wrongly).

Training frames come from :func:`repro.scene.video.sample_training_frames`
— the digital stage of the paper's pipeline. Physical robustness is
trained in, not hoped for: the patch passes through a differentiable
printer response (printability by design, §II-B) and a fraction of
composites pass through a differentiable reparameterization of the capture
model (:func:`_capture_augment`), so the decal that ships is the decal the
camera will actually see. The full stochastic physical stage (printing +
capture degradation) is then applied at evaluation time in
`repro.eval.protocol`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..detection.config import CLASS_NAMES
from ..detection.model import TinyYolo
from ..eot.compose import EOTPipeline
from ..eot.sampler import EOTSampler
from ..gan.discriminator import PatchDiscriminator
from ..gan.generator import PatchGenerator
from ..gan.losses import discriminator_loss, generator_adversarial_loss
from ..gan.trainer import GanTrainConfig, train_gan
from ..nn import Adam, Tensor, clip_grad_norm, concatenate
from ..nn import functional as F
from ..obs import Run, span_scope
from ..patch.apply import apply_patches
from ..patch.mask import hard_background_mask, soft_background_mask
from ..patch.placement import patch_world_size, placement_offsets
from ..patch.shapes import sample_batch
from ..runtime import (
    DivergenceGuard,
    RuntimeConfig,
    TrainingCheckpoint,
    capture_rng,
    restore_rng,
    run_with_recovery,
)
from ..scene.physical import print_patch
from ..scene.video import AttackScenario, DeployedDecals, TrainingFrame, sample_training_frames
from ..utils.logging import TrainLog
from ..utils.rng import derive_seed
from .config import AttackConfig

__all__ = ["AttackResult", "train_patch_attack", "attack_loss"]


@dataclass
class AttackResult:
    """A trained decal attack ready for deployment."""

    patch: np.ndarray           # (1, k, k) monochrome appearance in [0, 1]
    alpha: np.ndarray           # (k, k) hard cut-out mask
    config: AttackConfig
    history: TrainLog
    world_size_m: float

    def deploy(self, physical: bool = False,
               rng: Optional[np.random.Generator] = None) -> DeployedDecals:
        """Materialize the decal set for scene rendering.

        With ``physical=True`` the patch first passes through the printer
        model — the digital→physical gap of the paper's §IV-B.
        """
        rgb = np.repeat(self.patch, 3, axis=0)
        if physical:
            if rng is None:
                rng = np.random.default_rng(derive_seed(self.config.seed, "print"))
            rgb = print_patch(rgb, rng)
        return DeployedDecals(
            patch_rgb=rgb,
            alpha=self.alpha,
            world_size_m=self.world_size_m,
            offsets=placement_offsets(self.config.n_patches),
        )


def attack_loss(
    outputs: Tuple[Tensor, Tensor],
    target_boxes: Sequence[np.ndarray],
    model: TinyYolo,
    target_label: int,
    objectness_weight: float,
    targeted: bool = True,
) -> Tensor:
    """The L_f of Eq. 2 for a batch.

    Targeted mode (paper): gathers class logits from both heads at the grid
    cells containing each victim box center (all anchors), applies softmax
    cross-entropy toward the target class, and adds a BCE term that pulls
    objectness up so the detector keeps *seeing* an object there.

    Untargeted mode (disappearance extension): pushes objectness at those
    cells toward zero instead, hiding the victim from the detector.
    """
    config = model.config
    per_anchor = 5 + config.num_classes
    num_anchors = config.anchors_per_head
    total: Tensor = Tensor(0.0)
    terms = 0
    for raw, stride in zip(outputs, config.strides):
        n = raw.shape[0]
        s = config.input_size // stride
        grid = raw.reshape((n, num_anchors, per_anchor, s, s)).transpose((0, 1, 3, 4, 2))
        batch_idx: List[int] = []
        anchor_idx: List[int] = []
        row_idx: List[int] = []
        col_idx: List[int] = []
        for i, box in enumerate(target_boxes):
            cx, cy = float(box[0]), float(box[1])
            col = min(int(cx / stride), s - 1)
            row = min(int(cy / stride), s - 1)
            for a in range(num_anchors):
                batch_idx.append(i)
                anchor_idx.append(a)
                row_idx.append(row)
                col_idx.append(col)
        index = (
            np.asarray(batch_idx),
            np.asarray(anchor_idx),
            np.asarray(row_idx),
            np.asarray(col_idx),
        )
        cells = grid[index]             # (P, 5+C)
        class_logits = cells[:, 5:]
        obj_logits = cells[:, 4]
        if targeted:
            targets = np.full(len(batch_idx), target_label, dtype=np.int64)
            class_term = F.cross_entropy(class_logits, targets)
            obj_term = F.bce_with_logits(
                obj_logits, np.ones(len(batch_idx), dtype=np.float32)
            )
            total = total + class_term + objectness_weight * obj_term
        else:
            # Disappearance: drive objectness to zero at the victim cells.
            obj_term = F.bce_with_logits(
                obj_logits, np.zeros(len(batch_idx), dtype=np.float32)
            )
            total = total + obj_term
        terms += 1
    return total * (1.0 / max(terms, 1))


@dataclass(frozen=True)
class _CaptureDraws:
    """One frame's capture-EOT draws, in the order :func:`_capture_augment`
    has always taken them: the coarse illumination grid, the shadow coin
    (plus the band's angle and offset when it lands), the blur coin, then
    the sensor noise (kept as the float32 the frame adds)."""

    coarse: np.ndarray
    shadow: Optional[Tuple[float, float]]
    blur: bool
    noise: np.ndarray


def _draw_capture(rng: np.random.Generator, shape_hw: Tuple[int, int]) -> _CaptureDraws:
    from ..scene.physical import CaptureModel, _band_draw, _coarse_grid

    model = CaptureModel()
    coarse = _coarse_grid(shape_hw, rng)
    shadow = _band_draw(rng) if rng.random() < model.shadow_probability else None
    blur = bool(rng.random() < 0.7)
    noise = rng.normal(0.0, model.noise_sigma, size=(1, 3) + tuple(shape_hw))
    return _CaptureDraws(coarse, shadow, blur, noise.astype(np.float32))


def _apply_capture(image: Tensor, draws: _CaptureDraws) -> Tensor:
    """The capture-EOT of one frame, from its draws (never reads an rng)."""
    from ..eot.transforms import blur3
    from ..scene.physical import CaptureModel, _band, _illumination_fields

    model = CaptureModel()
    _, _, h, w = image.shape
    field = _illumination_fields(draws.coarse[None], (h, w),
                                 model.illumination_amplitude)[0]
    out = image * field[None, None]
    if draws.shadow is not None:
        out = out * _band((h, w), *draws.shadow, model.shadow_strength)[None, None]
    if draws.blur:
        out = blur3(out)
    return (out + draws.noise).clip(0.0, 1.0)


def _capture_augment(image: Tensor, rng: np.random.Generator) -> Tensor:
    """EOT over the capture model (differentiable w.r.t. the image).

    Samples the same distortions :func:`repro.scene.physical.camera_degrade`
    applies at evaluation time — illumination field, shadow band, blur,
    sensor noise — but as fixed numpy constants multiplied/added onto the
    composited tensor, so gradients still reach the patch. This is the
    reparameterized-EOT trick: expectation over capture conditions, not
    just over patch transforms. The one-frame case of the attack step's
    draw and compute passes.
    """
    return _apply_capture(image, _draw_capture(rng, image.shape[2:]))


def _rows(stack: Tensor, count: int) -> List[Tensor]:
    """Each of ``count`` instances' ``(1, C, k, k)`` row of a transformed
    stack; a stack that no θ moved is the shared source itself."""
    if stack.shape[0] == 1:
        return [stack] * count
    return [stack[i:i + 1] for i in range(count)]


def _composite_batch(
    frames: Sequence[TrainingFrame],
    patch: Tensor,
    pipeline: EOTPipeline,
    rng: np.random.Generator,
    capture_probability: float = 0.5,
) -> Tuple[Tensor, List[np.ndarray]]:
    """EOT-transform and paste the patch into every frame (differentiable).

    One decal instance is sampled per placement (alpha from the *pre-print*
    patch so gamut compression cannot erase the silhouette), then a
    ``capture_probability`` fraction of composites pass through the
    differentiable capture-EOT so the decal works on what the camera
    actually records, not on ideal pixels.

    A draw pass takes the random numbers first, in the order the step has
    always taken them: per frame, each placement's θ, then the capture
    coin and, when it lands, the capture draws. That per-frame unit is what
    both schedules share: the legacy batched step walks one rng across
    frames, the parallel engine calls this with one frame and its own
    derived stream (DESIGN.md §10). The compute pass never reads ``rng``
    (DESIGN.md §17): the patch passes through the printer response
    (printability-by-design, §II-B) and the soft background mask once,
    each geometric trick warps all frames × placements instances' ink in
    one ``grid_sample`` and their alpha in another, and each frame takes
    its instances' rows of the two stacks. The composites are stacked
    into one batch for a *single* batched detector forward. ``patch`` is
    the one deployment patch, ``(1, C, k, k)``.
    """
    from ..eot.transforms import print_response

    if patch.shape[0] != 1:
        raise ValueError(f"the attack step composites one patch, got a batch of "
                         f"{patch.shape[0]}")
    draws = []
    for frame in frames:
        params = [pipeline.sampler.sample(rng) for _ in frame.placements]
        capture = (_draw_capture(rng, frame.image.shape[1:])
                   if rng.random() < capture_probability else None)
        draws.append((params, capture))

    instances = [p for params, _ in draws for p in params]
    inks = _rows(pipeline.transform(print_response(patch), instances), len(instances))
    alphas = _rows(pipeline.transform(soft_background_mask(patch), instances, alpha=True),
                   len(instances))
    composited = []
    stop = 0
    for frame, (params, capture) in zip(frames, draws):
        start, stop = stop, stop + len(params)
        image = apply_patches(frame.image, inks[start:stop], alphas[start:stop],
                              frame.placements)
        if capture is not None:
            image = _apply_capture(image, capture)
        composited.append(image)
    boxes = [frame.target_box_xywh for frame in frames]
    return concatenate(composited, axis=0), boxes


def _batch_frame_indices(
    pool_size: int,
    config: AttackConfig,
    rng: np.random.Generator,
) -> List[int]:
    """Draw the frame indices of one training batch.

    Whole consecutive runs when configured (the paper's dynamic-attack
    ingredient); clamped to the pool so a small pool yields a smaller
    batch instead of crashing ``rng.choice`` with an impossible
    no-replacement request. Split from :func:`_batch_frames` so the
    parallel engine can draw indices (one ``rng.choice`` call, identical
    stream consumption) and ship them to workers without the frames.
    """
    if pool_size == 0:
        raise ValueError("training-frame pool is empty")
    if config.consecutive:
        runs = pool_size // config.group
        if runs == 0:
            raise ValueError(
                f"pool of {pool_size} frames holds no complete run of "
                f"{config.group} consecutive frames"
            )
        chosen = rng.choice(
            runs, size=min(config.batch_frames // config.group, runs), replace=False
        )
        indices: List[int] = []
        for run in chosen:
            indices.extend(range(run * config.group, (run + 1) * config.group))
        return indices
    chosen = rng.choice(
        pool_size, size=min(config.batch_frames, pool_size), replace=False
    )
    return [int(i) for i in chosen]


def _batch_frames(
    pool: Sequence[TrainingFrame],
    config: AttackConfig,
    rng: np.random.Generator,
) -> List[TrainingFrame]:
    """Materialize one training batch from the pre-rendered frame pool.

    The batch feeds a single batched detector forward (see
    :func:`_composite_batch`), not a per-frame loop.
    """
    return [pool[i] for i in _batch_frame_indices(len(pool), config, rng)]


def train_patch_attack(
    model: TinyYolo,
    scenario: AttackScenario,
    config: Optional[AttackConfig] = None,
    log: Optional[TrainLog] = None,
    runtime: Optional[RuntimeConfig] = None,
    obs: Optional[Run] = None,
    live=None,
) -> AttackResult:
    """Train the paper's decal attack against a frozen detector.

    Returns the deployment-ready :class:`AttackResult`. The detector's
    parameters are not modified (white-box access means gradients flow
    *through* it, not *into* it).

    ``runtime`` controls fault tolerance (DESIGN.md §7): with a
    ``checkpoint_path`` the loop snapshots generator/discriminator/
    optimizer/RNG state periodically and resumes bit-for-bit from the last
    snapshot after a crash; with or without one, a non-finite loss or an
    exploding gradient rolls the run back to the last good snapshot, cuts
    the learning rate, reseeds the batch stream and retries (bounded),
    instead of aborting with ``FloatingPointError``.

    ``obs`` attaches the whole attack to a run (DESIGN.md §9): an
    ``attack.train`` span with warm-up / frame-pool / step-loop children,
    loss gauges from the log, and guard/recovery counters, so one trace
    covers GAN warm-up through the final patch. ``obs=None`` is free.

    ``config.workers`` selects the EOT fan-out schedule (DESIGN.md §10):
    ``None`` keeps the legacy batched generator step; ``0`` runs the
    per-sample parallel-engine schedule serially in-process (the
    bit-identity oracle); ``n >= 1`` fans the EOT samples out over ``n``
    worker processes — every ``workers >= 0`` value produces byte-equal
    parameter updates. With ``obs``, the engine stages (broadcast /
    dispatch / collect / reduce) are ``attack.parallel.*`` spans.

    ``live`` (a :class:`repro.obs.TrainTelemetry`, DESIGN.md §14) attaches
    the step loop to the live sampler: steps/s, loss and grad-norm gauges,
    checkpoint age, divergence-guard state, and worker-pool health become
    pollable mid-run and land in ``train_live.json`` every tick. The
    trainer only *registers* probes and updates its ledger — the caller
    owns ``live.start()``/``stop()``. ``live=None`` is free, and the
    ledger writes are plain float stores: a telemetered run is bit-identical
    to an untelemetered one.
    """
    config = config or AttackConfig()
    log = log or TrainLog("attack")
    if obs is not None:
        log.bind_metrics(obs.metrics, prefix="attack")
    if config.target_class not in CLASS_NAMES:
        raise ValueError(f"unknown target class {config.target_class!r}")
    target_label = CLASS_NAMES.index(config.target_class)
    if scenario.target_class != config.victim_class:
        raise ValueError(
            f"scenario target {scenario.target_class!r} != config victim "
            f"{config.victim_class!r}"
        )

    rng = np.random.default_rng(derive_seed(config.seed, "attack"))
    model.eval()
    # Freeze the victim: gradients flow *through* the detector (white-box
    # access) but never *into* it. Restored on exit so a caller can keep
    # fine-tuning the detector afterwards.
    with model.frozen(), span_scope(obs, "attack.train", steps=config.steps,
                                    seed=config.seed, target=config.target_class,
                                    n_patches=config.n_patches,
                                    workers=config.workers):
        return _train_with_frozen_detector(
            model, scenario, config, log, rng, target_label, runtime, obs,
            live,
        )


def _train_with_frozen_detector(
    model: TinyYolo,
    scenario: AttackScenario,
    config: AttackConfig,
    log: TrainLog,
    rng: np.random.Generator,
    target_label: int,
    runtime: Optional[RuntimeConfig] = None,
    obs: Optional[Run] = None,
    live=None,
) -> AttackResult:
    runtime = runtime or RuntimeConfig()
    manager = runtime.manager()
    guard = DivergenceGuard(runtime.guard,
                            metrics=obs.metrics if obs is not None else None)
    ledger = None
    if live is not None:
        ledger = live.attach("attack", config.steps)
        live.ensure_probe("train.attack.guard", guard.probe)
        live.register_host_probes()
    generator = PatchGenerator(config.k, latent_dim=config.latent_dim,
                               seed=derive_seed(config.seed, "gen"))
    discriminator = PatchDiscriminator(config.k, seed=derive_seed(config.seed, "disc"))

    # A persisted snapshot supersedes warm-up: it already contains the
    # post-warm-up (and partially attacked) weights.
    resumed = manager.load()

    # Phase 1: warm-up so G starts on the shape manifold.
    if resumed is None and config.warmup_steps > 0:
        with span_scope(obs, "attack.warmup", steps=config.warmup_steps):
            train_gan(
                generator,
                discriminator,
                config.shape,
                GanTrainConfig(
                    steps=config.warmup_steps,
                    batch_size=config.gan_batch,
                    learning_rate=config.learning_rate,
                    seed=derive_seed(config.seed, "warmup"),
                    workers=config.workers,
                ),
                obs=obs,
                live=live,
            )

    # Pre-render the training-frame pool (the paper's scene photographs).
    world_size = patch_world_size(
        config.k,
        n_patches=config.n_patches,
        constant_total_area=config.constant_total_area,
    )
    offsets = placement_offsets(config.n_patches)
    with span_scope(obs, "attack.frame_pool", frames=config.frame_pool):
        pool = sample_training_frames(
            scenario,
            np.random.default_rng(derive_seed(config.seed, "frames")),
            config.frame_pool,
            offsets,
            world_size,
            consecutive=config.consecutive,
            group=config.group,
            style_seeds=config.universal_styles or None,
        )

    pipeline = EOTPipeline.with_tricks(config.tricks)
    g_optimizer = Adam(generator.parameters(), lr=config.learning_rate)
    d_optimizer = Adam(discriminator.parameters(), lr=config.learning_rate)
    generator.train()
    discriminator.train()

    # The deployment latent: the attack term always optimizes this patch.
    z_deploy = generator.sample_latent(1, np.random.default_rng(derive_seed(config.seed, "z")))

    evaluator = None
    if config.workers is not None:
        from ..parallel import ParallelEvaluator, WorkSpec
        from .parallel_step import (
            AttackWorkerPayload,
            attack_slab_specs,
            attack_worker_init,
            attack_worker_step,
        )

        param_specs, grad_specs = attack_slab_specs(config.k)
        payload = AttackWorkerPayload(
            detector_config=model.config,
            detector_state=model.state_dict(),
            frames=tuple(pool),
            tricks=tuple(sorted(config.tricks)),
            target_label=target_label,
            objectness_weight=config.objectness_weight,
            targeted=config.targeted,
            capture_probability=config.capture_probability,
            seed=config.seed,
        )
        evaluator = ParallelEvaluator(
            WorkSpec(init_fn=attack_worker_init, work_fn=attack_worker_step,
                     init_payload=payload, param_specs=param_specs,
                     grad_specs=grad_specs, max_samples=config.batch_frames),
            config.workers, obs=obs, name="attack.parallel",
        )
        if live is not None:
            live.ensure_probe("train.attack.pool", evaluator.probe)
    # Extra EOT-stream epoch (engine schedule): bumped on divergence
    # recovery so retries draw fresh per-sample streams; checkpointed for
    # bit-exact resume.
    eot_epoch = [0]

    # -- fault-tolerant step loop ------------------------------------------
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
    if resumed is not None:
        restore(resumed)
        start_step = resumed.step
        log.event(start_step, "checkpoint_restore", path=manager.path)
    last_good: List[TrainingCheckpoint] = []  # single-slot rollback cell

    def run_steps(start: int) -> None:
        for step in range(start, config.steps):
            if manager.due(step) or not last_good:
                checkpoint = snapshot(step)
                last_good[:] = [checkpoint]
                manager.save(checkpoint)
                if ledger is not None:
                    ledger.checkpoint_saved()

            # -- discriminator --------------------------------------------
            real = sample_batch(config.shape, config.k, config.gan_batch, rng)
            z_noise = generator.sample_latent(config.gan_batch, rng)
            fake = generator(Tensor(z_noise))
            d_loss = discriminator_loss(
                discriminator(Tensor(real)), discriminator(fake.detach())
            )
            guard.check(step, d_loss=float(d_loss.data))
            d_optimizer.zero_grad()
            d_loss.backward()
            d_grad_norm = clip_grad_norm(discriminator.parameters(), config.grad_clip)
            guard.check(step, d_grad_norm=d_grad_norm)
            d_optimizer.step()

            # -- generator: adversarial + α · attack -----------------------
            # The discriminator's weight gradients would go unread (the next
            # D step zeroes them), so it is frozen from this forward through
            # the backward.
            with discriminator.frozen():
                fake = generator(Tensor(z_noise))
                adv = generator_adversarial_loss(discriminator(fake))

                patch = generator(Tensor(z_deploy))
                if evaluator is not None:
                    # Engine schedule: the deployment patch is broadcast
                    # once through the parameter slab; every EOT sample
                    # (transform → composite → frozen-detector forward → L_f
                    # → patch grad) evaluates independently under its own
                    # derived stream, and the per-sample gradients come back
                    # through the gradient slab to be summed in fixed tree
                    # order.
                    indices = _batch_frame_indices(len(pool), config, rng)
                    n_samples = len(indices)
                    tasks = [
                        {"step": step, "epoch": eot_epoch[0],
                         "samples": [(i, frame_index)]}
                        for i, frame_index in enumerate(indices)
                    ]
                    out = evaluator.evaluate(
                        {"patch": np.ascontiguousarray(patch.data,
                                                       dtype=np.float32)},
                        tasks, n_samples, ["patch"],
                    )
                    reduced = evaluator.reduce_grads(out)["patch"]
                    mean_scale = np.float32(1.0 / n_samples)
                    attack_value = float(evaluator.reduce(
                        [np.float32(s["loss"]) for s in out.scalars])
                        * mean_scale)
                    g_loss_value = float(adv.data) + config.alpha * attack_value
                    guard.check(step, g_loss=g_loss_value)
                    g_optimizer.zero_grad()
                    adv.backward()
                    # d(α · mean loss)/d(patch) seeds the generator
                    # backward.
                    patch.backward(reduced
                                   * np.float32(config.alpha / n_samples))
                    n_frames = n_samples
                else:
                    frames = _batch_frames(pool, config, rng)
                    images, boxes = _composite_batch(
                        frames, patch, pipeline, rng,
                        capture_probability=config.capture_probability,
                    )
                    outputs = model(images)
                    attack = attack_loss(outputs, boxes, model, target_label,
                                         config.objectness_weight,
                                         targeted=config.targeted)

                    g_loss = adv + config.alpha * attack
                    attack_value = float(attack.data)
                    g_loss_value = float(g_loss.data)
                    guard.check(step, g_loss=g_loss_value)
                    g_optimizer.zero_grad()
                    g_loss.backward()
                    n_frames = len(frames)
            g_grad_norm = clip_grad_norm(generator.parameters(), config.grad_clip)
            guard.check(step, g_grad_norm=g_grad_norm)
            g_optimizer.step()
            if obs is not None:
                obs.metrics.counter("attack.steps_run").inc()
                obs.metrics.counter("attack.frames_composited").inc(n_frames)
            if ledger is not None:
                ledger.step(step, loss=g_loss_value, grad_norm=g_grad_norm,
                            d_loss=float(d_loss.data), d_grad_norm=d_grad_norm,
                            attack=attack_value, lr=g_optimizer.lr)
                ledger.set_epoch(eot_epoch[0])

            if step % 10 == 0 or step == config.steps - 1:
                log.log(step, d_loss=float(d_loss.data), adv=float(adv.data),
                        attack=attack_value, g_loss=g_loss_value,
                        d_grad_norm=d_grad_norm, g_grad_norm=g_grad_norm,
                        lr=g_optimizer.lr)

    def on_divergence(attempt_index: int, err) -> None:
        # Roll back, cut the learning rate, reseed the batch stream so the
        # retry explores a different trajectory from the last good state.
        checkpoint = last_good[0]
        restore(checkpoint)
        g_optimizer.lr = max(g_optimizer.lr * runtime.guard.lr_decay,
                             runtime.guard.min_lr)
        d_optimizer.lr = max(d_optimizer.lr * runtime.guard.lr_decay,
                             runtime.guard.min_lr)
        restore_rng(rng, capture_rng(np.random.default_rng(
            derive_seed(config.seed, "attack-retry", attempt_index))))
        # Engine mode draws per-sample streams from (seed, epoch, step, i)
        # rather than the batch rng, so retries advance the epoch instead.
        eot_epoch[0] += 1
        # Re-snapshot so a crash after recovery resumes with the cut LR
        # and the reseeded stream.
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
        with span_scope(obs, "attack.steps", steps=config.steps,
                        start_step=start_step):
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

    if ledger is not None:
        ledger.finish()
    generator.eval()
    discriminator.eval()
    final_patch = generator(Tensor(z_deploy)).data[0]
    alpha = hard_background_mask(final_patch)
    return AttackResult(
        patch=final_patch.astype(np.float32),
        alpha=alpha,
        config=config,
        history=log,
        world_size_m=world_size,
    )
