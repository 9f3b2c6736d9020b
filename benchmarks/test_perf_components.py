"""Component performance benchmarks.

Not a paper table — these quantify the cost of each pipeline stage on the
numpy stack so profile regressions are visible: detector inference, the
differentiable EOT chain, one attack step's composite, frozen-detector
input gradient and GAN steps, patch compositing, scene rendering and the
physical degradation models.
"""

import numpy as np
import pytest

from repro.attack.config import AttackConfig
from repro.attack.trainer import _composite_batch
from repro.detection import TinyYolo, detections_from_outputs, reduced_config
from repro.eot import EOTPipeline
from repro.gan import PatchDiscriminator, PatchGenerator
from repro.gan.losses import discriminator_loss, generator_adversarial_loss
from repro.nn import Adam, Tensor, clip_grad_norm, no_grad
from repro.patch import (
    apply_patches,
    patch_world_size,
    placement_offsets,
    shape_image,
    soft_background_mask,
)
from repro.patch.apply import PixelPlacement
from repro.patch.shapes import sample_batch
from repro.scene import (
    AttackScenario,
    Camera,
    DeployedDecals,
    RoadScene,
    SceneObject,
    camera_degrade,
    challenge_trajectory,
    print_patch,
    render_run,
    render_scene,
)
from repro.scene.video import sample_training_frames


@pytest.fixture(scope="module")
def model():
    return TinyYolo(reduced_config(input_size=96, width_multiplier=0.25), seed=0)


def test_detector_forward(model, benchmark):
    image = Tensor(np.random.default_rng(0).random((1, 3, 96, 96)).astype(np.float32))

    def run():
        with no_grad():
            return model(image)

    benchmark(run)


def test_detector_inference_with_nms(model, benchmark):
    image = Tensor(np.random.default_rng(0).random((1, 3, 96, 96)).astype(np.float32))

    def run():
        with no_grad():
            outputs = model(image)
        return detections_from_outputs(outputs, model.config, conf_threshold=0.1)

    benchmark(run)


def test_detector_backward(model, benchmark):
    def run():
        image = Tensor(
            np.random.default_rng(0).random((1, 3, 96, 96)).astype(np.float32),
            requires_grad=True,
        )
        coarse, fine = model(image)
        (coarse.sum() + fine.sum()).backward()
        return image.grad

    benchmark(run)


def test_frozen_detector_input_gradient(benchmark):
    """The detector half of the attack step's backward: batch 6, 96²,
    eval mode, parameters frozen, input gradient only."""
    model = TinyYolo(reduced_config(input_size=96, width_multiplier=0.25),
                     seed=0).eval()
    images = np.random.default_rng(0).random((6, 3, 96, 96), dtype=np.float32)

    def run():
        image = Tensor(images, requires_grad=True)
        coarse, fine = model(image)
        (coarse.sum() + fine.sum()).backward()
        return image.grad

    with model.frozen():
        benchmark(run)


def test_eot_chain(benchmark):
    pipeline = EOTPipeline.with_tricks(
        frozenset({"resize", "rotation", "gamma", "perspective"})
    )
    patch = Tensor(shape_image("star", 60)[None], requires_grad=True)
    rng = np.random.default_rng(0)
    benchmark(lambda: pipeline.sample_and_apply(patch, rng))


def test_attack_step_composite(benchmark):
    """One attack step's EOT + compositing at paper defaults, forward and
    backward: 6 frames × 4 decals, k = 60, 96² frames."""
    config = AttackConfig()
    frames = sample_training_frames(
        AttackScenario(), np.random.default_rng(0), config.batch_frames,
        placement_offsets(config.n_patches),
        patch_world_size(config.k, n_patches=config.n_patches), group=config.group)
    pipeline = EOTPipeline.with_tricks(config.tricks)
    shape = shape_image("star", config.k)[None]
    rng = np.random.default_rng(1)

    def run():
        patch = Tensor(shape, requires_grad=True)
        images, _ = _composite_batch(frames, patch, pipeline, rng,
                                     config.capture_probability)
        images.sum().backward()
        return patch.grad

    benchmark(run)


def test_gan_step(benchmark):
    """One D step and one G step as ``train_gan`` runs them at paper
    defaults (batch 18, k = 60), the discriminator frozen in the G step."""
    config = AttackConfig()
    generator = PatchGenerator(config.k, latent_dim=config.latent_dim)
    discriminator = PatchDiscriminator(config.k)
    g_optimizer = Adam(generator.parameters(), lr=config.learning_rate)
    d_optimizer = Adam(discriminator.parameters(), lr=config.learning_rate)
    rng = np.random.default_rng(0)
    real = Tensor(sample_batch(config.shape, config.k, config.gan_batch, rng))
    z = Tensor(generator.sample_latent(config.gan_batch, rng))

    def run():
        d_loss = discriminator_loss(discriminator(real),
                                    discriminator(generator(z).detach()))
        d_optimizer.zero_grad()
        d_loss.backward()
        clip_grad_norm(discriminator.parameters(), config.grad_clip)
        d_optimizer.step()
        with discriminator.frozen():
            g_loss = generator_adversarial_loss(discriminator(generator(z)))
            g_optimizer.zero_grad()
            g_loss.backward()
        clip_grad_norm(generator.parameters(), config.grad_clip)
        g_optimizer.step()

    benchmark(run)


def test_patch_compositing(benchmark):
    frame = np.full((3, 96, 96), 0.4, dtype=np.float32)
    patch = Tensor(shape_image("star", 60)[None], requires_grad=True)
    alpha = soft_background_mask(patch)
    placements = [PixelPlacement(60 + i, 30 + 10 * i, 14, height_px=10)
                  for i in range(4)]
    benchmark(lambda: apply_patches(frame, [patch] * 4, [alpha] * 4, placements))


def test_scene_rendering(benchmark):
    camera = Camera(image_size=96)
    scene = RoadScene(objects=[SceneObject("mark", z=7.0)])
    rng = np.random.default_rng(0)
    benchmark(lambda: render_scene(scene, camera, rng))


def test_render_run(benchmark):
    """One physical, decal-bearing speed/slow video: render_run's stacked
    background, decals and capture model."""
    rng = np.random.default_rng(0)
    shape = shape_image("star", 60)
    decals = DeployedDecals(
        patch_rgb=print_patch(np.repeat(shape, 3, axis=0), rng),
        alpha=1.0 - shape[0],
        world_size_m=patch_world_size(60),
        offsets=placement_offsets(4),
    )
    poses = challenge_trajectory("speed/slow")
    scenario = AttackScenario()
    benchmark(lambda: render_run(scenario, poses, rng, decals=decals, physical=True))


def test_print_model(benchmark):
    patch = np.random.default_rng(0).random((3, 60, 60)).astype(np.float32)
    rng = np.random.default_rng(1)
    benchmark(lambda: print_patch(patch, rng))


def test_capture_model(benchmark):
    frame = np.random.default_rng(0).random((3, 96, 96)).astype(np.float32)
    rng = np.random.default_rng(1)
    benchmark(lambda: camera_degrade(frame, rng, speed_kmh=25.0))
