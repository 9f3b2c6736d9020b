"""GAN components: generator, discriminator, losses, short training."""

import numpy as np
import pytest

from repro.gan import (
    GanTrainConfig,
    PatchDiscriminator,
    PatchGenerator,
    discriminator_loss,
    generator_adversarial_loss,
    train_gan,
)
from repro.nn import Tensor
from repro.nn.serialization import state_digest

#: ``named_parameters()`` order. It fixes the seeded init draws and the
#: ``gen.`` keys of every GAN and attack checkpoint, so it must never change.
GENERATOR_PARAMETER_ORDER = (
    "project.weight", "project.bias",
    "block1.conv.weight", "block1.bn.gamma", "block1.bn.beta",
    "block2.conv.weight", "block2.bn.gamma", "block2.bn.beta",
    "to_image.weight", "to_image.bias",
)


class TestGenerator:
    def test_output_shape_and_range(self, rng):
        gen = PatchGenerator(patch_size=24, latent_dim=16)
        z = gen.sample_latent(3, rng)
        out = gen(Tensor(z))
        assert out.shape == (3, 1, 24, 24)
        assert ((out.data >= 0) & (out.data <= 1)).all()

    @pytest.mark.parametrize("k", [20, 40, 60, 80])
    def test_paper_patch_sizes_supported(self, k, rng):
        gen = PatchGenerator(patch_size=k, latent_dim=8, base_channels=8)
        out = gen(Tensor(gen.sample_latent(1, rng)))
        assert out.shape == (1, 1, k, k)

    def test_too_small_patch_rejected(self):
        with pytest.raises(ValueError):
            PatchGenerator(patch_size=4)

    def test_wrong_latent_dim_rejected(self, rng):
        gen = PatchGenerator(patch_size=16, latent_dim=8)
        with pytest.raises(ValueError):
            gen(Tensor(rng.normal(size=(1, 9)).astype(np.float32)))

    def test_different_latents_different_patches(self, rng):
        gen = PatchGenerator(patch_size=16, latent_dim=8)
        z = gen.sample_latent(2, rng)
        out = gen(Tensor(z)).data
        assert not np.allclose(out[0], out[1])

    @pytest.mark.parametrize("k, seed, digest", [
        (60, 0, "cf45fc5aa1c01e4cc3941322cf620666625dba83bfb1a42d87e1b7a777e9e1d6"),
        (20, 7, "72e29ae2a53740e2e3cf425b3f0f8f72ae424ee1f7093734debaff6a8208294d"),
    ])
    def test_seeded_construction_is_pinned(self, k, seed, digest):
        gen = PatchGenerator(k, seed=seed)
        assert tuple(name for name, _ in gen.named_parameters()) == GENERATOR_PARAMETER_ORDER
        assert state_digest(gen.state_dict()) == digest

    def test_gradients_reach_all_parameters(self, rng):
        gen = PatchGenerator(patch_size=16, latent_dim=8)
        out = gen(Tensor(gen.sample_latent(2, rng)))
        out.mean().backward()
        missing = [n for n, p in gen.named_parameters() if p.grad is None]
        assert not missing


class TestDiscriminator:
    def test_logit_shape(self, rng):
        disc = PatchDiscriminator(patch_size=24)
        out = disc(Tensor(rng.random((5, 1, 24, 24)).astype(np.float32)))
        assert out.shape == (5, 1)

    def test_wrong_input_shape_rejected(self, rng):
        disc = PatchDiscriminator(patch_size=24)
        with pytest.raises(ValueError):
            disc(Tensor(rng.random((1, 3, 24, 24)).astype(np.float32)))


class TestLosses:
    def test_perfect_discriminator_low_loss(self):
        real = Tensor(np.full((4, 1), 10.0, dtype=np.float32))
        fake = Tensor(np.full((4, 1), -10.0, dtype=np.float32))
        assert float(discriminator_loss(real, fake).data) < 1e-3

    def test_fooled_discriminator_low_generator_loss(self):
        fake = Tensor(np.full((4, 1), 10.0, dtype=np.float32))
        assert float(generator_adversarial_loss(fake).data) < 1e-3

    def test_chance_level_loss(self):
        logits = Tensor(np.zeros((4, 1), dtype=np.float32))
        assert float(discriminator_loss(logits, logits).data) == pytest.approx(
            2 * np.log(2), rel=1e-3
        )


class TestTraining:
    def test_short_training_moves_toward_shape(self):
        gen = PatchGenerator(patch_size=20, latent_dim=8, base_channels=16, seed=3)
        disc = PatchDiscriminator(patch_size=20, seed=4)
        before = gen(Tensor(gen.sample_latent(4, np.random.default_rng(0)))).data
        log = train_gan(gen, disc, "star",
                        GanTrainConfig(steps=25, batch_size=8, learning_rate=1e-3))
        after = gen(Tensor(gen.sample_latent(4, np.random.default_rng(0)))).data
        assert not np.allclose(before, after)
        # Shape samples are bimodal (ink vs background): trained output
        # should increase contrast versus the near-uniform init.
        assert after.std() > before.std()

    def test_training_logs_both_losses(self):
        gen = PatchGenerator(patch_size=16, latent_dim=8, base_channels=8)
        disc = PatchDiscriminator(patch_size=16)
        log = train_gan(gen, disc, "circle", GanTrainConfig(steps=5, batch_size=4))
        assert log.series("d_loss")
        assert log.series("g_loss")

    def test_modules_left_in_eval_mode(self):
        gen = PatchGenerator(patch_size=16, latent_dim=8, base_channels=8)
        disc = PatchDiscriminator(patch_size=16)
        train_gan(gen, disc, "square", GanTrainConfig(steps=2, batch_size=4))
        assert not gen.training
        assert not disc.training
