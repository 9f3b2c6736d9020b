"""The generator step runs with the discriminator frozen.

Both trainers' G steps (and the GAN engine's G phase) take no
discriminator weight gradients: the next D step would zero them unread.
The freeze must end with the step, also when the divergence guard raises
inside it, so the discriminator keeps training.
"""

import numpy as np
import pytest

import repro.attack.trainer as attack_trainer
import repro.gan.trainer as gan_trainer
from repro.attack.config import AttackConfig
from repro.detection.config import reduced_config
from repro.detection.model import TinyYolo
from repro.gan.discriminator import PatchDiscriminator
from repro.gan.generator import PatchGenerator
from repro.gan.parallel_step import (
    GanWorkerPayload,
    gan_worker_init,
    gan_worker_step,
)
from repro.nn import Adam, Tensor
from repro.scene.video import AttackScenario
from repro.utils.logging import TrainLog


class Spy:
    """Patches a trainer module's ``Adam`` and ``PatchDiscriminator`` to
    record, at every optimizer step, each discriminator parameter's
    ``requires_grad``, ``.grad`` and data, and which optimizer stepped."""

    def __init__(self, monkeypatch, module):
        self.discriminators = []
        self.steps = []
        spy = self
        real_discriminator = module.PatchDiscriminator

        class SpyDiscriminator(real_discriminator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spy.discriminators.append(self)

        class SpyAdam(Adam):
            def step(self):
                params = spy.discriminators[-1].parameters()
                own = {id(p) for p in self.parameters}
                spy.steps.append({
                    "role": "d" if id(params[0]) in own else "g",
                    "flags": [p.requires_grad for p in params],
                    "grads": [None if p.grad is None else p.grad.copy()
                              for p in params],
                    "before": [p.data.copy() for p in params],
                })
                super().step()
                spy.steps[-1]["after"] = [p.data.copy() for p in params]

        monkeypatch.setattr(module, "PatchDiscriminator", SpyDiscriminator)
        monkeypatch.setattr(module, "Adam", SpyAdam)

    def pairs(self):
        """(D step, following G step) records."""
        roles = [step["role"] for step in self.steps]
        assert roles == ["d", "g"] * (len(roles) // 2), roles
        return list(zip(self.steps[::2], self.steps[1::2]))


def train_gan_spied(monkeypatch, workers, log=None):
    spy = Spy(monkeypatch, gan_trainer)
    generator = PatchGenerator(16, latent_dim=8, seed=3)
    discriminator = gan_trainer.PatchDiscriminator(16, seed=4)
    gan_trainer.train_gan(
        generator, discriminator, "star",
        gan_trainer.GanTrainConfig(steps=3, batch_size=4, seed=5,
                                   workers=workers),
        log=log)
    return spy


def train_attack_spied(monkeypatch, workers, log=None):
    spy = Spy(monkeypatch, attack_trainer)
    model = TinyYolo(reduced_config(input_size=64, width_multiplier=0.25),
                     seed=0)
    config = AttackConfig(steps=3, warmup_steps=1, batch_frames=3,
                          frame_pool=3, gan_batch=3, k=20, workers=workers)
    attack_trainer.train_patch_attack(model, AttackScenario(image_size=64),
                                      config, log=log)
    return spy


TRAINERS = {"gan": train_gan_spied, "attack": train_attack_spied}


@pytest.mark.parametrize("workers", [None, 0])
@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_g_step_leaves_the_d_step_gradient(monkeypatch, trainer, workers):
    spy = TRAINERS[trainer](monkeypatch, workers)
    pairs = spy.pairs()
    assert len(pairs) == 3
    for d_step, g_step in pairs:
        assert all(d_step["flags"]) and all(g_step["flags"])
        for d_grad, g_grad in zip(d_step["grads"], g_step["grads"]):
            assert d_grad is not None
            np.testing.assert_array_equal(g_grad, d_grad)


def test_engine_g_phase_takes_no_discriminator_gradient():
    payload = GanWorkerPayload(patch_size=16, latent_dim=8,
                               gen_base_channels=32, disc_base_channels=16,
                               shape="star", seed=5)
    ctx = gan_worker_init(payload)
    params = {"gen." + k: v for k, v in
              PatchGenerator(16, latent_dim=8, seed=3).state_dict().items()}
    params.update({"disc." + k: v for k, v in
                   PatchDiscriminator(16, seed=4).state_dict().items()})
    task = {"phase": "g", "step": 0, "epoch": 0, "samples": [(0, 0), (1, 1)]}
    rows = gan_worker_step(ctx, params, task)
    assert [sorted(grads) for _, grads, _ in rows] == [
        sorted("gen." + name for name, _ in ctx.generator.named_parameters())
    ] * 2
    for param in ctx.discriminator.parameters():
        assert param.requires_grad
        assert param.grad is None


@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_divergence_inside_the_g_step_leaves_d_trainable(monkeypatch,
                                                        trainer):
    module = gan_trainer if trainer == "gan" else attack_trainer
    real_loss = module.generator_adversarial_loss
    calls = {"n": 0}

    def nan_on_second_call(logits):
        calls["n"] += 1
        if calls["n"] == 2:
            return Tensor(float("nan"))
        return real_loss(logits)

    monkeypatch.setattr(module, "generator_adversarial_loss",
                        nan_on_second_call)
    log = TrainLog("recovered")
    spy = TRAINERS[trainer](monkeypatch, None, log=log)

    recoveries = log.events_of("divergence_recovery")
    assert len(recoveries) == 1
    assert "non-finite g_loss" in recoveries[0]["reason"]
    discriminator = spy.discriminators[-1]
    assert all(p.requires_grad for p in discriminator.parameters())
    # Steps 0 and 1 ran their D steps before step 1's G step diverged;
    # the retry starts again from step 0. Every D step of the retry still
    # has gradients and moves every parameter.
    d_steps = [step for step in spy.steps if step["role"] == "d"]
    assert len(d_steps) == 5
    for step in d_steps[2:]:
        assert all(step["flags"])
        assert all(grad is not None for grad in step["grads"])
        assert all(not np.array_equal(before, after) for before, after
                   in zip(step["before"], step["after"]))
