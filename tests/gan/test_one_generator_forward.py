"""One generator forward per GAN step (DESIGN.md §8).

The batched step of ``train_gan`` and both schedules of
``train_patch_attack`` run the generator once per step: the D step sees
that forward detached, the G step backpropagates through the same graph,
and ``nn.replay_running_update`` repeats each generator batch-norm
layer's running update where a second forward used to run.

The oracle is the two-forward step. It turns the replay into a no-op
and, at the G step's discriminator call on the D step's forward (the
first thing after the replay), runs a real second
``generator(Tensor(z))`` on the step's latents and hands its output to
the discriminator, so the G backward runs through the second forward's
graph. It does not depend on the trainer calling the replay at all.
Weights, running buffers, Adam states, losses and the trained patch
must match the oracle byte for byte, also through a divergence rollback
and a crash-resume.
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
from repro.nn import Adam, Tensor
from repro.runtime import RuntimeConfig
from repro.scene.video import AttackScenario
from repro.utils.logging import TrainLog

TRAINER_MODULES = {"gan": gan_trainer, "attack": attack_trainer}
LOSS_KEYS = ("d_loss", "g_loss", "d_grad_norm", "g_grad_norm", "adv", "attack",
             "lr")


class Harness:
    """Records what a run builds: the trainers' generators, the Adam
    optimizers of both trainer modules, and how often
    ``PatchGenerator.forward`` ran. With ``oracle=True`` it also puts the
    second forward back."""

    def __init__(self, monkeypatch, oracle: bool):
        self.generators, self.optimizers = [], []
        self.forwards = 0
        self.second_forwards = 0
        self.last = None            # (generator, z, output) of the latest forward
        harness = self
        forward = PatchGenerator.forward
        discriminator_forward = PatchDiscriminator.forward

        class RecordedGenerator(PatchGenerator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                harness.generators.append(self)

        class RecordedAdam(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                harness.optimizers.append(self)

        def recorded_forward(generator, z):
            harness.forwards += 1
            out = forward(generator, z)
            harness.last = (generator, z.data.copy(), out)
            return out

        monkeypatch.setattr(PatchGenerator, "forward", recorded_forward)
        monkeypatch.setattr(attack_trainer, "PatchGenerator", RecordedGenerator)
        for module in TRAINER_MODULES.values():
            monkeypatch.setattr(module, "Adam", RecordedAdam)
        if not oracle:
            return

        def two_forward_discriminator(discriminator, patch):
            generator, z, fake = harness.last or (None, None, None)
            # Only a trainer's G step hands the D step's forward itself
            # (not a detached copy) to the discriminator; the GAN
            # engine's phases run their own generator.
            if patch is fake and generator in harness.generators:
                patch = recorded_forward(generator, Tensor(z))
                assert patch.data.tobytes() == fake.data.tobytes()
                harness.second_forwards += 1
            return discriminator_forward(discriminator, patch)

        monkeypatch.setattr(PatchDiscriminator, "forward", two_forward_discriminator)
        for module in TRAINER_MODULES.values():
            monkeypatch.setattr(module, "replay_running_update", lambda _: None)


def prefixed(prefix, state):
    return {prefix + key: np.asarray(value).copy() for key, value in state.items()}


def logged(log):
    """The logged series, and how many divergence recoveries ran."""
    series = {"log." + key: np.asarray(log.series(key)) for key in LOSS_KEYS}
    series["recoveries"] = np.asarray(len(log.events_of("divergence_recovery")))
    return series


def run_gan(harness, workers=None, runtime=None):
    generator = PatchGenerator(16, latent_dim=8, seed=3)
    harness.generators.append(generator)
    discriminator = PatchDiscriminator(16, seed=4)
    log = TrainLog("gan")
    gan_trainer.train_gan(
        generator, discriminator, "star",
        gan_trainer.GanTrainConfig(steps=5, batch_size=4, seed=5, log_every=1,
                                   workers=workers),
        log=log, runtime=runtime)
    g_opt, d_opt = harness.optimizers[-2:]
    return {**prefixed("gen.", generator.state_dict()),
            **prefixed("disc.", discriminator.state_dict()),
            **prefixed("gopt.", g_opt.state_dict()),
            **prefixed("dopt.", d_opt.state_dict()),
            **logged(log)}


def run_attack(harness, workers=None, runtime=None):
    model = TinyYolo(reduced_config(input_size=64, width_multiplier=0.25),
                     seed=0)
    config = AttackConfig(steps=5, warmup_steps=2, batch_frames=3,
                          frame_pool=3, gan_batch=3, k=20, workers=workers)
    log = TrainLog("attack")
    result = attack_trainer.train_patch_attack(
        model, AttackScenario(image_size=64), config, log=log,
        runtime=runtime)
    g_opt, d_opt = harness.optimizers[-2:]
    return {"patch": result.patch, "alpha": result.alpha,
            **prefixed("gen.", harness.generators[-1].state_dict()),
            **prefixed("gopt.", g_opt.state_dict()),
            **prefixed("dopt.", d_opt.state_dict()),
            **logged(log)}


RUNS = {"gan": run_gan, "attack": run_attack}


def shipped_and_oracle(monkeypatch, run, inject=None, **kwargs):
    """Run ``run`` as shipped, then under the two-forward oracle, each
    with its own ``inject(patch)`` fault if one is given."""
    harnesses, results = [], []
    for oracle in (False, True):
        with monkeypatch.context() as patch:
            if inject is not None:
                inject(patch)
            harnesses.append(Harness(patch, oracle=oracle))
            results.append(run(harnesses[-1], **kwargs))
    return (*results, *harnesses)


def assert_same_bytes(got, want):
    assert sorted(got) == sorted(want)
    for key in want:
        a, b = np.asarray(got[key]), np.asarray(want[key])
        assert a.dtype == b.dtype and a.shape == b.shape, key
        assert a.tobytes() == b.tobytes(), key


def test_gan_batched_step_matches_two_forwards(monkeypatch):
    got, want, shipped, oracle = shipped_and_oracle(monkeypatch, run_gan)
    assert_same_bytes(got, want)
    assert any(key.endswith("running_var") for key in want)
    assert len(want["log.g_loss"]) == 5
    # One forward per step shipped, two in the oracle.
    assert (shipped.forwards, oracle.forwards, oracle.second_forwards) == (5, 10, 5)


@pytest.mark.parametrize("workers", [None, 0])
def test_attack_matches_two_forwards(monkeypatch, workers):
    got, want, shipped, oracle = shipped_and_oracle(monkeypatch, run_attack,
                                                    workers=workers)
    assert_same_bytes(got, want)
    # A second forward per attack step, and per warm-up step when the
    # warm-up runs the batched GAN step; the shipped run saves each one.
    assert oracle.second_forwards == 5 + (2 if workers is None else 0)
    assert oracle.forwards - shipped.forwards == oracle.second_forwards


def nan_on_call(module, name, call):
    """``inject`` hook: ``module.name`` returns a NaN loss on call ``call``
    (the pattern of ``test_discriminator_freeze``)."""
    def inject(patch):
        real = getattr(module, name)
        calls = {"n": 0}

        def injected(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == call:
                return Tensor(float("nan"))
            return real(*args, **kwargs)

        patch.setattr(module, name, injected)

    return inject


@pytest.mark.parametrize("loss", ["discriminator_loss",
                                  "generator_adversarial_loss"])
@pytest.mark.parametrize("trainer", sorted(RUNS))
def test_rollback_after_a_replayed_update(monkeypatch, trainer, loss):
    """A NaN loss at step 3 rolls back to the step-2 snapshot, whose
    running buffers hold the replayed updates of steps 0 and 1; in the G
    step the NaN comes after step 3's own replay."""
    module = TRAINER_MODULES[trainer]
    got, want, _, _ = shipped_and_oracle(
        monkeypatch, RUNS[trainer], inject=nan_on_call(module, loss, 4),
        runtime=RuntimeConfig(checkpoint_interval=2))
    assert int(got["recoveries"]) == 1
    assert_same_bytes(got, want)


@pytest.mark.parametrize("trainer", sorted(RUNS))
def test_crash_resume_matches_the_uninterrupted_oracle(monkeypatch, tmp_path,
                                                       trainer):
    """Crash in step 3's G step, after its replay, then resume from the
    step-2 checkpoint written by the replaying step."""
    module = TRAINER_MODULES[trainer]
    run = RUNS[trainer]
    ckpt = str(tmp_path / "run.ckpt.npz")
    real = module.generator_adversarial_loss
    calls = {"n": 0}

    def crashing(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 4:
            raise KeyboardInterrupt("simulated crash")
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(module, "generator_adversarial_loss", crashing)
        with pytest.raises(KeyboardInterrupt):
            run(Harness(patch, oracle=False),
                runtime=RuntimeConfig(checkpoint_path=ckpt,
                                      checkpoint_interval=2,
                                      keep_checkpoint=True))
    with monkeypatch.context() as patch:
        resumed = run(Harness(patch, oracle=False),
                      runtime=RuntimeConfig(checkpoint_path=ckpt,
                                            checkpoint_interval=2))
    with monkeypatch.context() as patch:
        want = run(Harness(patch, oracle=True))
    # The resumed log starts at the restored step: it must match the
    # oracle's tail. Everything else must match whole.
    series = [key for key in want if key.startswith("log.")]
    assert 0 < len(resumed["log.g_loss"]) < len(want["log.g_loss"])
    for key in series:
        assert resumed[key].tobytes() == want[key][-len(resumed[key]):].tobytes()
    assert_same_bytes({k: v for k, v in resumed.items() if k not in series},
                      {k: v for k, v in want.items() if k not in series})
