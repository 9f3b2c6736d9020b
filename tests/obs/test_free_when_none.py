"""The ``obs=None`` contract of every instrumented entry point, in one place.

Without a run an entry point must not touch the tracer or the metrics
registry at all; with a :class:`~repro.obs.Run` it must compute exactly
what it computes without one. The span tree a run records also yields the
pipeline's stage table.
"""

import contextlib
import functools
from unittest import mock

import numpy as np
import pytest

from repro.attack.config import AttackConfig
from repro.attack.trainer import train_patch_attack
from repro.av import AvPipeline
from repro.detection import TinyYolo, batched_detections, reduced_config
from repro.eval.protocol import run_challenge
from repro.gan import GanTrainConfig, PatchDiscriminator, PatchGenerator, train_gan
from repro.obs import Metrics, Run, Tracer, load_trace, stage_table
from repro.scene.video import AttackScenario

pytestmark = pytest.mark.obs

TINY_ATTACK = dict(steps=2, warmup_steps=1, batch_frames=3, frame_pool=3,
                   gan_batch=4, k=20)

#: Everything an instrumented path may call only when a run is attached.
INSTRUMENTATION = ((Tracer, "span"), (Tracer, "add"), (Metrics, "counter"),
                   (Metrics, "gauge"), (Metrics, "histogram"))


def _detector():
    return TinyYolo(reduced_config(input_size=64, width_multiplier=0.25),
                    seed=0)


def _frames(n=6):
    rng = np.random.default_rng(0)
    return [rng.random((3, 64, 64)).astype(np.float32) for _ in range(n)]


def _detection_bytes(per_frame):
    return [None if detections is None else
            [(d.box_xyxy.tobytes(), d.score, d.class_id,
              d.class_probs.tobytes()) for d in detections]
            for detections in per_frame]


def _batched_detections(obs):
    images = _frames()
    images[2] = None  # one dropped frame
    return _detection_bytes(batched_detections(
        _detector(), images, conf_threshold=0.001, batch_size=4, obs=obs))


def _pipeline_run(obs):
    traces = AvPipeline(_detector(), conf_threshold=0.001).run(
        _frames(), batch_size=4, obs=obs)
    return ([trace.decision.action for trace in traces],
            _detection_bytes([trace.detections for trace in traces]))


def _run_challenge(obs):
    result = run_challenge(_detector(), AttackScenario(image_size=64),
                           "rotation/fix", n_runs=1, seed=0, obs=obs)
    return result.pwc, result.cwc


def _train_gan(obs):
    generator = PatchGenerator(patch_size=16, latent_dim=8, base_channels=8,
                               seed=3)
    discriminator = PatchDiscriminator(patch_size=16, seed=4)
    train_gan(generator, discriminator, "star",
              GanTrainConfig(steps=2, batch_size=4, workers=0), obs=obs)
    return [np.asarray(value).tobytes()
            for module in (generator, discriminator)
            for value in module.state_dict().values()]


def _train_patch_attack(obs):
    result = train_patch_attack(_detector(), AttackScenario(image_size=64),
                                AttackConfig(**TINY_ATTACK), obs=obs)
    return result.patch.tobytes()


ENTRY_POINTS = {
    "batched_detections": _batched_detections,
    "pipeline_run": _pipeline_run,
    "run_challenge": _run_challenge,
    "train_gan": _train_gan,
    "train_patch_attack": _train_patch_attack,
}


def _refuse(*args, **kwargs):
    raise AssertionError("instrumentation touched with obs=None")


@functools.lru_cache(maxsize=None)
def outputs_without_obs(name):
    """The entry point's output with ``obs=None``, computed while every
    tracer and metrics call raises."""
    with contextlib.ExitStack() as patches:
        for owner, attr in INSTRUMENTATION:
            patches.enter_context(mock.patch.object(owner, attr, _refuse))
        return ENTRY_POINTS[name](None)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_none_touches_no_instrumentation(name):
    assert outputs_without_obs(name) is not None


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_run_leaves_outputs_byte_equal(name, tmp_path):
    with Run(str(tmp_path / "run")) as run:
        traced = ENTRY_POINTS[name](run)
    assert load_trace(run.trace_path), "the run recorded no spans"
    assert traced == outputs_without_obs(name)


def test_stage_table_of_one_pipeline_run(tmp_path):
    with Run(str(tmp_path / "run")) as run:
        AvPipeline(_detector(), conf_threshold=0.001).run(
            _frames(6), batch_size=4, obs=run)
    spans = load_trace(run.trace_path)
    table = stage_table(spans)
    (root,) = [span for span in spans if span.parent_id is None]
    assert root.name == "pipeline.run"
    assert (sum(row["self_s"] for row in table.values())
            == pytest.approx(root.duration_s(), rel=1e-9, abs=1e-12))
    assert sum(row["share"] for row in table.values()) == pytest.approx(1.0)
    assert table["detect.forward"]["calls"] == 2  # batches
    assert table["detect.forward"]["items"] == 6  # frames
    assert set(table) == {"pipeline.run", "detect.batched", "detect.forward",
                          "detect.decode", "detect.nms", "pipeline.confirm"}
