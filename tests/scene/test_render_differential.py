"""The stacked renderer against the per-frame oracle (``render_oracle``).

``render_run`` renders in chunks of ``RENDER_CHUNK`` poses: a draw pass
takes the chunk's random numbers in the per-frame order, then one compute
pass renders the stack. Every frame, box and label must come out
byte-identical to the frame-at-a-time renderer, and the generator must end
in the same state (DESIGN.md §16).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.patch import paste_patch_perspective, placement_offsets
from repro.patch.placement import Placement
from repro.scene import (
    AttackScenario,
    Camera,
    CaptureModel,
    DeployedDecals,
    RoadScene,
    SceneObject,
    SceneStyle,
    camera_degrade,
    render_frame,
    render_run,
    render_scene,
    rotate_image,
)
from repro.scene.physical import _illumination_field, _shadow_band
from repro.scene.road import cached_sprite
from repro.scene.trajectory import CHALLENGES, challenge_trajectory
from repro.scene.video import RENDER_CHUNK

from . import render_oracle as oracle


def assert_same_bytes(got, want, what):
    assert (got is None) == (want is None), what
    if want is None:
        return
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def assert_same_frames(got, want):
    assert len(got) == len(want)
    for index, (g, w) in enumerate(zip(got, want)):
        assert_same_bytes(g.image, w.image, f"frame {index} image")
        assert_same_bytes(g.truth.boxes_xywh, w.truth.boxes_xywh, f"frame {index} boxes")
        assert_same_bytes(g.truth.labels, w.truth.labels, f"frame {index} labels")
        assert_same_bytes(g.target_box_xywh, w.target_box_xywh, f"frame {index} target")
        assert g.pose == w.pose


capture_models = st.one_of(st.none(), st.builds(
    CaptureModel,
    blur_per_speed=st.sampled_from([0.0, 0.05, 0.2]),
    shadow_probability=st.sampled_from([0.0, 1.0]),
    defocus_sigma=st.sampled_from([0.0, 0.15]),
))


def make_decals(k, seed):
    """Four decals around the target plus one far behind it, which passes
    under the camera on every approach."""
    rng = np.random.default_rng(seed)
    return DeployedDecals(
        patch_rgb=rng.random((3, k, k)).astype(np.float32),
        alpha=(rng.random((k, k)) > 0.3).astype(np.float32),
        world_size_m=0.6,
        offsets=list(placement_offsets(4)) + [Placement(dz=-4.2, dx=0.4)],
    )


@st.composite
def render_cases(draw):
    trajectory = challenge_trajectory(draw(st.sampled_from(sorted(CHALLENGES))))
    count = draw(st.integers(1, 2 * RENDER_CHUNK + 1))
    start = draw(st.integers(0, len(trajectory) - 1))
    poses = [trajectory[(start + i) % len(trajectory)] for i in range(count)]
    if draw(st.booleans()):  # mixed motion blur within a chunk
        speeds = st.sampled_from([0.0, 9.0, 25.0, 35.0])
        poses = [dataclasses.replace(pose, speed_kmh=draw(speeds)) for pose in poses]
    scenario = AttackScenario(image_size=draw(st.sampled_from([48, 96])),
                              style_seed=draw(st.integers(0, 50)))
    decals = make_decals(draw(st.sampled_from([8, 16])), draw(st.integers(0, 99))) \
        if draw(st.booleans()) else None
    return dict(scenario=scenario, poses=poses, decals=decals,
                physical=draw(st.booleans()), capture_model=draw(capture_models),
                seed=draw(st.integers(0, 2 ** 32 - 1)))


class TestRenderRunDifferential:
    @given(case=render_cases())
    @settings(max_examples=30, deadline=None)
    def test_stacked_run_matches_per_frame_oracle(self, case):
        seed = case.pop("seed")
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = render_run(rng=got_rng, **case)
        want = oracle.render_run(rng=want_rng, **case)
        assert_same_frames(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @given(case=render_cases())
    @settings(max_examples=10, deadline=None)
    def test_render_frame_is_the_one_pose_run(self, case):
        seed = case.pop("seed")
        pose = case.pop("poses")[-1]
        frame_rng, run_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        frame = render_frame(pose=pose, rng=frame_rng, **case)
        (run_frame,) = render_run(poses=[pose], rng=run_rng, **case)
        assert_same_frames([frame], [run_frame])
        assert frame_rng.bit_generator.state == run_rng.bit_generator.state

    def test_rolled_truth_boxes_match(self):
        """Rolled frames carry rotated boxes; the shake challenge has both
        rolled and level frames in one chunk."""
        poses = challenge_trajectory("rotation/slight")[:RENDER_CHUNK + 3]
        got = render_run(AttackScenario(), poses, np.random.default_rng(4))
        want = oracle.render_run(AttackScenario(), poses, np.random.default_rng(4))
        assert_same_frames(got, want)
        assert any(len(f.truth.labels) for f in got)


class TestOneFrameCases:
    @given(style_seed=st.integers(0, 1000), roll=st.sampled_from([0.0, -4.0, 7.5]),
           z=st.floats(2.0, 30.0), x=st.floats(-4.0, 4.0),
           cls=st.sampled_from(["person", "car", "bicycle", "word", "mark"]),
           seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_render_scene_matches_oracle(self, style_seed, roll, z, x, cls, seed):
        scene = RoadScene(
            objects=[SceneObject(cls, z=z, x=x, sprite_seed=seed),
                     SceneObject("car", z=z + 6.0, x=-x, sprite_seed=seed + 1)],
            style=SceneStyle.sample(np.random.default_rng(style_seed)),
        )
        camera = Camera(image_size=64, roll_degrees=roll)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        image, truth = render_scene(scene, camera, got_rng)
        want_image, want_truth = oracle.render_scene(scene, camera, want_rng)
        assert_same_bytes(image, want_image, "image")
        assert_same_bytes(truth.boxes_xywh, want_truth.boxes_xywh, "boxes")
        assert_same_bytes(truth.labels, want_truth.labels, "labels")
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @given(model=capture_models, speed=st.sampled_from([0.0, 9.0, 25.0, 35.0]),
           size=st.sampled_from([(3, 32, 32), (3, 40, 56), (1, 48, 48)]),
           seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_camera_degrade_matches_oracle_and_keeps_input(self, model, speed, size, seed):
        frame = np.random.default_rng(seed).random(size).astype(np.float32)
        before = frame.copy()
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = camera_degrade(frame, got_rng, speed_kmh=speed, model=model)
        assert_same_bytes(frame, before, "input")
        want = oracle.camera_degrade(frame, want_rng, speed_kmh=speed, model=model)
        assert_same_bytes(got, want, "degraded")
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @given(seed=st.integers(0, 1000), size=st.sampled_from([(24, 24), (40, 56)]))
    @settings(max_examples=15, deadline=None)
    def test_training_capture_helpers_match_oracle(self, seed, size):
        """The trainer's capture augmentation draws through these two."""
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_bytes(_illumination_field(size, got_rng, 0.04),
                          oracle.illumination_field(size, want_rng, 0.04), "field")
        assert_same_bytes(_shadow_band(size, got_rng, 0.1),
                          oracle.shadow_band(size, want_rng, 0.1), "band")
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @given(seed=st.integers(0, 1000), k=st.sampled_from([6, 16]),
           z=st.floats(0.5, 20.0), x=st.floats(-3.0, 3.0),
           size=st.floats(0.2, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_paste_matches_oracle(self, seed, k, z, x, size):
        assume(z - 1.5 * size > 0.05)  # near edge in front of the camera
        rng = np.random.default_rng(seed)
        frame = rng.random((3, 64, 64)).astype(np.float32)
        patch, alpha = rng.random((3, k, k)), rng.random((k, k))
        quad = Camera(image_size=64).ground_patch_quad(z, x, size, length_m=3 * size)
        before = frame.copy()
        got = paste_patch_perspective(frame, patch, alpha, quad)
        assert_same_bytes(frame, before, "input")
        assert_same_bytes(got, oracle.paste_patch_perspective(frame, patch, alpha, quad),
                          "pasted")

    @given(seed=st.integers(0, 1000), degrees=st.floats(-30.0, 30.0),
           dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=20, deadline=None)
    def test_rotate_matches_oracle(self, seed, degrees, dtype):
        image = np.random.default_rng(seed).random((3, 40, 56)).astype(dtype)
        assert_same_bytes(rotate_image(image, degrees),
                          oracle.rotate_image(image, degrees), "rotated")


class TestSpriteCache:
    def test_cached_sprite_is_read_only(self):
        rgb, alpha = cached_sprite("mark", 20, 10, 3)
        with pytest.raises(ValueError):
            rgb[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            alpha[0, 0] = 1.0

    def test_cached_sprite_is_shared_per_key(self):
        first = cached_sprite("car", 12, 14, 5)
        assert cached_sprite("car", 12, 14, 5)[0] is first[0]
        assert cached_sprite("car", 12, 14, 6)[0] is not first[0]
