"""Frame-sequence rendering for attack training and evaluation.

An :class:`AttackScenario` fixes the world: one target object (the paper
attacks a road marking) plus scene style. Trajectories from
:mod:`repro.scene.trajectory` move the camera; this module renders each
:class:`~repro.scene.trajectory.FramePose` into a frame, optionally with

* a deployed decal set composited onto the road through the true
  perspective quad (evaluation path), and
* the physical capture degradation (real-world evaluation).

It also samples *training frames* — backgrounds plus the pixel-space decal
placements the differentiable attack trainer pastes patches into. Training
batches can be built from runs of three consecutive poses, the paper's key
dynamic-attack ingredient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..detection.targets import GroundTruth
from ..patch.apply import PixelPlacement, paste_decals
from ..patch.placement import DECAL_ELONGATION, Placement
from .camera import Camera
from .physical import CaptureModel, camera_degrade, degrade_frames, draw_capture
from .road import (
    RoadScene,
    SceneObject,
    SceneStyle,
    _rotate_box,
    background_template,
    place_objects,
    render_scene,
    rotate_image,
)
from .trajectory import FramePose

__all__ = [
    "RENDER_CHUNK",
    "AttackScenario",
    "DeployedDecals",
    "RenderedFrame",
    "TrainingFrame",
    "render_frame",
    "render_run",
    "sample_training_frames",
]


#: Frames :func:`render_run` renders as one stack (DESIGN.md §16).
RENDER_CHUNK = 8


@dataclass
class AttackScenario:
    """The attacked world: target object, context and rendering scale."""

    image_size: int = 96
    target_class: str = "mark"
    target_scale: float = 1.0
    style_seed: int = 7
    sprite_seed: int = 11
    include_context: bool = True

    def camera(self, roll_degrees: float = 0.0) -> Camera:
        return Camera(image_size=self.image_size, roll_degrees=roll_degrees)

    def style(self) -> SceneStyle:
        return SceneStyle.sample(np.random.default_rng(self.style_seed))

    def scene_for(self, pose: FramePose) -> RoadScene:
        return RoadScene(objects=self.objects_for(pose), style=self.style())

    def objects_for(self, pose: FramePose) -> List[SceneObject]:
        objects = [
            SceneObject(
                class_name=self.target_class,
                z=pose.distance,
                x=pose.lateral,
                scale=self.target_scale,
                sprite_seed=self.sprite_seed,
            )
        ]
        if self.include_context:
            # A parked car far up the road provides realistic clutter.
            objects.append(
                SceneObject("car", z=pose.distance + 14.0, x=2.6,
                            sprite_seed=self.sprite_seed + 1)
            )
        return objects


@dataclass
class DeployedDecals:
    """A decal set as deployed on the road.

    ``patch_rgb`` is the printed appearance (CHW, k×k); physical runs pass
    it through :func:`repro.scene.physical.print_patch` first. Offsets are
    world-space placements relative to the target object.
    """

    patch_rgb: np.ndarray
    alpha: np.ndarray
    world_size_m: float
    offsets: Sequence[Placement]


@dataclass
class RenderedFrame:
    """One evaluation frame with its ground truth."""

    image: np.ndarray
    truth: GroundTruth
    target_box_xywh: Optional[np.ndarray]
    pose: FramePose


@dataclass
class TrainingFrame:
    """One attack-training background and its decal paste geometry."""

    image: np.ndarray
    target_box_xywh: np.ndarray
    placements: List[PixelPlacement]
    pose: FramePose


def _target_box(truth: GroundTruth, target_label: int) -> Optional[np.ndarray]:
    matches = np.nonzero(truth.labels == target_label)[0]
    if matches.size == 0:
        return None
    return truth.boxes_xywh[matches[0]]


def _decal_quads(
    camera: Camera, pose: FramePose, offsets: Sequence[Placement],
    world_size_m: float,
) -> List[np.ndarray]:
    """Pixel ground quads of the decals still ahead of the camera."""
    quads = []
    length = DECAL_ELONGATION * world_size_m
    for offset in offsets:
        z = pose.distance + offset.dz
        x = pose.lateral + offset.dx
        if z - length / 2.0 <= 0.3:
            continue  # decal's near edge has passed under the camera
        quads.append(camera.ground_patch_quad(z, x, world_size_m, length_m=length))
    return quads


def _decal_placements(
    camera: Camera, pose: FramePose, offsets: Sequence[Placement],
    world_size_m: float,
) -> List[PixelPlacement]:
    """Project world decal placements to axis-aligned pixel placements."""
    placements = []
    for quad in _decal_quads(camera, pose, offsets, world_size_m):
        center_v = float(quad[:, 0].mean())
        center_u = float(quad[:, 1].mean())
        size = float(abs(quad[1, 1] - quad[0, 1]))      # near-edge width
        height = float(abs(quad[0, 0] - quad[3, 0]))    # projected length
        placements.append(PixelPlacement(center_v, center_u, size, height_px=height))
    return placements


def render_frame(
    scenario: AttackScenario,
    pose: FramePose,
    rng: np.random.Generator,
    decals: Optional[DeployedDecals] = None,
    physical: bool = False,
    capture_model: Optional[CaptureModel] = None,
) -> RenderedFrame:
    """Render one frame of an evaluation run: the one-frame
    :func:`render_run`."""
    return _render_chunk(scenario, [pose], rng, decals, physical, capture_model)[0]


def render_run(
    scenario: AttackScenario,
    poses: Sequence[FramePose],
    rng: np.random.Generator,
    decals: Optional[DeployedDecals] = None,
    physical: bool = False,
    capture_model: Optional[CaptureModel] = None,
) -> List[RenderedFrame]:
    """Render a whole challenge video, :data:`RENDER_CHUNK` frames at a time.

    Frames and the generator's final state are those of rendering the
    poses one by one (DESIGN.md §16).
    """
    frames: List[RenderedFrame] = []
    for start in range(0, len(poses), RENDER_CHUNK):
        frames.extend(_render_chunk(scenario, poses[start:start + RENDER_CHUNK], rng,
                                    decals, physical, capture_model))
    return frames


def _render_chunk(
    scenario: AttackScenario,
    poses: Sequence[FramePose],
    rng: np.random.Generator,
    decals: Optional[DeployedDecals],
    physical: bool,
    capture_model: Optional[CaptureModel],
) -> List[RenderedFrame]:
    """Render ``poses`` as one ``(F, 3, H, W)`` stack in two passes.

    The draw pass takes every random number of the chunk from ``rng``
    frame by frame, in the order a lone frame takes them: background
    noise, then the capture model's draws. The compute pass then runs
    background, objects, decals, roll and the capture model over the
    stack. Nothing in the compute pass reads ``rng``.
    """
    from ..detection.config import CLASS_NAMES

    camera = scenario.camera()  # roll applied to the finished frames
    template = background_template(camera, scenario.style())
    model = capture_model or CaptureModel()
    shape = (3, camera.image_size, camera.image_size)
    backgrounds, captures = [], []
    for _ in poses:
        backgrounds.append(template.draw(rng))
        if physical:
            captures.append(draw_capture(rng, shape, model))

    images = template.render(backgrounds)
    truths = []
    for image, pose in zip(images, poses):
        boxes, labels = place_objects(image, scenario.objects_for(pose), camera)
        truths.append(GroundTruth(
            boxes_xywh=np.asarray(boxes, dtype=np.float32).reshape(-1, 4),
            labels=np.asarray(labels, dtype=np.int64),
        ))

    if decals is not None:
        owners, quads = [], []
        for index, pose in enumerate(poses):
            pose_quads = _decal_quads(camera, pose, decals.offsets, decals.world_size_m)
            owners += [index] * len(pose_quads)
            quads += pose_quads
        if quads:
            paste_decals(images, owners, decals.patch_rgb, decals.alpha, np.stack(quads))

    for index, pose in enumerate(poses):
        # One frame at a time: a blend of all rolled frames at once held
        # float64 temporaries of the whole stack (DESIGN.md §16).
        if abs(pose.roll_degrees) > 1e-6:
            images[index] = rotate_image(images[index], pose.roll_degrees)
            boxes = [_rotate_box(tuple(b), pose.roll_degrees, scenario.image_size)
                     for b in truths[index].boxes_xywh]
            truths[index] = GroundTruth(
                boxes_xywh=np.asarray(boxes, dtype=np.float32).reshape(-1, 4),
                labels=truths[index].labels,
            )

    if physical:
        images = degrade_frames(images, captures, [p.speed_kmh for p in poses], model)

    target_label = CLASS_NAMES.index(scenario.target_class)
    return [
        RenderedFrame(image=image, truth=truth,
                      target_box_xywh=_target_box(truth, target_label), pose=pose)
        for image, truth, pose in zip(images, truths, poses)
    ]


def sample_training_frames(
    scenario: AttackScenario,
    rng: np.random.Generator,
    count: int,
    offsets: Sequence[Placement],
    world_size_m: float,
    consecutive: bool = True,
    group: int = 3,
    distance_range: Tuple[float, float] = (4.5, 11.0),
    speed_kmh: float = 25.0,
    fps: float = 10.0,
    degrade_fraction: float = 0.5,
    style_seeds: Optional[Sequence[int]] = None,
) -> List[TrainingFrame]:
    """Sample attack-training frames.

    With ``consecutive=True`` frames come in runs of ``group`` consecutive
    poses of an approach (the paper's batch construction, §III-B); otherwise
    each frame is an independent random pose (the "w/o 3 consecutive
    frames" ablation row of Table I). A ``degrade_fraction`` of frames pass
    through the capture model — the paper's training images are real
    photographs and carry real camera noise, which is what lets its decals
    transfer to the physical evaluation.

    ``style_seeds``, if given, draws each approach run's scene style from
    the list instead of the scenario's fixed style — training a *universal*
    decal across scenes (extension toward the paper's future work).
    """
    import dataclasses

    from ..detection.config import CLASS_NAMES

    target_label = CLASS_NAMES.index(scenario.target_class)
    camera = scenario.camera()
    step = speed_kmh / 3.6 / fps
    frames: List[TrainingFrame] = []
    while len(frames) < count:
        if consecutive:
            start = rng.uniform(distance_range[0] + step * group, distance_range[1])
            distances = [start - i * step for i in range(group)]
        else:
            distances = [rng.uniform(*distance_range)]
        lateral = rng.uniform(-0.6, 0.6)
        run_scenario = scenario
        if style_seeds:
            chosen = int(style_seeds[int(rng.integers(0, len(style_seeds)))])
            run_scenario = dataclasses.replace(scenario, style_seed=chosen)
        run_frames: List[TrainingFrame] = []
        for distance in distances:
            pose = FramePose(distance, lateral, 0.0, speed_kmh)
            scene = run_scenario.scene_for(pose)
            image, truth = render_scene(scene, camera, rng)
            box = _target_box(truth, target_label)
            if box is None:
                # Consecutive mode must keep runs intact so batches stay
                # aligned to whole approach runs — drop the entire run.
                run_frames = []
                break
            if rng.random() < degrade_fraction:
                image = camera_degrade(
                    image, rng, speed_kmh=float(rng.uniform(0.0, speed_kmh))
                )
            placements = _decal_placements(camera, pose, offsets, world_size_m)
            run_frames.append(TrainingFrame(image, box, placements, pose))
        if run_frames:
            frames.extend(run_frames[: count - len(frames)])
    return frames
