"""The per-frame renderer, kept as the oracle for the stacked one.

These are the frame-at-a-time implementations that ``repro.scene`` and
``repro.patch.apply`` replaced with stacked two-pass code (DESIGN.md §16).
Each function here renders, pastes or degrades exactly one frame and
draws from the generator as it goes; the stacked code must reproduce
their bytes and leave the generator in the same state. Helpers the
rewrite left alone (sprite drawing, sprite compositing, box rotation) are
imported from the package.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import ndimage

from repro.detection.config import CLASS_NAMES
from repro.detection.targets import GroundTruth
from repro.patch.placement import DECAL_ELONGATION
from repro.scene.camera import Camera
from repro.scene.physical import CaptureModel
from repro.scene.road import MIN_BOX_PIXELS, RoadScene, SceneStyle, _composite, _rotate_box
from repro.scene.sprites import GROUND_CLASSES, render_sprite
from repro.scene.trajectory import FramePose
from repro.scene.video import AttackScenario, DeployedDecals, RenderedFrame, _target_box


def background(camera: Camera, style: SceneStyle, rng: np.random.Generator) -> np.ndarray:
    size = camera.image_size
    image = np.zeros((3, size, size), dtype=np.float32)
    horizon = int(round(camera.horizon_v))
    horizon = min(max(horizon, 1), size - 2)

    t = (np.arange(horizon, dtype=np.float32) / max(horizon - 1, 1))[:, None]
    top = np.asarray(style.sky_top, dtype=np.float32)[:, None, None]
    bottom = np.asarray(style.sky_bottom, dtype=np.float32)[:, None, None]
    image[:, :horizon, :] = top + (bottom - top) * t[None, :, :]

    rows = np.arange(horizon, size, dtype=np.float32)
    z = camera.focal * camera.height / np.maximum(rows - camera.horizon_v, 0.5)
    cols = np.arange(size, dtype=np.float32)[None, :]
    lateral = (cols - camera.center_u) * z[:, None] / camera.focal

    asphalt = np.full((rows.size, size), style.asphalt_shade, dtype=np.float32)
    asphalt += rng.normal(0.0, style.asphalt_noise, size=asphalt.shape).astype(np.float32)
    ground = np.repeat(asphalt[None, :, :], 3, axis=0)

    road_half = style.lane_half_width + 1.2
    shoulder_mask = np.abs(lateral) > road_half
    shoulder = np.asarray(style.shoulder_color, dtype=np.float32)
    ground[:, shoulder_mask] = (
        shoulder[:, None]
        + rng.normal(0, 0.02, size=(3, int(shoulder_mask.sum()))).astype(np.float32)
    )

    line_width_m = 0.12
    for lane_x, color, dashed in (
        (-style.lane_half_width, style.lane_paint, False),
        (style.lane_half_width, style.lane_paint, False),
        (0.0, style.center_paint, True),
    ):
        mask = np.abs(lateral - lane_x) < line_width_m / 2.0
        if dashed:
            dash = (np.floor(z / 1.5).astype(int) % 2 == 0)
            mask &= dash[:, None]
        ground[:, mask] = np.asarray(color, dtype=np.float32)[:, None]

    image[:, horizon:, :] = ground
    return np.clip(image * style.illumination, 0.0, 1.0)


def render_scene(scene: RoadScene, camera: Camera,
                 rng: np.random.Generator) -> Tuple[np.ndarray, GroundTruth]:
    base_camera = camera.with_roll(0.0)
    image = background(base_camera, scene.style, rng)
    boxes: List[Tuple[float, float, float, float]] = []
    labels: List[int] = []
    for obj in sorted(scene.objects, key=lambda o: -o.z):
        if obj.z <= 1.0:
            continue
        sprite_rng = np.random.default_rng(obj.sprite_seed)
        size_h_m, size_w_m = obj.world_size()
        if obj.class_name in GROUND_CLASSES:
            v_near, u_near = base_camera.project_ground(obj.z, obj.x)
            v_far, _ = base_camera.project_ground(obj.z + size_h_m, obj.x)
            px_h = max(v_near - v_far, 1.0)
            px_w = base_camera.horizontal_extent(obj.z + size_h_m / 2, size_w_m)
            top = v_far
            left = u_near - px_w / 2.0
        else:
            v_base, u_center = base_camera.project_ground(obj.z, obj.x)
            px_h = base_camera.vertical_extent(obj.z, size_h_m)
            px_w = base_camera.horizontal_extent(obj.z, size_w_m)
            top = v_base - px_h
            left = u_center - px_w / 2.0
        if px_h < MIN_BOX_PIXELS or px_w < MIN_BOX_PIXELS:
            continue
        sprite_rgb, sprite_alpha = render_sprite(
            obj.class_name, int(round(px_h)), int(round(px_w)), sprite_rng
        )
        box = _composite(image, sprite_rgb, sprite_alpha, int(round(top)), int(round(left)))
        if box is None:
            continue
        x0, y0, x1, y1 = box
        if (x1 - x0) < MIN_BOX_PIXELS or (y1 - y0) < MIN_BOX_PIXELS:
            continue
        boxes.append(((x0 + x1) / 2.0, (y0 + y1) / 2.0, x1 - x0, y1 - y0))
        labels.append(CLASS_NAMES.index(obj.class_name))

    if abs(camera.roll_degrees) > 1e-6:
        image = rotate_image(image, camera.roll_degrees)
        boxes = [_rotate_box(b, camera.roll_degrees, camera.image_size) for b in boxes]

    truth = GroundTruth(
        boxes_xywh=np.asarray(boxes, dtype=np.float32).reshape(-1, 4),
        labels=np.asarray(labels, dtype=np.int64),
    )
    return image, truth


def rotate_image(image: np.ndarray, degrees: float) -> np.ndarray:
    _, h, w = image.shape
    angle = math.radians(degrees)
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float32)
    dy, dx = ys - cy, xs - cx
    src_y = cy + cos_a * dy + sin_a * dx
    src_x = cx - sin_a * dy + cos_a * dx
    src_y = np.clip(src_y, 0, h - 1)
    src_x = np.clip(src_x, 0, w - 1)
    y0 = np.floor(src_y).astype(int)
    x0 = np.floor(src_x).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (src_y - y0)[None]
    wx = (src_x - x0)[None]
    out = (
        image[:, y0, x0] * (1 - wy) * (1 - wx)
        + image[:, y0, x1] * (1 - wy) * wx
        + image[:, y1, x0] * wy * (1 - wx)
        + image[:, y1, x1] * wy * wx
    )
    return out.astype(np.float32)


def solve_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    src = np.asarray(src, dtype=np.float64).reshape(4, 2)
    dst = np.asarray(dst, dtype=np.float64).reshape(4, 2)
    rows = []
    for (sx, sy), (dx, dy) in zip(src, dst):
        rows.append([sx, sy, 1, 0, 0, 0, -dx * sx, -dx * sy, -dx])
        rows.append([0, 0, 0, sx, sy, 1, -dy * sx, -dy * sy, -dy])
    matrix = np.asarray(rows)
    _, _, vt = np.linalg.svd(matrix)
    h = vt[-1].reshape(3, 3)
    if abs(h[2, 2]) < 1e-12:
        raise ValueError("degenerate homography")
    return h / h[2, 2]


def paste_patch_perspective(frame: np.ndarray, patch_rgb: np.ndarray,
                            alpha: np.ndarray, quad_vu: np.ndarray) -> np.ndarray:
    frame = frame.copy()
    _, height, width = frame.shape
    k = patch_rgb.shape[1]
    quad = np.asarray(quad_vu, dtype=np.float64)
    src = np.asarray(
        [[0, k - 1], [k - 1, k - 1], [k - 1, 0], [0, 0]], dtype=np.float64
    )
    dst = quad[:, ::-1]
    h_matrix = solve_homography(src, dst)
    h_inverse = np.linalg.inv(h_matrix)

    v0 = int(np.floor(quad[:, 0].min()))
    v1 = int(np.ceil(quad[:, 0].max())) + 1
    u0 = int(np.floor(quad[:, 1].min()))
    u1 = int(np.ceil(quad[:, 1].max())) + 1
    v0, v1 = max(v0, 0), min(v1, height)
    u0, u1 = max(u0, 0), min(u1, width)
    if v0 >= v1 or u0 >= u1:
        return frame

    vs, us = np.mgrid[v0:v1, u0:u1].astype(np.float64)
    ones = np.ones_like(us)
    coords = np.stack([us.ravel(), vs.ravel(), ones.ravel()])
    mapped = h_inverse @ coords
    px = mapped[0] / mapped[2]
    py = mapped[1] / mapped[2]
    inside = (px >= 0) & (px <= k - 1) & (py >= 0) & (py <= k - 1)
    if not inside.any():
        return frame
    px_c = np.clip(px, 0, k - 1)
    py_c = np.clip(py, 0, k - 1)
    x_floor = np.floor(px_c).astype(int)
    y_floor = np.floor(py_c).astype(int)
    x_ceil = np.minimum(x_floor + 1, k - 1)
    y_ceil = np.minimum(y_floor + 1, k - 1)
    wx = (px_c - x_floor).astype(np.float32)
    wy = (py_c - y_floor).astype(np.float32)

    def sample(array: np.ndarray) -> np.ndarray:
        if array.ndim == 2:
            array = array[None]
        return (
            array[:, y_floor, x_floor] * (1 - wy) * (1 - wx)
            + array[:, y_floor, x_ceil] * (1 - wy) * wx
            + array[:, y_ceil, x_floor] * wy * (1 - wx)
            + array[:, y_ceil, x_ceil] * wy * wx
        )

    patch_values = sample(patch_rgb.astype(np.float32))
    alpha_values = sample(alpha.astype(np.float32))[0] * inside
    region_shape = (v1 - v0, u1 - u0)
    alpha_map = alpha_values.reshape(region_shape)
    patch_map = patch_values.reshape(3, *region_shape)
    region = frame[:, v0:v1, u0:u1]
    frame[:, v0:v1, u0:u1] = region * (1 - alpha_map) + patch_map * alpha_map
    return frame


def illumination_field(shape_hw, rng: np.random.Generator, amplitude: float) -> np.ndarray:
    h, w = shape_hw
    coarse = rng.normal(0.0, 1.0, size=(max(h // 16, 2), max(w // 16, 2)))
    field = ndimage.zoom(coarse, (h / coarse.shape[0], w / coarse.shape[1]), order=1)
    field = field[:h, :w]
    field = field / (np.abs(field).max() + 1e-9)
    return (1.0 + amplitude * field).astype(np.float32)


def shadow_band(shape_hw, rng: np.random.Generator, strength: float) -> np.ndarray:
    h, w = shape_hw
    angle = rng.uniform(0, np.pi)
    offset = rng.uniform(0.2, 0.8)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float32)
    axis = (np.cos(angle) * xs / w + np.sin(angle) * ys / h)
    band = np.exp(-((axis - offset) ** 2) / (2 * 0.08 ** 2))
    return (1.0 - strength * band).astype(np.float32)


def camera_degrade(frame: np.ndarray, rng: np.random.Generator, speed_kmh: float = 0.0,
                   model: Optional[CaptureModel] = None) -> np.ndarray:
    model = model or CaptureModel()
    frame = np.asarray(frame, dtype=np.float32).copy()
    _, h, w = frame.shape

    field = illumination_field((h, w), rng, model.illumination_amplitude)
    frame *= field[None]
    if rng.random() < model.shadow_probability:
        frame *= shadow_band((h, w), rng, model.shadow_strength)[None]

    blur_px = model.blur_per_speed * max(speed_kmh, 0.0)
    if blur_px >= 0.5:
        kernel_len = max(int(round(blur_px)), 1)
        frame = ndimage.uniform_filter1d(frame, size=kernel_len + 1, axis=1)
    if model.defocus_sigma > 0:
        frame = ndimage.gaussian_filter(frame, sigma=(0, model.defocus_sigma, model.defocus_sigma))

    frame += rng.normal(0.0, model.noise_sigma, size=frame.shape).astype(np.float32)
    return np.clip(frame, 0.0, 1.0)


def render_frame(scenario: AttackScenario, pose: FramePose, rng: np.random.Generator,
                 decals: Optional[DeployedDecals] = None, physical: bool = False,
                 capture_model: Optional[CaptureModel] = None) -> RenderedFrame:
    camera = scenario.camera()
    scene = scenario.scene_for(pose)
    image, truth = render_scene(scene, camera, rng)

    if decals is not None:
        for offset in decals.offsets:
            z = pose.distance + offset.dz
            x = pose.lateral + offset.dx
            length = DECAL_ELONGATION * decals.world_size_m
            if z - length / 2.0 <= 0.3:
                continue
            quad = camera.ground_patch_quad(z, x, decals.world_size_m, length_m=length)
            image = paste_patch_perspective(image, decals.patch_rgb, decals.alpha, quad)

    if abs(pose.roll_degrees) > 1e-6:
        image = rotate_image(image, pose.roll_degrees)
        boxes = [
            _rotate_box(tuple(b), pose.roll_degrees, scenario.image_size)
            for b in truth.boxes_xywh
        ]
        truth = GroundTruth(
            boxes_xywh=np.asarray(boxes, dtype=np.float32).reshape(-1, 4),
            labels=truth.labels,
        )

    if physical:
        image = camera_degrade(image, rng, speed_kmh=pose.speed_kmh, model=capture_model)

    target_label = CLASS_NAMES.index(scenario.target_class)
    return RenderedFrame(image=image, truth=truth,
                         target_box_xywh=_target_box(truth, target_label), pose=pose)


def render_run(scenario: AttackScenario, poses: Sequence[FramePose],
               rng: np.random.Generator, decals: Optional[DeployedDecals] = None,
               physical: bool = False,
               capture_model: Optional[CaptureModel] = None) -> List[RenderedFrame]:
    return [render_frame(scenario, pose, rng, decals=decals, physical=physical,
                         capture_model=capture_model)
            for pose in poses]
