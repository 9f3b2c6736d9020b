"""Road-scene composition: asphalt, lane markings and objects.

`render_scene` produces a CHW float image plus YOLO ground truth — the
synthetic stand-in for the paper's self-collected road photographs
(DESIGN.md §2). All geometry goes through :class:`~repro.scene.camera.Camera`
so apparent sizes and positions behave like a real approach video.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..detection.targets import GroundTruth
from .camera import Camera
from .sprites import GROUND_CLASSES, render_sprite

__all__ = [
    "SceneObject",
    "SceneStyle",
    "RoadScene",
    "BackgroundTemplate",
    "background_template",
    "cached_sprite",
    "place_objects",
    "render_scene",
    "rotate_image",
]

#: Nominal object sizes in metres: (height or length, width).
OBJECT_SIZES = {
    "person": (1.7, 0.6),
    "car": (1.5, 1.8),
    "bicycle": (1.1, 1.7),
    "word": (3.2, 2.8),   # painted length along road, width across
    "mark": (5.0, 1.6),   # road arrows are long — highway arrows reach 5 m
}

#: Minimum projected box size (pixels) for an object to be labeled.
MIN_BOX_PIXELS = 3.0


@dataclass
class SceneObject:
    """One object in world coordinates.

    ``z`` is the forward distance from the camera in metres, ``x`` the
    lateral offset (positive = right). ``scale`` multiplies the nominal
    class size.
    """

    class_name: str
    z: float
    x: float = 0.0
    scale: float = 1.0
    sprite_seed: int = 0

    def world_size(self) -> Tuple[float, float]:
        base_h, base_w = OBJECT_SIZES[self.class_name]
        return base_h * self.scale, base_w * self.scale


@dataclass(frozen=True)
class SceneStyle:
    """Per-scene appearance parameters (sampled once per scene)."""

    asphalt_shade: float = 0.32
    asphalt_noise: float = 0.02
    sky_top: Tuple[float, float, float] = (0.55, 0.68, 0.85)
    sky_bottom: Tuple[float, float, float] = (0.78, 0.82, 0.88)
    shoulder_color: Tuple[float, float, float] = (0.45, 0.42, 0.35)
    lane_half_width: float = 1.9
    lane_paint: Tuple[float, float, float] = (0.85, 0.85, 0.8)
    center_paint: Tuple[float, float, float] = (0.85, 0.75, 0.3)
    illumination: float = 1.0

    @staticmethod
    def sample(rng: np.random.Generator) -> "SceneStyle":
        return SceneStyle(
            asphalt_shade=float(rng.uniform(0.26, 0.4)),
            asphalt_noise=float(rng.uniform(0.01, 0.035)),
            lane_half_width=float(rng.uniform(1.7, 2.1)),
            illumination=float(rng.uniform(0.85, 1.1)),
        )


@dataclass
class RoadScene:
    """A full scene: style plus object placements."""

    objects: List[SceneObject] = field(default_factory=list)
    style: SceneStyle = field(default_factory=SceneStyle)


#: Background templates kept (one per camera and scene style).
BACKGROUND_CACHE_SIZE = 16
#: Rendered sprites kept; a challenge sweep uses about 22 (DESIGN.md §16).
SPRITE_CACHE_SIZE = 64


class BackgroundTemplate:
    """Everything about a background that one (camera, style) fixes.

    A background is sky, asphalt, shoulder and lane paint, lit by the
    style's illumination and clipped to [0, 1]. Only the asphalt and the
    shoulder carry noise, so the template keeps the finished sky and paint
    pixels in ``base`` and the flat indices where each noise draw lands.
    :meth:`draw` consumes the generator exactly as one background does;
    :meth:`render` turns any number of those draws into a ``(F, 3, H, W)``
    stack with the same per-pixel float32 arithmetic as a single frame.
    """

    def __init__(self, camera: Camera, style: SceneStyle) -> None:
        size = camera.image_size
        horizon = int(round(camera.horizon_v))
        horizon = min(max(horizon, 1), size - 2)
        self.size, self.horizon = size, horizon
        self.asphalt_noise = style.asphalt_noise
        self.shade = np.float32(style.asphalt_shade)
        self.shoulder = np.asarray(style.shoulder_color, dtype=np.float32)[:, None]
        self.illumination = style.illumination

        image = np.zeros((3, size, size), dtype=np.float32)
        # Sky: vertical gradient.
        t = (np.arange(horizon, dtype=np.float32) / max(horizon - 1, 1))[:, None]
        top = np.asarray(style.sky_top, dtype=np.float32)[:, None, None]
        bottom = np.asarray(style.sky_bottom, dtype=np.float32)[:, None, None]
        image[:, :horizon, :] = top + (bottom - top) * t[None, :, :]

        # Ground rows: per-row forward distance, per-pixel lateral offset.
        rows = np.arange(horizon, size, dtype=np.float32)
        z = camera.focal * camera.height / np.maximum(rows - camera.horizon_v, 0.5)
        cols = np.arange(size, dtype=np.float32)[None, :]
        lateral = (cols - camera.center_u) * z[:, None] / camera.focal
        shoulder_mask = np.abs(lateral) > style.lane_half_width + 1.2
        painted = np.zeros_like(shoulder_mask)
        ground = image[:, horizon:, :]
        # Lane edge lines (solid) and center line (dashed).
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
            painted |= mask
        self.base = np.clip(image * style.illumination, 0.0, 1.0)

        offset = horizon * size
        self.shoulder_count = int(shoulder_mask.sum())
        self.asphalt_take = np.flatnonzero(~shoulder_mask & ~painted)
        self.asphalt_index = self.asphalt_take + offset
        self.shoulder_take = np.flatnonzero(~painted[shoulder_mask])
        self.shoulder_index = np.flatnonzero(shoulder_mask & ~painted) + offset

    def draw(self, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """One background's noise, asphalt then shoulder, as float32."""
        asphalt = rng.normal(0.0, self.asphalt_noise,
                             size=(self.size - self.horizon, self.size))
        shoulder = rng.normal(0, 0.02, size=(3, self.shoulder_count))
        return asphalt.astype(np.float32), shoulder.astype(np.float32)

    def render(self, draws: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """The ``(F, 3, H, W)`` float32 backgrounds of ``F`` draws."""
        count, size = len(draws), self.size
        out = np.empty((count, 3, size, size), dtype=np.float32)
        out[:] = self.base
        flat = out.reshape(count, 3, size * size)
        asphalt = np.stack([a for a, _ in draws]).reshape(count, -1)
        asphalt = np.clip((self.shade + asphalt[:, self.asphalt_take])
                          * self.illumination, 0.0, 1.0)
        flat[:, :, self.asphalt_index] = asphalt[:, None, :]
        shoulder = np.stack([s for _, s in draws])
        flat[:, :, self.shoulder_index] = np.clip(
            (self.shoulder + shoulder[:, :, self.shoulder_take]) * self.illumination,
            0.0, 1.0)
        return out


@functools.lru_cache(maxsize=BACKGROUND_CACHE_SIZE)
def background_template(camera: Camera, style: SceneStyle) -> BackgroundTemplate:
    """The shared :class:`BackgroundTemplate` of ``camera`` and ``style``."""
    return BackgroundTemplate(camera, style)


@functools.lru_cache(maxsize=SPRITE_CACHE_SIZE)
def cached_sprite(class_name: str, height: int, width: int,
                  sprite_seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`render_sprite` with a fresh ``default_rng(sprite_seed)``.

    A sprite depends on nothing else, so every frame of a video shares one
    read-only copy per size.
    """
    rgb, alpha = render_sprite(class_name, height, width,
                               np.random.default_rng(sprite_seed))
    rgb.flags.writeable = False
    alpha.flags.writeable = False
    return rgb, alpha


def _composite(image: np.ndarray, sprite_rgb: np.ndarray, sprite_alpha: np.ndarray,
               top: int, left: int) -> Optional[Tuple[int, int, int, int]]:
    """Alpha-composite a sprite; returns the clipped (x0, y0, x1, y1) box."""
    _, h, w = sprite_rgb.shape
    size_y, size_x = image.shape[1], image.shape[2]
    y0, x0 = max(top, 0), max(left, 0)
    y1, x1 = min(top + h, size_y), min(left + w, size_x)
    if y0 >= y1 or x0 >= x1:
        return None
    sy0, sx0 = y0 - top, x0 - left
    sy1, sx1 = sy0 + (y1 - y0), sx0 + (x1 - x0)
    alpha = sprite_alpha[sy0:sy1, sx0:sx1][None, :, :]
    region = image[:, y0:y1, x0:x1]
    image[:, y0:y1, x0:x1] = region * (1 - alpha) + sprite_rgb[:, sy0:sy1, sx0:sx1] * alpha
    return (x0, y0, x1, y1)


def render_scene(
    scene: RoadScene,
    camera: Camera,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, GroundTruth]:
    """Render a scene to an image and its ground truth.

    Camera roll, if any, is applied to the finished frame (and to the boxes
    as axis-aligned hulls of the rotated corners) — this implements the
    paper's hand-shake "rotation" challenge.
    """
    base_camera = camera.with_roll(0.0)
    template = background_template(base_camera, scene.style)
    image = template.render([template.draw(rng)])[0]
    boxes, labels = place_objects(image, scene.objects, base_camera)

    if abs(camera.roll_degrees) > 1e-6:
        image = rotate_image(image, camera.roll_degrees)
        boxes = [_rotate_box(b, camera.roll_degrees, camera.image_size) for b in boxes]

    truth = GroundTruth(
        boxes_xywh=np.asarray(boxes, dtype=np.float32).reshape(-1, 4),
        labels=np.asarray(labels, dtype=np.int64),
    )
    return image, truth


def place_objects(
    image: np.ndarray, objects: Sequence[SceneObject], camera: Camera,
) -> Tuple[List[Tuple[float, float, float, float]], List[int]]:
    """Composite ``objects`` far to near into a CHW ``image`` in place.

    Returns the xywh boxes and class labels of the objects left visible
    and at least :data:`MIN_BOX_PIXELS` on each side.
    """
    from ..detection.config import CLASS_NAMES

    boxes: List[Tuple[float, float, float, float]] = []
    labels: List[int] = []
    for obj in sorted(objects, key=lambda o: -o.z):
        if obj.z <= 1.0:
            continue
        size_h_m, size_w_m = obj.world_size()
        if obj.class_name in GROUND_CLASSES:
            # Painted on the road: vertical extent is the projected length.
            v_near, u_near = camera.project_ground(obj.z, obj.x)
            v_far, _ = camera.project_ground(obj.z + size_h_m, obj.x)
            px_h = max(v_near - v_far, 1.0)
            px_w = camera.horizontal_extent(obj.z + size_h_m / 2, size_w_m)
            top = v_far
            left = u_near - px_w / 2.0
        else:
            v_base, u_center = camera.project_ground(obj.z, obj.x)
            px_h = camera.vertical_extent(obj.z, size_h_m)
            px_w = camera.horizontal_extent(obj.z, size_w_m)
            top = v_base - px_h
            left = u_center - px_w / 2.0
        if px_h < MIN_BOX_PIXELS or px_w < MIN_BOX_PIXELS:
            continue
        sprite_rgb, sprite_alpha = cached_sprite(
            obj.class_name, int(round(px_h)), int(round(px_w)), obj.sprite_seed
        )
        box = _composite(image, sprite_rgb, sprite_alpha, int(round(top)), int(round(left)))
        if box is None:
            continue
        x0, y0, x1, y1 = box
        if (x1 - x0) < MIN_BOX_PIXELS or (y1 - y0) < MIN_BOX_PIXELS:
            continue
        boxes.append(((x0 + x1) / 2.0, (y0 + y1) / 2.0, x1 - x0, y1 - y0))
        labels.append(CLASS_NAMES.index(obj.class_name))
    return boxes, labels


def rotate_image(image: np.ndarray, degrees: float) -> np.ndarray:
    """Rotate a CHW image about its center (bilinear, edge-padded)."""
    channels, h, w = image.shape
    angle = math.radians(degrees)
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float32)
    dy, dx = ys - cy, xs - cx
    src_y = np.clip(cy + cos_a * dy + sin_a * dx, 0, h - 1).reshape(-1)
    src_x = np.clip(cx - sin_a * dy + cos_a * dx, 0, w - 1).reshape(-1)
    y0 = np.floor(src_y).astype(int)
    x0 = np.floor(src_x).astype(int)
    y1 = np.minimum(y0 + 1, h - 1) * w
    x1 = np.minimum(x0 + 1, w - 1)
    wy, wx = src_y - y0, src_x - x0
    wy_1, wx_1 = 1 - wy, 1 - wx
    y0 *= w
    flat = image.reshape(channels, h * w)
    out = (
        flat[:, y0 + x0] * wy_1 * wx_1
        + flat[:, y0 + x1] * wy_1 * wx
        + flat[:, y1 + x0] * wy * wx_1
        + flat[:, y1 + x1] * wy * wx
    )
    return out.reshape(channels, h, w).astype(np.float32)


def _rotate_box(box_xywh: Tuple[float, float, float, float], degrees: float,
                image_size: int) -> Tuple[float, float, float, float]:
    """Axis-aligned hull of a box rotated about the image center."""
    cx, cy, w, h = box_xywh
    angle = math.radians(degrees)
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    center = (image_size - 1) / 2.0
    corners = [
        (cx - w / 2, cy - h / 2),
        (cx + w / 2, cy - h / 2),
        (cx + w / 2, cy + h / 2),
        (cx - w / 2, cy + h / 2),
    ]
    rotated = []
    for px, py in corners:
        dx, dy = px - center, py - center
        # Inverse of the image-rotation sampling map so boxes track pixels.
        rx = center + cos_a * dx + sin_a * dy
        ry = center - sin_a * dx + cos_a * dy
        rotated.append((rx, ry))
    xs = [p[0] for p in rotated]
    ys = [p[1] for p in rotated]
    x0, x1 = max(min(xs), 0), min(max(xs), image_size)
    y0, y1 = max(min(ys), 0), min(max(ys), image_size)
    return ((x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0)
