"""Compositing decals into frames.

Two paths, mirroring the paper's workflow:

* **Training (differentiable)** — :func:`apply_patches`: the generator's
  patch tensor is EOT-transformed upstream, resized to its apparent size in
  the frame, background-removed with a soft mask, and alpha-composited.
  Gradients flow from the detector loss back to the generator.
* **Evaluation / physical (numpy)** — :func:`paste_patch_perspective`: the
  deployed decal lies flat on the road, so it is warped by the true
  camera homography of its ground quad before compositing. This is the
  geometry the EOT 'perspective' trick must anticipate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..nn import Tensor, concatenate
from ..nn import functional as F
from ..nn.tensor import pad2d

__all__ = [
    "PixelPlacement",
    "apply_patches",
    "solve_homography",
    "solve_homographies",
    "paste_patch_perspective",
    "paste_decals",
]


@dataclass
class PixelPlacement:
    """Axis-aligned paste location in frame pixels (training path).

    ``size_px`` is the decal's apparent width; ``height_px`` its apparent
    vertical extent. For a decal lying on the road the height is strongly
    foreshortened (a 1.5 m decal at 7 m spans ~5× more pixels horizontally
    than vertically), so training composites must use the same anisotropic
    scaling the evaluation-time perspective paste produces — otherwise the
    patch is optimized for a shape it never has on the road.
    """

    center_y: float
    center_x: float
    size_px: float
    height_px: Optional[float] = None

    @property
    def paste_height(self) -> float:
        return self.height_px if self.height_px is not None else self.size_px


def _to_rgb(patch: Tensor) -> Tensor:
    """Broadcast a 1-channel patch batch to 3 channels."""
    if patch.shape[1] == 3:
        return patch
    if patch.shape[1] != 1:
        raise ValueError(f"patch must have 1 or 3 channels, got {patch.shape[1]}")
    return concatenate([patch, patch, patch], axis=1)


def apply_patches(
    frame: np.ndarray,
    patches: Sequence[Tensor],
    alphas: Sequence[Tensor],
    placements: Sequence[PixelPlacement],
) -> Tensor:
    """Differentiably composite N patch tensors into one frame.

    Parameters
    ----------
    frame:
        CHW float numpy background (no gradient — the paper's training
        images are fixed photographs).
    patches / alphas:
        Per-placement patch tensors shaped (1, 1|3, k, k) and alpha tensors
        shaped (1, 1, k, k); they may differ per placement because each has
        its own EOT sample (the paper rotates each of the N decals
        independently, Fig. 2).
    placements:
        Pixel-space paste locations; patches falling entirely outside the
        frame are skipped.
    """
    if not (len(patches) == len(alphas) == len(placements)):
        raise ValueError("patches, alphas and placements must align")
    _, height, width = frame.shape
    out = Tensor(frame[None].astype(np.float32))
    for patch, alpha, placement in zip(patches, alphas, placements):
        size_w = int(round(placement.size_px))
        size_h = int(round(placement.paste_height))
        if size_w < 2 or size_h < 1:
            continue
        top = int(round(placement.center_y - size_h / 2.0))
        left = int(round(placement.center_x - size_w / 2.0))
        if top + size_h <= 0 or left + size_w <= 0 or top >= height or left >= width:
            continue
        rgb = _to_rgb(F.interpolate_bilinear(patch, (size_h, size_w)))
        a = F.interpolate_bilinear(alpha, (size_h, size_w))
        # Crop the parts that stick out of the frame.
        crop_top = max(0, -top)
        crop_left = max(0, -left)
        crop_bottom = max(0, top + size_h - height)
        crop_right = max(0, left + size_w - width)
        if crop_top or crop_left or crop_bottom or crop_right:
            rgb = rgb[:, :, crop_top:size_h - crop_bottom, crop_left:size_w - crop_right]
            a = a[:, :, crop_top:size_h - crop_bottom, crop_left:size_w - crop_right]
        paste_top = top + crop_top
        paste_left = left + crop_left
        h_in = rgb.shape[2]
        w_in = rgb.shape[3]
        if h_in < 1 or w_in < 1:
            continue
        pad_spec = (paste_top, height - paste_top - h_in,
                    paste_left, width - paste_left - w_in)
        rgb_full = pad2d(rgb, pad_spec)
        alpha_full = pad2d(a, pad_spec)
        out = out * (1.0 - alpha_full) + rgb_full * alpha_full
    return out


# ----------------------------------------------------------------------
# Perspective paste (evaluation / physical deployment path)
# ----------------------------------------------------------------------

def solve_homographies(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Homographies ``(D, 3, 3)`` with ``dst[d] ~ H[d] @ src[d]`` from
    ``(D, 4, 2)`` point pairs (x, y): one stacked SVD for all ``D``."""
    src = np.asarray(src, dtype=np.float64).reshape(-1, 4, 2)
    dst = np.asarray(dst, dtype=np.float64).reshape(-1, 4, 2)
    sx, sy = src[..., 0], src[..., 1]
    dx, dy = dst[..., 0], dst[..., 1]
    one, zero = np.ones_like(sx), np.zeros_like(sx)
    # Two rows per point pair, interleaved: (D, 4, 2, 9) -> (D, 8, 9).
    matrix = np.stack([
        np.stack([sx, sy, one, zero, zero, zero, -dx * sx, -dx * sy, -dx], axis=-1),
        np.stack([zero, zero, zero, sx, sy, one, -dy * sx, -dy * sy, -dy], axis=-1),
    ], axis=2).reshape(-1, 8, 9)
    _, _, vt = np.linalg.svd(matrix)
    h = vt[:, -1].reshape(-1, 3, 3)
    if (np.abs(h[:, 2, 2]) < 1e-12).any():
        raise ValueError("degenerate homography")
    return h / h[:, 2:, 2:]


def solve_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Homography H (3×3) with ``dst ~ H @ src`` from 4 point pairs (x, y)."""
    return solve_homographies(src, dst)[0]


def paste_patch_perspective(
    frame: np.ndarray,
    patch_rgb: np.ndarray,
    alpha: np.ndarray,
    quad_vu: np.ndarray,
) -> np.ndarray:
    """Composite a flat road decal into a frame through its ground quad.

    Parameters
    ----------
    frame:
        CHW float image (modified copy is returned).
    patch_rgb:
        CHW decal appearance (k×k).
    alpha:
        HW decal alpha in [0, 1].
    quad_vu:
        4×2 array of (v, u) frame coordinates ordered
        near-left, near-right, far-right, far-left (see
        :meth:`repro.scene.camera.Camera.ground_patch_quad`).
    """
    frames = frame[None].copy()
    paste_decals(frames, [0], patch_rgb, alpha, np.asarray(quad_vu)[None])
    return frames[0]


def paste_decals(
    frames: np.ndarray,
    owners: Sequence[int],
    patch_rgb: np.ndarray,
    alpha: np.ndarray,
    quads_vu: np.ndarray,
) -> None:
    """Composite one decal per quad into an ``(F, C, H, W)`` stack in place.

    Quad ``d`` (``(D, 4, 2)``, ordered as in
    :func:`paste_patch_perspective`) lands on frame ``owners[d]``; decals
    on one frame are pasted in quad order. All ``D`` homographies come
    from one stacked solve and one stacked inverse.
    """
    if len(owners) == 0:
        return
    height, width = frames.shape[2:]
    channels, k = patch_rgb.shape[:2]
    rgba = np.concatenate([patch_rgb.astype(np.float32),
                           alpha.astype(np.float32).reshape(1, k, k)]
                          ).reshape(channels + 1, k * k)
    quads = np.asarray(quads_vu, dtype=np.float64).reshape(-1, 4, 2)
    # Patch corners in (x, y): bottom edge = near edge of the quad.
    src = np.asarray(
        [[0, k - 1], [k - 1, k - 1], [k - 1, 0], [0, 0]], dtype=np.float64
    )
    src = np.broadcast_to(src, quads.shape)
    h_inverse = np.linalg.inv(solve_homographies(src, quads[:, :, ::-1]))

    # Each decal's bounding box, clipped to the frame.
    v0 = np.maximum(np.floor(quads[:, :, 0].min(axis=1)), 0).astype(int)
    v1 = np.minimum(np.ceil(quads[:, :, 0].max(axis=1)) + 1, height).astype(int)
    u0 = np.maximum(np.floor(quads[:, :, 1].min(axis=1)), 0).astype(int)
    u1 = np.minimum(np.ceil(quads[:, :, 1].max(axis=1)) + 1, width).astype(int)
    boxes = {}
    for d, owner in enumerate(owners):
        if v0[d] < v1[d] and u0[d] < u1[d]:
            boxes.setdefault(owner, []).append(
                (h_inverse[d], slice(v0[d], v1[d]), slice(u0[d], u1[d])))
    for owner, frame_boxes in boxes.items():
        _paste_boxes(frames[owner], rgba, k, frame_boxes)


def _paste_boxes(frame: np.ndarray, rgba: np.ndarray, k: int,
                 boxes: Sequence[Tuple[np.ndarray, slice, slice]]) -> None:
    """Sample and composite one frame's decals, given each decal's inverse
    homography and bounding box (rows, cols), in order.

    Each decal maps its box back into the patch with its own matmul; the
    bilinear sampling, rgb and alpha in one gather, then runs once over
    the frame's boxes laid end to end. Per pixel every step is the
    one-decal arithmetic.
    """
    mapped = []
    for inverse, rows, cols in boxes:
        coords = np.empty((3, rows.stop - rows.start, cols.stop - cols.start))
        coords[0] = np.arange(cols.start, cols.stop)
        coords[1] = np.arange(rows.start, rows.stop)[:, None]
        coords[2] = 1.0
        mapped.append(inverse @ coords.reshape(3, -1))
    mapped = np.concatenate(mapped, axis=1)
    px = mapped[0] / mapped[2]
    py = mapped[1] / mapped[2]
    inside = (px >= 0) & (px <= k - 1) & (py >= 0) & (py <= k - 1)
    px_c = np.clip(px, 0, k - 1)
    py_c = np.clip(py, 0, k - 1)
    x_floor = np.floor(px_c).astype(int)
    y_floor = np.floor(py_c).astype(int)
    x_ceil = np.minimum(x_floor + 1, k - 1)
    y_ceil = np.minimum(y_floor + 1, k - 1)
    wx = (px_c - x_floor).astype(np.float32)
    wy = (py_c - y_floor).astype(np.float32)
    wx_1, wy_1 = 1 - wx, 1 - wy
    y_floor *= k
    y_ceil *= k
    sampled = (
        rgba[:, y_floor + x_floor] * wy_1 * wx_1
        + rgba[:, y_floor + x_ceil] * wy_1 * wx
        + rgba[:, y_ceil + x_floor] * wy * wx_1
        + rgba[:, y_ceil + x_ceil] * wy * wx
    )
    channels = len(rgba) - 1
    alpha_values = sampled[channels] * inside

    # Composite in quad order: decals on one frame may overlap.
    end = 0
    for _, rows, cols in boxes:
        region_shape = (rows.stop - rows.start, cols.stop - cols.start)
        start, end = end, end + region_shape[0] * region_shape[1]
        if not inside[start:end].any():
            continue
        alpha_map = alpha_values[start:end].reshape(region_shape)
        patch_map = sampled[:channels, start:end].reshape(channels, *region_shape)
        frame[:, rows, cols] = frame[:, rows, cols] * (1 - alpha_map) + patch_map * alpha_map
