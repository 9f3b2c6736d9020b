"""The per-instance EOT chain, kept as the oracle for the stacked one.

These are the implementations that ``repro.eot``, ``repro.nn.functional``
and ``repro.attack.trainer`` replaced with stacked two-pass code
(DESIGN.md §17): the valid-mask bilinear sampler, the trick-at-a-time
pipeline that warps one decal instance's ink and alpha with their own
sampler calls, and the attack step that draws each instance's θ and then
transforms it before drawing the next. The stacked code must reproduce
their composites byte for byte and leave the generator in the same state;
its patch gradient differs only by the order in which instance
contributions are summed.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.eot.transforms import TransformParams, blur3, print_response
from repro.nn import Tensor, concatenate
from repro.nn.tensor import _define_backward, _make, _route, ensure_tensor
from repro.patch.apply import apply_patches
from repro.patch.mask import soft_background_mask
from repro.scene.physical import CaptureModel, _illumination_field, _shadow_band


def grid_sample(x: Tensor, grid: np.ndarray, padding_value: float = 0.0) -> Tensor:
    """Bilinear sampling with a per-corner validity mask (one grid and one
    source per instance, one padding value)."""
    x = ensure_tensor(x)
    n, c, h, w = x.data.shape
    grid = np.asarray(grid, dtype=np.float32)
    if grid.shape[0] != n or grid.shape[-1] != 2:
        raise ValueError(f"grid shape {grid.shape} incompatible with input {x.data.shape}")

    gx = (grid[..., 0] + 1) * 0.5 * (w - 1)
    gy = (grid[..., 1] + 1) * 0.5 * (h - 1)
    x0 = np.floor(gx).astype(np.int64)
    y0 = np.floor(gy).astype(np.int64)
    x1, y1 = x0 + 1, y0 + 1
    wx = (gx - x0).astype(np.float32)
    wy = (gy - y0).astype(np.float32)

    def corner(iy, ix):
        valid = ((iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)).astype(np.float32)
        iy_c = np.clip(iy, 0, h - 1)
        ix_c = np.clip(ix, 0, w - 1)
        batch = np.arange(n)[:, None, None]
        values = x.data[batch, :, iy_c, ix_c]  # (n, out_h, out_w, c)
        values = values * valid[..., None] + padding_value * (1 - valid[..., None])
        return values, valid, iy_c, ix_c

    v00, m00, y00, x00 = corner(y0, x0)
    v01, m01, y01, x01 = corner(y0, x1)
    v10, m10, y10, x10 = corner(y1, x0)
    v11, m11, y11, x11 = corner(y1, x1)
    w00 = ((1 - wy) * (1 - wx))[..., None]
    w01 = ((1 - wy) * wx)[..., None]
    w10 = (wy * (1 - wx))[..., None]
    w11 = (wy * wx)[..., None]
    value = v00 * w00 + v01 * w01 + v10 * w10 + v11 * w11
    out = _make(value.transpose(0, 3, 1, 2).astype(np.float32), (x,))

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32).transpose(0, 2, 3, 1)
        grad_x = np.zeros_like(x.data)
        batch = np.arange(n)[:, None, None]
        for weight_map, mask, iy, ix in (
            (w00, m00, y00, x00),
            (w01, m01, y01, x01),
            (w10, m10, y10, x10),
            (w11, m11, y11, x11),
        ):
            contrib = grad * weight_map * mask[..., None]
            np.add.at(grad_x, (batch, slice(None), iy, ix), contrib)
        _route(x, grad_x, staged)

    _define_backward(out, backward)
    return out


def _identity_grid(size: int) -> Tuple[np.ndarray, np.ndarray]:
    coords = np.linspace(-1.0, 1.0, size, dtype=np.float32)
    gy, gx = np.meshgrid(coords, coords, indexing="ij")
    return gy, gx


def _warp(x: Tensor, src_x: np.ndarray, src_y: np.ndarray, padding: float) -> Tensor:
    grid = np.stack([src_x, src_y], axis=-1)[None]
    grid = np.repeat(grid, x.shape[0], axis=0).astype(np.float32)
    return grid_sample(x, grid, padding_value=padding)


def resize(patch: Tensor, scale: float, padding: float = 1.0) -> Tensor:
    gy, gx = _identity_grid(patch.shape[-1])
    factor = 1.0 / max(scale, 1e-3)
    return _warp(patch, gx * factor, gy * factor, padding)


def rotate(patch: Tensor, angle_degrees: float, padding: float = 1.0) -> Tensor:
    gy, gx = _identity_grid(patch.shape[-1])
    angle = math.radians(angle_degrees)
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    return _warp(patch, cos_a * gx - sin_a * gy, sin_a * gx + cos_a * gy, padding)


def brightness(patch: Tensor, delta: float) -> Tensor:
    return (patch + float(delta)).clip(0.0, 1.0)


def gamma(patch: Tensor, value: float) -> Tensor:
    return patch.clip(1e-4, 1.0) ** float(value)


def perspective(patch: Tensor, tilt: float) -> Tensor:
    """The ink's grid: ``gx · (1/d)``."""
    tilt = float(np.clip(tilt, 0.0, 0.95))
    gy, gx = _identity_grid(patch.shape[-1])
    width_factor = 1.0 / (1.0 - tilt * (1.0 - (gy + 1.0) / 2.0))
    return _warp(patch, gx * width_factor, gy, 1.0)


def perspective_alpha(alpha: Tensor, tilt: float) -> Tensor:
    """The alpha's grid: ``gx / d`` (within an ulp of the ink's)."""
    tilt = float(np.clip(tilt, 0.0, 0.95))
    gy, gx = _identity_grid(alpha.shape[-1])
    return _warp(alpha, gx / (1.0 - tilt * (1.0 - (gy + 1.0) / 2.0)), gy, 0.0)


def apply(patch: Tensor, params: TransformParams) -> Tensor:
    """A(patch, θ) one trick at a time, skipping identity tricks."""
    out = patch
    if params.scale != 1.0:
        out = resize(out, params.scale)
    if params.angle_degrees != 0.0:
        out = rotate(out, params.angle_degrees)
    if params.brightness_delta != 0.0:
        out = brightness(out, params.brightness_delta)
    if params.gamma_value != 1.0:
        out = gamma(out, params.gamma_value)
    if params.perspective_tilt != 0.0:
        out = perspective(out, params.perspective_tilt)
    return out


def apply_geometric(alpha: Tensor, params: TransformParams) -> Tensor:
    """The geometric part of θ on the alpha channel (transparent padding)."""
    out = alpha
    if params.scale != 1.0:
        out = resize(out, params.scale, padding=0.0)
    if params.angle_degrees != 0.0:
        out = rotate(out, params.angle_degrees, padding=0.0)
    if params.perspective_tilt != 0.0:
        out = perspective_alpha(out, params.perspective_tilt)
    return out


def capture_augment(image: Tensor, rng: np.random.Generator) -> Tensor:
    """The capture-EOT, drawing from ``rng`` as it computes."""
    model = CaptureModel()
    _, _, h, w = image.shape
    field = _illumination_field((h, w), rng, model.illumination_amplitude)
    out = image * field[None, None]
    if rng.random() < model.shadow_probability:
        out = out * _shadow_band((h, w), rng, model.shadow_strength)[None, None]
    if rng.random() < 0.7:
        out = blur3(out)
    noise = rng.normal(0.0, model.noise_sigma, size=(1, 3, h, w)).astype(np.float32)
    return (out + noise).clip(0.0, 1.0)


def composite_batch(frames, patch: Tensor, sampler, rng: np.random.Generator,
                    capture_probability: float = 0.5,
                    leaves: Optional[list] = None) -> Tuple[Tensor, List[np.ndarray]]:
    """The per-instance attack step: for each frame, each placement draws
    its θ from ``sampler`` and is transformed (with its own soft mask),
    then the frame flips its capture coin and draws its capture-EOT.

    With a ``leaves`` list, each instance's ink and alpha instead start
    from their own leaf copies of ``patch``, appended as ``(ink, alpha)``:
    after a backward their gradients are the instance's two contributions
    to the patch gradient.
    """
    printed = print_response(patch)
    composited = []
    for frame in frames:
        patches, alphas = [], []
        for _ in frame.placements:
            params = sampler.sample(rng)
            ink_source, alpha_source = printed, patch
            if leaves is not None:
                ink_leaf = Tensor(patch.data, requires_grad=True)
                alpha_source = Tensor(patch.data, requires_grad=True)
                leaves.append((ink_leaf, alpha_source))
                ink_source = print_response(ink_leaf)
            patches.append(apply(ink_source, params))
            alphas.append(apply_geometric(soft_background_mask(alpha_source), params))
        image = apply_patches(frame.image, patches, alphas, frame.placements)
        if rng.random() < capture_probability:
            image = capture_augment(image, rng)
        composited.append(image)
    return concatenate(composited, axis=0), [f.target_box_xywh for f in frames]
