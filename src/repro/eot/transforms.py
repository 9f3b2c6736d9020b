"""Differentiable Expectation-Over-Transformation (EOT) transforms.

The paper's EOT pool (§IV-C) is five "tricks": (1) resize, (2) rotation,
(3) brightness, (4) gamma, (5) perspective. Each transform here is
differentiable with respect to the patch so the generator learns decals
robust to the sampled distortion distribution — the core of Athalye et
al.'s EOT [2] applied to road decals.

Geometric transforms are sampling grids fed to
:func:`repro.nn.functional.grid_sample`, built for a whole stack of decal
instances at once (one θ per instance); photometric ones are tensor
arithmetic, and :func:`photometric` applies both with one (δ, γ) per
instance. The one-patch functions (:func:`resize`, :func:`rotate`,
:func:`brightness`, :func:`gamma`, :func:`perspective`) are the paper's
trick definitions on a single θ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..nn import Tensor
from ..nn import functional as F
from ..nn.tensor import _define_backward, _make, _route, ensure_tensor

__all__ = [
    "TransformParams",
    "resize",
    "rotate",
    "brightness",
    "gamma",
    "perspective",
    "photometric",
    "resize_grid",
    "rotation_grid",
    "perspective_grid",
    "print_response",
    "blur3",
    "TRICK_NAMES",
    "TRICK_NUMBERS",
]

#: Paper numbering of the five tricks (Table IV).
TRICK_NUMBERS = {1: "resize", 2: "rotation", 3: "brightness", 4: "gamma", 5: "perspective"}
TRICK_NAMES = {name: number for number, name in TRICK_NUMBERS.items()}


@dataclass
class TransformParams:
    """One sampled θ from the EOT distribution p_θ (Eq. 1)."""

    scale: float = 1.0            # resize factor
    angle_degrees: float = 0.0    # in-plane rotation
    brightness_delta: float = 0.0  # additive brightness
    gamma_value: float = 1.0      # non-linear brightness
    perspective_tilt: float = 0.0  # ground-plane foreshortening strength


def _identity_grid(size: int) -> Tuple[np.ndarray, np.ndarray]:
    coords = np.linspace(-1.0, 1.0, size, dtype=np.float32)
    gy, gx = np.meshgrid(coords, coords, indexing="ij")
    return gy, gx


def _per_instance(values: Sequence[float]) -> np.ndarray:
    """One float32 scalar per instance, shaped to broadcast over a grid."""
    return np.asarray(values, dtype=np.float32).reshape(-1, 1, 1)


def resize_grid(size: int, scales: Sequence[float]) -> np.ndarray:
    """Trick (1)'s ``(B, size, size, 2)`` sampling grids: a zoom about
    the centre, so the output keeps the input size."""
    gy, gx = _identity_grid(size)
    factor = _per_instance([1.0 / max(scale, 1e-3) for scale in scales])
    return np.stack([gx * factor, gy * factor], axis=-1)


def rotation_grid(size: int, angles_degrees: Sequence[float]) -> np.ndarray:
    """Trick (2)'s grids: in-plane rotation about the patch centre."""
    gy, gx = _identity_grid(size)
    radians = [math.radians(angle) for angle in angles_degrees]
    cos_a = _per_instance([math.cos(angle) for angle in radians])
    sin_a = _per_instance([math.sin(angle) for angle in radians])
    return np.stack([cos_a * gx - sin_a * gy, sin_a * gx + cos_a * gy], axis=-1)


def perspective_grid(size: int, tilts: Sequence[float], divide: bool = False) -> np.ndarray:
    """Trick (5)'s grids: rows near the top (gy = −1) come from a wider
    source span, ``gx / d`` with ``d = 1 − tilt·(1 − (gy + 1)/2)``.

    The ink has always computed it as ``gx · (1/d)`` and the alpha as
    ``gx / d`` (``divide=True``); the two differ by up to an ulp, so each
    keeps its own form and both stay byte-equal to what they were.
    """
    gy, gx = _identity_grid(size)
    tilt = _per_instance([float(np.clip(t, 0.0, 0.95)) for t in tilts])
    depth = 1.0 - tilt * (1.0 - (gy + 1.0) / 2.0)
    src_x = gx / depth if divide else gx * (1.0 / depth)
    return np.stack([src_x, np.broadcast_to(gy, src_x.shape)], axis=-1)


def _one_grid(patch: Tensor, grid: np.ndarray) -> Tensor:
    """Warp every row of ``patch`` with one instance's grid; out-of-range
    samples read the background (white = 1.0 for decals)."""
    grid = np.broadcast_to(grid, (patch.shape[0],) + grid.shape[1:])
    return F.grid_sample(patch, grid, padding_value=1.0)


def resize(patch: Tensor, scale: float) -> Tensor:
    """Trick (1): scale the patch (bilinear); output keeps the input size by
    sampling a zoomed grid, so compositions stay shape-stable."""
    return _one_grid(patch, resize_grid(patch.shape[-1], [scale]))


def rotate(patch: Tensor, angle_degrees: float) -> Tensor:
    """Trick (2): in-plane rotation about the patch center."""
    return _one_grid(patch, rotation_grid(patch.shape[-1], [angle_degrees]))


def brightness(patch: Tensor, delta: float) -> Tensor:
    """Trick (3): additive (linear) brightness shift, clipped to [0, 1];
    ``delta = 0`` is the identity."""
    count = patch.shape[0]
    return photometric(patch, [delta] * count, [1.0] * count)


def gamma(patch: Tensor, value: float) -> Tensor:
    """Trick (4): non-linear brightness ``p ** γ``; ``γ = 1`` is the
    identity.

    The paper notes gamma beats linear brightness because print/lighting
    response is non-linear; the base is clipped to [1e-4, 1] to keep it
    positive for the fractional power's gradient.
    """
    count = patch.shape[0]
    return photometric(patch, [0.0] * count, [value] * count)


def photometric(x: Tensor, deltas: Sequence[float], gammas: Sequence[float]) -> Tensor:
    """Tricks (3) then (4) with one (δ, γ) per instance on ``x``:
    ``(B, C, k, k)``, or ``(1, C, k, k)`` shared by the B instances.

    Instance b skips brightness where ``δ_b = 0`` and gamma where
    ``γ_b = 1``, as the trick-at-a-time chain does. Elsewhere its values
    and gradient are those of ``clip(x + δ_b, 0, 1)`` then
    ``clip(·, 1e-4, 1) ** γ_b``: the same float32 operations, one
    instance per row.
    """
    x = ensure_tensor(x)
    if any(value <= 0 for value in gammas):
        raise ValueError(f"gamma must be positive, got {min(gammas)}")
    shape = (len(deltas), 1, 1, 1)
    lit_rows = (np.asarray(deltas, dtype=np.float64) != 0).reshape(shape)
    delta = np.asarray(deltas, dtype=np.float32).reshape(shape)
    exponent = np.asarray(gammas, dtype=np.float64).reshape(shape)
    gamma_rows = exponent != 1
    shifted = x.data + delta
    lit = np.where(lit_rows, np.clip(shifted, 0.0, 1.0), x.data)
    base = np.clip(lit, 1e-4, 1.0)
    out = _make(np.where(gamma_rows, base ** exponent.astype(np.float32), lit), (x,))

    def backward(grad, staged):
        grad = np.asarray(grad, dtype=np.float32)
        grad = np.where(
            gamma_rows,
            grad * exponent.astype(np.float32)
            * base ** (exponent - 1).astype(np.float32)
            * ((lit >= 1e-4) & (lit <= 1.0)),
            grad)
        grad = np.where(lit_rows, grad * ((shifted >= 0.0) & (shifted <= 1.0)), grad)
        _route(x, grad, staged)

    _define_backward(out, backward)
    return out


def print_response(patch: Tensor, low: float = 0.06, high: float = 0.93,
                   response_gamma: float = 1.15) -> Tensor:
    """Differentiable printer response (gamut compression + ink gamma).

    Mirrors :class:`repro.scene.physical.PrintModel` for monochrome content:
    ink cannot reach pure black and paper is not pure white. Training the
    generator *through* this map is the reproduction's counterpart of the
    paper's printability-by-design argument (§II-B): the attack optimizes
    the decal as it will actually look after printing.
    """
    compressed = patch.clip(1e-4, 1.0) ** response_gamma
    return compressed * (high - low) + low


def blur3(image: Tensor) -> Tensor:
    """Differentiable 3×3 binomial blur applied per channel.

    Approximates the defocus + motion blur of the capture model so decal
    features that only exist at single-pixel scale are not rewarded during
    attack training.
    """
    kernel = np.asarray(
        [[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=np.float32
    ).reshape(1, 1, 3, 3) / 16.0
    n, c, h, w = image.shape
    flat = image.reshape((n * c, 1, h, w))
    blurred = F.conv2d(flat, Tensor(kernel), stride=1, padding=1)
    return blurred.reshape((n, c, h, w))


def perspective(patch: Tensor, tilt: float) -> Tensor:
    """Trick (5): ground-plane foreshortening.

    ``tilt`` ∈ [0, ~0.8) squeezes the far (top) edge of the patch, exactly
    the distortion a road decal undergoes as the camera approaches — the
    paper found this trick matters most (Table IV).
    """
    return _one_grid(patch, perspective_grid(patch.shape[-1], [tilt]))
