"""Digital→physical degradation model.

The paper's central empirical claim is that *colored* adversarial patches
lose most of their effect when printed and photographed ("slight
discrepancies between the colors of the printed APs and their digital
counterparts", §IV-B), while monochrome decals survive. This module is the
substitution for their printer + camera loop (DESIGN.md §2):

* :func:`print_patch` — printer gamut compression, channel crosstalk and
  per-channel gain error. Nearly an identity for near-black/near-white
  pixels, strongly distorting for saturated colors.
* :func:`camera_degrade` — what the car's camera adds at capture time:
  low-frequency illumination/shadow fields, speed-proportional motion blur,
  defocus and sensor noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import ndimage

__all__ = [
    "PrintModel",
    "CaptureModel",
    "CaptureDraws",
    "print_patch",
    "draw_capture",
    "camera_degrade",
    "degrade_frames",
]


@dataclass(frozen=True)
class PrintModel:
    """Parameters of the printer gamut model.

    ``gamut_low``/``gamut_high`` compress the dynamic range (ink cannot
    reach pure black, paper is not pure white); ``crosstalk`` mixes channels
    toward gray (CMYK conversion loses saturation); ``gain_jitter`` is the
    per-channel calibration error that differs print to print.
    """

    gamut_low: float = 0.06
    gamut_high: float = 0.93
    crosstalk: float = 0.35
    gain_jitter: float = 0.08
    response_gamma: float = 1.15


def print_patch(
    patch_rgb: np.ndarray,
    rng: np.random.Generator,
    model: Optional[PrintModel] = None,
) -> np.ndarray:
    """Simulate printing a CHW decal image.

    Saturated colors are desaturated and shifted; monochrome content is
    barely affected (black → dark gray, white → off-white), which is exactly
    why the paper restricts its decals to one color.
    """
    model = model or PrintModel()
    patch = np.clip(np.asarray(patch_rgb, dtype=np.float32), 0.0, 1.0)
    if patch.ndim == 2:
        patch = patch[None]
    if patch.shape[0] == 1:
        patch = np.repeat(patch, 3, axis=0)

    # Channel crosstalk: mix each channel toward the pixel luminance.
    luminance = patch.mean(axis=0, keepdims=True)
    saturation = np.abs(patch - luminance).max(axis=0, keepdims=True)
    mix = model.crosstalk * np.clip(saturation * 3.0, 0.0, 1.0)
    printed = patch * (1 - mix) + luminance * mix

    # Per-channel gain calibration error.
    gains = 1.0 + rng.uniform(-model.gain_jitter, model.gain_jitter, size=(3, 1, 1))
    printed = printed * gains.astype(np.float32)

    # Non-linear ink response and gamut compression.
    printed = np.clip(printed, 0.0, 1.0) ** model.response_gamma
    printed = model.gamut_low + printed * (model.gamut_high - model.gamut_low)
    return printed.astype(np.float32)


@dataclass(frozen=True)
class CaptureModel:
    """Parameters of the capture-time degradation."""

    illumination_amplitude: float = 0.04
    shadow_probability: float = 0.3
    shadow_strength: float = 0.1
    defocus_sigma: float = 0.15
    noise_sigma: float = 0.005
    blur_per_speed: float = 0.05  # motion-blur pixels per km/h


@dataclass(frozen=True)
class CaptureDraws:
    """One frame's share of the generator for the capture model.

    :func:`draw_capture` takes these in the order :func:`camera_degrade`
    always has: the coarse illumination grid, the shadow coin (plus the
    band's angle and offset when it lands), then the sensor noise (kept
    as the float32 the frame adds).
    """

    coarse: np.ndarray
    shadow: Optional[Tuple[float, float]]
    noise: np.ndarray


def draw_capture(rng: np.random.Generator, shape: Tuple[int, int, int],
                 model: CaptureModel) -> CaptureDraws:
    """Consume ``rng`` exactly as :func:`camera_degrade` does for one
    CHW frame of ``shape``."""
    coarse = _coarse_grid(shape[1:], rng)
    shadow = None
    if rng.random() < model.shadow_probability:
        shadow = _band_draw(rng)
    noise = rng.normal(0.0, model.noise_sigma, size=shape).astype(np.float32)
    return CaptureDraws(coarse, shadow, noise)


def _coarse_grid(shape_hw, rng: np.random.Generator) -> np.ndarray:
    h, w = shape_hw
    return rng.normal(0.0, 1.0, size=(max(h // 16, 2), max(w // 16, 2)))


def _illumination_fields(coarse: np.ndarray, shape_hw, amplitude: float) -> np.ndarray:
    """Smooth multiplicative lighting fields in [1-a, 1+a], one per grid
    of the ``(F, gh, gw)`` stack ``coarse``."""
    h, w = shape_hw
    # One 2-D zoom per frame: a 3-D zoom over the stack gives the same
    # bytes but interpolates 8 corners per pixel instead of 4 (2× slower).
    field = np.stack([
        ndimage.zoom(grid, (h / grid.shape[0], w / grid.shape[1]), order=1)[:h, :w]
        for grid in coarse
    ])
    field /= np.abs(field).max(axis=(1, 2), keepdims=True) + 1e-9
    field *= amplitude
    field += 1.0
    return field.astype(np.float32)


def _illumination_field(shape_hw, rng: np.random.Generator,
                        amplitude: float) -> np.ndarray:
    """Smooth multiplicative lighting field in [1-a, 1+a]."""
    return _illumination_fields(_coarse_grid(shape_hw, rng)[None], shape_hw, amplitude)[0]


def _band_draw(rng: np.random.Generator) -> Tuple[float, float]:
    angle = rng.uniform(0, np.pi)
    offset = rng.uniform(0.2, 0.8)
    return angle, offset


def _band(shape_hw, angle: float, offset: float, strength: float) -> np.ndarray:
    h, w = shape_hw
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float32)
    axis = (np.cos(angle) * xs / w + np.sin(angle) * ys / h)
    band = np.exp(-((axis - offset) ** 2) / (2 * 0.08 ** 2))
    return (1.0 - strength * band).astype(np.float32)


def _shadow_band(shape_hw, rng: np.random.Generator, strength: float) -> np.ndarray:
    """A soft diagonal shadow band (e.g. cast by a structure)."""
    return _band(shape_hw, *_band_draw(rng), strength)


def camera_degrade(
    frame: np.ndarray,
    rng: np.random.Generator,
    speed_kmh: float = 0.0,
    model: Optional[CaptureModel] = None,
) -> np.ndarray:
    """Degrade a rendered CHW frame the way a real capture would.

    Motion blur grows with ``speed_kmh``, which is what makes the paper's
    "fast" setting the hardest for every attack (Tables I-VI all show the
    same monotone drop). The one-frame case of :func:`degrade_frames`;
    ``frame`` is left unchanged.
    """
    model = model or CaptureModel()
    frame = np.asarray(frame, dtype=np.float32)
    draws = draw_capture(rng, frame.shape, model)
    return degrade_frames(frame[None], [draws], [speed_kmh], model)[0]


def degrade_frames(
    frames: np.ndarray,
    draws: Sequence[CaptureDraws],
    speeds_kmh: Sequence[float],
    model: CaptureModel,
) -> np.ndarray:
    """:func:`camera_degrade` over an ``(F, C, H, W)`` float32 stack whose
    randomness was drawn beforehand, one :class:`CaptureDraws` per frame.

    The filters run over the stack with the frame axis untouched, so each
    frame comes out byte-identical to its own :func:`camera_degrade` call;
    ``frames`` is left unchanged.
    """
    _, _, h, w = frames.shape
    out = frames * _illumination_fields(np.stack([d.coarse for d in draws]), (h, w),
                                        model.illumination_amplitude)[:, None]
    for index, drawn in enumerate(draws):
        if drawn.shadow is not None:
            out[index] *= _band((h, w), *drawn.shadow, model.shadow_strength)[None]

    # Vertical streak: the scene flows downward/outward while driving.
    lengths = np.asarray([
        max(int(round(blur_px)), 1) if blur_px >= 0.5 else 0
        for blur_px in (model.blur_per_speed * max(s, 0.0) for s in speeds_kmh)
    ])
    for length in np.unique(lengths[lengths > 0]):
        blurred = lengths == length
        if blurred.all():  # one speed per video: filter the stack in place
            ndimage.uniform_filter1d(out, size=int(length) + 1, axis=2, output=out)
        else:
            out[blurred] = ndimage.uniform_filter1d(out[blurred], size=int(length) + 1,
                                                    axis=2)
    if model.defocus_sigma > 0:
        ndimage.gaussian_filter(out, sigma=(0, 0, model.defocus_sigma, model.defocus_sigma),
                                output=out)

    for index, drawn in enumerate(draws):
        out[index] += drawn.noise
    return np.clip(out, 0.0, 1.0, out=out)
