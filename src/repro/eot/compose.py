"""The EOT pipeline A(·) of the paper's Eq. 1.

Applies a sampled transformation chain to a patch tensor in the fixed
order resize → rotation → brightness → gamma → perspective. The pipeline
also transforms the decal's alpha channel with the *geometric* subset of
the chain so that the cut-out silhouette moves with the ink.

:meth:`EOTPipeline.transform` runs the chain for a whole stack of decal
instances at once, one θ per instance: each geometric trick is one
:func:`~repro.nn.functional.grid_sample` over every instance, white-padded
for ink and transparent for alpha (DESIGN.md §17).
:meth:`~EOTPipeline.apply`, :meth:`~EOTPipeline.apply_geometric` and
:meth:`~EOTPipeline.sample_and_apply` are its one-θ cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

import numpy as np

from ..nn import Tensor
from ..nn import functional as F
from ..nn.tensor import where
from . import transforms as T
from .sampler import ALL_TRICKS, EOTSampler

__all__ = ["EOTPipeline"]

#: Out-of-range value of ink (white paper) and of alpha (transparent).
INK_PADDING, ALPHA_PADDING = 1.0, 0.0


def _warp(x: Tensor, grid: np.ndarray, padding: float, moved: np.ndarray) -> Tensor:
    """One trick's warp over every instance; an instance whose θ leaves
    this trick at identity (``moved`` False) skips it and keeps ``x``."""
    if not moved.any():
        return x
    warped = F.grid_sample(x, grid, padding_value=padding)
    if moved.all():
        return warped
    return where(moved[:, None, None, None], warped, x)


@dataclass
class EOTPipeline:
    """Samples θ ∼ p_θ and applies A(patch, θ).

    Parameters
    ----------
    sampler:
        Draws transformation parameters for the enabled trick subset.
    """

    sampler: EOTSampler

    @classmethod
    def with_tricks(cls, tricks: FrozenSet[str] = ALL_TRICKS, **ranges) -> "EOTPipeline":
        return cls(sampler=EOTSampler(tricks=frozenset(tricks), **ranges))

    def transform(self, source: Tensor, params: Sequence[T.TransformParams],
                  alpha: bool = False) -> Tensor:
        """A(source, θ_b) for every θ_b in ``params`` at once.

        ``source`` is ``(B, C, k, k)`` (one row per θ) or ``(1, C, k, k)``
        (one source for every θ). Ink sees every trick with white padding;
        an ``alpha`` source sees the geometric tricks only, with
        transparent padding and perspective's ``gx / d`` grid (§17).
        Returns ``(B, C, k, k)``, or ``source`` itself when no θ moves any
        instance. Each instance skips the tricks its θ leaves at identity,
        so its values are those of the trick-at-a-time chain.
        """
        size = source.shape[-1]
        padding = ALPHA_PADDING if alpha else INK_PADDING
        scales = [p.scale for p in params]
        angles = [p.angle_degrees for p in params]
        deltas = [p.brightness_delta for p in params]
        gammas = [p.gamma_value for p in params]
        tilts = [p.perspective_tilt for p in params]

        out = _warp(source, T.resize_grid(size, scales), padding,
                    np.asarray(scales) != 1.0)
        out = _warp(out, T.rotation_grid(size, angles), padding,
                    np.asarray(angles) != 0.0)
        if not alpha and (any(d != 0.0 for d in deltas) or any(g != 1.0 for g in gammas)):
            out = T.photometric(out, deltas, gammas)
        return _warp(out, T.perspective_grid(size, tilts, divide=alpha), padding,
                     np.asarray(tilts) != 0.0)

    def apply(self, patch: Tensor, params: T.TransformParams) -> Tensor:
        """Apply a fixed θ to a patch batch (N, C, k, k)."""
        return self.transform(patch, [params] * patch.shape[0])

    def apply_geometric(self, alpha: Tensor, params: T.TransformParams) -> Tensor:
        """Apply only the geometric part of θ (for the alpha channel).

        Photometric tricks must not fade the decal's silhouette, so alpha
        sees resize/rotation/perspective only. Out-of-range alpha samples
        read 0 (transparent), unlike the patch's white background.
        """
        return self.transform(alpha, [params] * alpha.shape[0], alpha=True)

    def sample_and_apply(
        self,
        patch: Tensor,
        rng: np.random.Generator,
        alpha: Optional[Tensor] = None,
    ) -> Tuple[Tensor, Optional[Tensor], T.TransformParams]:
        """Draw one θ and transform patch (and alpha if given)."""
        params = self.sampler.sample(rng)
        transformed = self.apply(patch, params)
        transformed_alpha = (
            self.apply_geometric(alpha, params) if alpha is not None else None
        )
        return transformed, transformed_alpha, params
