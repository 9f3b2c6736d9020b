"""Patch generator G(z).

A DCGAN-style generator producing one-channel (monochrome) k×k patches in
[0, 1]: dense projection to a coarse feature map, two nearest-neighbour
upsample + conv stages, then a 1×1 conv and sigmoid. A final bilinear
resize hits patch sizes that are not multiples of 4 (the paper sweeps
k ∈ {20, 40, 60, 80}). Each upsample + conv runs as one
:func:`~repro.nn.functional.upsample_conv2d` on the coarse map, with
batch norm and leaky ReLU on the upsampled output as before.

Monochrome output is a paper design decision, not a shortcut: single-color
decals survive printing (§II-B) and look like ordinary road paint.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.init import dcgan_normal

__all__ = ["PatchGenerator"]


class PatchGenerator(nn.Module):
    """Generator mapping latent noise to a monochrome patch.

    Parameters
    ----------
    patch_size:
        Output side length k in pixels.
    latent_dim:
        Dimension of the noise input z.
    base_channels:
        Channel width of the coarsest feature map.
    """

    def __init__(self, patch_size: int, latent_dim: int = 32,
                 base_channels: int = 32, seed: int = 0):
        super().__init__()
        if patch_size < 8:
            raise ValueError(f"patch_size must be >= 8, got {patch_size}")
        self.patch_size = patch_size
        self.latent_dim = latent_dim
        self.base_channels = base_channels
        self.coarse = max(math.ceil(patch_size / 4), 2)

        rng = np.random.default_rng(seed)
        self.project = nn.Linear(latent_dim, base_channels * self.coarse * self.coarse, rng=rng)
        self.block1 = nn.ConvBlock(base_channels, base_channels, 3, rng=rng)
        self.block2 = nn.ConvBlock(base_channels, base_channels // 2, 3, rng=rng)
        self.to_image = nn.Conv2d(base_channels // 2, 1, 1, rng=rng)
        # DCGAN init for the output layer keeps early patches mid-gray.
        self.to_image.weight.data = dcgan_normal(rng, self.to_image.weight.data.shape)

    def sample_latent(self, batch: int, rng: np.random.Generator) -> np.ndarray:
        """Draw z ∼ N(0, 1)."""
        return rng.normal(0.0, 1.0, size=(batch, self.latent_dim)).astype(np.float32)

    def forward(self, z: nn.Tensor) -> nn.Tensor:
        """Map (N, latent_dim) noise to (N, 1, k, k) patches in [0, 1]."""
        if z.shape[-1] != self.latent_dim:
            raise ValueError(f"latent dim {z.shape[-1]} != {self.latent_dim}")
        x = self.project(z)
        x = x.reshape((z.shape[0], self.base_channels, self.coarse, self.coarse))
        for block in (self.block1, self.block2):
            x = block.act(block.bn(F.upsample_conv2d(x, block.conv.weight)))
        x = F.sigmoid(self.to_image(x))
        current = x.shape[-1]
        if current != self.patch_size:
            x = F.interpolate_bilinear(x, (self.patch_size, self.patch_size))
        return x
