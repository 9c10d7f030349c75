"""PrimaryCaps layer (paper Fig. 5, layer L2).

A convolution whose output channels are grouped into capsules: with
``caps_types`` capsule types of dimension ``caps_dim`` the convolution
produces ``caps_types × caps_dim`` channels, reshaped into
``caps_types × H' × W'`` capsule vectors of length ``caps_dim`` and
squashed.  In the reference ShallowCaps this is a 9×9 stride-2
convolution producing 32 types of 8-D capsules on a 6×6 grid → 1152
capsules.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.capsnet.walk import FloatContext, capsule_rows
from repro.nn.conv import Conv2d
from repro.nn.module import Module
from repro.quant.qcontext import NULL_CONTEXT, QuantContext


class PrimaryCaps(Module):
    """Convolutional capsule layer with squash activation (no routing).

    Parameters
    ----------
    in_channels:
        Channels of the incoming feature map.
    caps_types:
        Number of capsule types (grids of capsules sharing weights).
    caps_dim:
        Dimension of each capsule vector.
    kernel_size, stride:
        Convolution hyperparameters (9 and 2 in ShallowCaps).
    name:
        Quantization-layer name (``"L2"`` in ShallowCaps).
    """

    def __init__(
        self,
        in_channels: int,
        caps_types: int,
        caps_dim: int,
        kernel_size: int = 9,
        stride: int = 2,
        name: str = "L2",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.caps_types = caps_types
        self.caps_dim = caps_dim
        self.name = name
        self.conv = Conv2d(
            in_channels,
            caps_types * caps_dim,
            kernel_size,
            stride=stride,
            rng=rng,
        )

    def forward(self, x: Tensor, q: QuantContext = NULL_CONTEXT) -> Tensor:
        """``(B, C, H, W)`` feature map → ``(B, num_caps, caps_dim)``."""
        ctx = FloatContext(q)
        return ctx.act(self.name, self.walk(ctx, x))

    def walk(self, ctx, x):
        """Everything up to (not including) the activation hook, in any
        walk context (:mod:`repro.capsnet.walk`).

        Depends on the layer's weights (``qw``) but not its ``qa``,
        which is why the staged engine caches this boundary separately.
        """
        weight = ctx.weight(self.name, "weight", self.conv.weight)
        bias = ctx.weight(self.name, "bias", self.conv.bias)
        # (B, types·dim, H, W) -> (B, types, dim, H, W) -> (B, types·H·W, dim)
        capsules = ctx.layout(
            ctx.conv(self.name, weight, bias, x, self.conv),
            lambda a: capsule_rows(a.reshape(
                a.shape[0], self.caps_types, self.caps_dim, *a.shape[2:]
            )),
        )
        return ctx.squash(self.name, capsules, self.caps_dim, -1)

    def output_caps(self, height: int, width: int) -> Tuple[int, int]:
        """(num_capsules, caps_dim) for a given input spatial size."""
        _, out_h, out_w = self.conv.output_shape(height, width)
        return (self.caps_types * out_h * out_w, self.caps_dim)
