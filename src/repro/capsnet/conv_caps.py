"""Convolutional capsule layers (DeepCaps building blocks, paper Fig. 7).

Two variants, following Rajasegaran et al. (CVPR 2019):

* :class:`ConvCaps2d` — "CONV2D CAPS": a convolution over the flattened
  ``(types × dim)`` channel axis whose output is regrouped into capsules
  and squashed.  No routing; used for the three sequential layers of
  each DeepCaps cell and the parallel branch of the early cells.
* :class:`ConvCaps3d` — "CONV3D CAPS": produces a vote tensor from each
  input capsule *type* with convolution weights shared across types
  (this weight sharing is what the original implements as a 3-D
  convolution), then runs routing-by-agreement at every spatial
  location.  Used in the parallel branch of the last DeepCaps cell.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.capsnet.routing import walk_routing
from repro.capsnet.walk import FloatContext
from repro.nn.conv import Conv2d
from repro.nn.module import Module
from repro.quant.qcontext import NULL_CONTEXT, QuantContext


def _check_capsules(layer, maps) -> None:
    """Raise unless ``maps`` carry the layer's input capsule types and
    dimension ``(B, types, dim, H, W)``."""
    types, dim = maps.shape[1:3]
    if (types, dim) != (layer.in_types, layer.in_dim):
        raise ValueError(
            f"{layer.name}/{layer.weight_tag}: expected capsules "
            f"({layer.in_types}, {layer.in_dim}), got ({types}, {dim})"
        )


class ConvCaps2d(Module):
    """Capsule convolution with squash activation, no routing.

    Input/output tensors have capsule layout ``(B, types, dim, H, W)``.

    Parameters
    ----------
    in_types, in_dim:
        Input capsule types and dimension.
    out_types, out_dim:
        Output capsule types and dimension.
    kernel_size, stride, padding:
        Spatial convolution hyperparameters (3×3 in DeepCaps).
    name:
        Quantization-layer name of the *enclosing* cell; several
        ConvCaps2d layers inside a cell share one wordlength, matching
        the per-block bars of the paper's Fig. 12.
    quantize_output:
        Whether the squashed output passes through the activation hook.
        Inner layers of a cell leave this off; the cell quantizes its
        final output once.
    """

    def __init__(
        self,
        in_types: int,
        in_dim: int,
        out_types: int,
        out_dim: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        name: str = "cell",
        weight_tag: str = "conv",
        quantize_output: bool = False,
        init_gain: float = 4.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.in_types = in_types
        self.in_dim = in_dim
        self.out_types = out_types
        self.out_dim = out_dim
        self.name = name
        self.weight_tag = weight_tag
        self.quantize_output = quantize_output
        self.conv = Conv2d(
            in_types * in_dim,
            out_types * out_dim,
            kernel_size,
            stride=stride,
            padding=padding,
            rng=rng,
        )
        # Stacked squashes shrink capsule norms multiplicatively; without
        # an amplified initialization a deep capsule stack collapses to
        # zero signal (and zero gradient) before training starts.  The
        # gain places pre-squash norms in the nonlinearity's live region.
        self.conv.weight.data = self.conv.weight.data * np.float32(init_gain)

    def forward(self, x: Tensor, q: QuantContext = NULL_CONTEXT) -> Tensor:
        return self.walk(FloatContext(q), x)

    def walk(self, ctx, x):
        """The layer in any walk context (:mod:`repro.capsnet.walk`)."""
        weight = ctx.weight(
            self.name, f"{self.weight_tag}.weight", self.conv.weight
        )
        bias = ctx.weight(self.name, f"{self.weight_tag}.bias", self.conv.bias)

        def flatten(a):
            # (B, types, dim, H, W) -> (B, types·dim, H, W)
            _check_capsules(self, a)
            return a.reshape(a.shape[0], -1, *a.shape[3:])

        out = ctx.layout(
            ctx.conv(self.name, weight, bias, ctx.layout(x, flatten), self.conv),
            lambda a: a.reshape(
                a.shape[0], self.out_types, self.out_dim, *a.shape[2:]
            ),
        )
        out = ctx.squash(self.name, out, self.out_dim, 2)
        if self.quantize_output:
            out = ctx.act(self.name, out)
        return out

    def output_shape(self, height: int, width: int) -> Tuple[int, int, int, int]:
        """(types, dim, H', W') for a given input spatial size."""
        _, out_h, out_w = self.conv.output_shape(height, width)
        return (self.out_types, self.out_dim, out_h, out_w)


class ConvCaps3d(Module):
    """Capsule convolution with dynamic routing at each spatial location.

    The vote projection is a convolution from one input type's ``in_dim``
    channels to ``out_types × out_dim`` channels, shared across input
    types (the "3-D convolution" of DeepCaps).  Votes of shape
    ``(B, in_types, out_types, out_dim)`` are routed independently at
    every output location (softmax over the ``out_types`` axis), by
    folding the spatial grid into the batch before routing.
    """

    def __init__(
        self,
        in_types: int,
        in_dim: int,
        out_types: int,
        out_dim: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        routing_iterations: int = 3,
        name: str = "cell",
        weight_tag: str = "conv3d",
        init_gain: float = 4.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.in_types = in_types
        self.in_dim = in_dim
        self.out_types = out_types
        self.out_dim = out_dim
        self.routing_iterations = routing_iterations
        self.name = name
        self.weight_tag = weight_tag
        self.conv = Conv2d(
            in_dim,
            out_types * out_dim,
            kernel_size,
            stride=stride,
            padding=padding,
            bias=False,
            rng=rng,
        )
        # See ConvCaps2d: amplified init keeps deep squash stacks alive.
        self.conv.weight.data = self.conv.weight.data * np.float32(init_gain)

    def forward(self, x: Tensor, q: QuantContext = NULL_CONTEXT) -> Tensor:
        return self.walk(FloatContext(q), x)

    def walk(self, ctx, x):
        """The layer in any walk context (:mod:`repro.capsnet.walk`)."""
        weight = ctx.weight(
            self.name, f"{self.weight_tag}.weight", self.conv.weight
        )
        in_types, out_types, out_dim = (
            self.in_types, self.out_types, self.out_dim
        )
        grid: Dict[str, Any] = {}

        def fold(a):
            # The projection is shared across input types: fold them
            # into the batch.
            _check_capsules(self, a)
            return a.reshape(-1, *a.shape[2:])

        def to_votes(a):
            # (B·I, J·D, H', W') -> (B·H'·W', I, J, D): route per location.
            _, _, height, width = a.shape
            grid.update(batch=a.shape[0] // in_types, hw=(height, width))
            votes = a.reshape(-1, in_types, out_types, out_dim, height, width)
            return votes.transpose(0, 4, 5, 1, 2, 3).reshape(
                -1, in_types, out_types, out_dim
            )

        def from_routed(a):
            # (B·H'·W', J, D) -> (B, J, D, H', W').
            routed = a.reshape(grid["batch"], *grid["hw"], out_types, out_dim)
            return routed.transpose(0, 3, 4, 1, 2)

        votes = ctx.layout(
            ctx.conv(self.name, weight, None, ctx.layout(x, fold), self.conv),
            to_votes,
        )
        routed = walk_routing(
            ctx, self.name, votes, self.routing_iterations,
            in_caps=in_types, out_caps=out_types, out_dim=out_dim,
        )
        return ctx.layout(routed, from_routed)

    def output_shape(self, height: int, width: int) -> Tuple[int, int, int, int]:
        _, out_h, out_w = self.conv.output_shape(height, width)
        return (self.out_types, self.out_dim, out_h, out_w)
