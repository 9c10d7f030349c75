"""ShallowCaps — the original CapsNet of Sabour et al. (paper Fig. 5).

Three quantization layers, named as on the x-axis of the paper's Fig. 11:

* **L1** — 9×9 convolution with ReLU;
* **L2** — PrimaryCaps: 9×9 stride-2 capsule convolution with squash;
* **L3** — DigitCaps: fully-connected capsules with dynamic routing.

The reference (paper) dimensions are 256 conv channels, 32 types of 8-D
primary capsules and 10 16-D digit capsules; the config makes every
width a parameter so that laptop-scale variants (see
:mod:`repro.capsnet.presets`) exercise identical code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.capsnet.caps_fc import CapsFC
from repro.capsnet.primary import PrimaryCaps
from repro.capsnet.walk import StagedModel, Step, activation_step
from repro.nn.conv import Conv2d


@dataclass(frozen=True)
class ShallowCapsConfig:
    """Architecture hyperparameters for :class:`ShallowCaps`.

    Defaults reproduce the paper's full-size model for 28×28 grayscale
    inputs (MNIST / FashionMNIST).
    """

    input_channels: int = 1
    input_size: int = 28
    conv1_channels: int = 256
    conv1_kernel: int = 9
    primary_types: int = 32
    primary_dim: int = 8
    primary_kernel: int = 9
    primary_stride: int = 2
    num_classes: int = 10
    class_dim: int = 16
    routing_iterations: int = 3
    seed: int = 0


class ShallowCaps(StagedModel):
    """CapsNet: Conv(ReLU) → PrimaryCaps → DigitCaps (Fig. 5).

    ``forward`` returns the class capsules ``(B, num_classes,
    class_dim)``; the capsule length is the class probability.
    """

    #: Quantization-layer names, in order (x-axis of Fig. 11).
    quant_layers: List[str] = ["L1", "L2", "L3"]
    #: Layers that contain dynamic routing (targets of Step 4A).
    routing_layers: List[str] = ["L3"]

    def __init__(self, config: Optional[ShallowCapsConfig] = None):
        super().__init__()
        self.config = config if config is not None else ShallowCapsConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        self.conv1 = Conv2d(
            cfg.input_channels, cfg.conv1_channels, cfg.conv1_kernel, rng=rng
        )
        _, conv_h, conv_w = self.conv1.output_shape(cfg.input_size, cfg.input_size)
        self.primary = PrimaryCaps(
            cfg.conv1_channels,
            cfg.primary_types,
            cfg.primary_dim,
            kernel_size=cfg.primary_kernel,
            stride=cfg.primary_stride,
            name="L2",
            rng=rng,
        )
        num_primary, _ = self.primary.output_caps(conv_h, conv_w)
        self.digit = CapsFC(
            num_primary,
            cfg.primary_dim,
            cfg.num_classes,
            cfg.class_dim,
            routing_iterations=cfg.routing_iterations,
            name="L3",
            rng=rng,
        )
        self.input_shape = (cfg.input_channels, cfg.input_size, cfg.input_size)
        self._build_stages()

    def steps(self) -> List[Step]:
        """The walk (:mod:`repro.capsnet.walk`), split at each layer's
        compute/quantize boundary: the compute step depends only on the
        layer's weights, so an activation-bits-only probe reuses the
        cached compute output and re-runs just the hook.  The routed L3
        consumes ``qa``/``qdr`` inside its loop and stays one step."""
        conv1 = self.conv1

        def l1(ctx, x):
            weight = ctx.weight("L1", "weight", conv1.weight)
            bias = ctx.weight("L1", "bias", conv1.bias)
            return ctx.relu("L1", ctx.conv("L1", weight, bias, x, conv1))

        return [
            ("L1", "", l1),
            activation_step("L1"),
            ("L2", "", self.primary.walk),
            activation_step("L2"),
            ("L3", "", self.digit.walk),
        ]

    # ------------------------------------------------------------------
    # Introspection used by the framework and the memory accounting
    # ------------------------------------------------------------------
    def layer_param_counts(self) -> Dict[str, int]:
        """Parameter count per quantization layer (``P_l`` in Eq. 6)."""
        return {
            "L1": self.conv1.weight.size + self.conv1.bias.size,
            "L2": self.primary.conv.weight.size + self.primary.conv.bias.size,
            "L3": self.digit.weight.size,
        }
