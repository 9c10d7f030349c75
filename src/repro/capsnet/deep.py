"""DeepCaps — Rajasegaran et al., CVPR 2019 (paper Fig. 7).

Six quantization layers, named as on the x-axis of the paper's Fig. 12:

* **L1** — 3×3 convolution + batch norm + ReLU, output regrouped into
  capsules;
* **B2..B5** — capsule cells: three sequential ConvCaps2d layers (the
  first with stride 2) plus a parallel skip ConvCaps branch whose output
  is added to the main path.  In the last cell (B5) the parallel branch
  is a ConvCaps3d performing dynamic routing;
* **L6** — fully-connected class capsules with dynamic routing.

Every ConvCaps inside one cell shares that cell's weight wordlength
``(Qw)_cell`` and the cell output is quantized once with
``(Qa)_cell`` — matching the per-block bars of Fig. 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.capsnet.caps_fc import CapsFC
from repro.capsnet.conv_caps import ConvCaps2d, ConvCaps3d
from repro.capsnet.walk import (
    FloatContext,
    StagedModel,
    Step,
    activation_step,
    capsule_rows,
)
from repro.nn.conv import Conv2d
from repro.nn.layers import BatchNorm2d
from repro.nn.module import Module
from repro.quant.qcontext import NULL_CONTEXT, QuantContext


@dataclass(frozen=True)
class DeepCapsConfig:
    """Architecture hyperparameters for :class:`DeepCaps`.

    Defaults reproduce the paper's full-size model for 64×64 inputs
    (CIFAR10 images are bilinearly resized to 64×64, paper Sec. IV-A).
    ``cell_types``/``cell_dims`` give (types, dim) for cells B2..B5; the
    reference model uses 32 types everywhere with dims (4, 8, 8, 8).
    """

    input_channels: int = 3
    input_size: int = 64
    conv1_channels: int = 128
    cell_types: Tuple[int, int, int, int] = (32, 32, 32, 32)
    cell_dims: Tuple[int, int, int, int] = (4, 8, 8, 8)
    num_classes: int = 10
    class_dim: int = 32
    routing_iterations: int = 3
    seed: int = 0


class CapsCell(Module):
    """One DeepCaps cell: 3 sequential ConvCaps + a parallel skip branch.

    ``x → c1(stride 2) → c2 → c3`` with ``skip(c1(x))`` added to the
    ``c3`` output.  With ``routed_skip=True`` the skip branch is a
    :class:`ConvCaps3d` (dynamic routing) — the configuration of the last
    DeepCaps cell.
    """

    def __init__(
        self,
        in_types: int,
        in_dim: int,
        out_types: int,
        out_dim: int,
        name: str,
        routed_skip: bool = False,
        routing_iterations: int = 3,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.name = name
        self.routed_skip = routed_skip
        self.conv1 = ConvCaps2d(
            in_types, in_dim, out_types, out_dim,
            stride=2, name=name, weight_tag="conv1", rng=rng,
        )
        self.conv2 = ConvCaps2d(
            out_types, out_dim, out_types, out_dim,
            name=name, weight_tag="conv2", rng=rng,
        )
        self.conv3 = ConvCaps2d(
            out_types, out_dim, out_types, out_dim,
            name=name, weight_tag="conv3", rng=rng,
        )
        if routed_skip:
            self.skip = ConvCaps3d(
                out_types, out_dim, out_types, out_dim,
                routing_iterations=routing_iterations,
                name=name, weight_tag="skip", rng=rng,
            )
        else:
            self.skip = ConvCaps2d(
                out_types, out_dim, out_types, out_dim,
                name=name, weight_tag="skip", rng=rng,
            )

    def forward(self, x: Tensor, q: QuantContext = NULL_CONTEXT) -> Tensor:
        ctx = FloatContext(q)
        return ctx.act(self.name, self.walk(ctx, x))

    def walk(self, ctx, x):
        """Everything up to (not including) the cell-output hook, in any
        walk context (:mod:`repro.capsnet.walk`).

        Depends on the cell's weights (and, with a routed skip, on its
        ``qa``/``qdr`` through the routing loop) but not on the final
        activation hook — the staged engine caches this boundary
        separately so activation-only probes skip the convolutions.
        """
        trunk = self.conv1.walk(ctx, x)
        main = self.conv3.walk(ctx, self.conv2.walk(ctx, trunk))
        lateral = self.skip.walk(ctx, trunk)
        return ctx.squash(
            self.name, ctx.add(self.name, main, lateral), self.conv3.out_dim, 2
        )

    def param_count(self) -> int:
        count = 0
        for layer in (self.conv1, self.conv2, self.conv3, self.skip):
            count += layer.conv.weight.size
            if layer.conv.bias is not None:
                count += layer.conv.bias.size
        return count


class DeepCaps(StagedModel):
    """DeepCaps model: Conv+BN → 4 capsule cells → class capsules."""

    #: Quantization-layer names, in order (x-axis of Fig. 12).
    quant_layers: List[str] = ["L1", "B2", "B3", "B4", "B5", "L6"]
    #: Layers containing dynamic routing (targets of Step 4A).
    routing_layers: List[str] = ["B5", "L6"]

    def __init__(self, config: Optional[DeepCapsConfig] = None):
        super().__init__()
        self.config = config if config is not None else DeepCapsConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        if cfg.conv1_channels % cfg.cell_dims[0] != 0:
            raise ValueError(
                f"conv1_channels ({cfg.conv1_channels}) must be divisible by "
                f"the first cell dim ({cfg.cell_dims[0]})"
            )
        self.conv1 = Conv2d(
            cfg.input_channels, cfg.conv1_channels, 3, padding=1, rng=rng
        )
        self.bn1 = BatchNorm2d(cfg.conv1_channels)
        in_types = cfg.conv1_channels // cfg.cell_dims[0]
        in_dim = cfg.cell_dims[0]

        cells = []
        size = cfg.input_size
        for index, (types, dim) in enumerate(zip(cfg.cell_types, cfg.cell_dims)):
            name = f"B{index + 2}"
            routed = index == len(cfg.cell_types) - 1
            cell = CapsCell(
                in_types, in_dim, types, dim,
                name=name,
                routed_skip=routed,
                routing_iterations=cfg.routing_iterations,
                rng=rng,
            )
            setattr(self, f"cell{index + 2}", cell)
            cells.append(cell)
            in_types, in_dim = types, dim
            size = (size + 2 - 3) // 2 + 1  # stride-2 3x3 conv, padding 1
        self._cells = cells
        self.final_size = size

        num_caps = cfg.cell_types[-1] * size * size
        self.class_caps = CapsFC(
            num_caps,
            cfg.cell_dims[-1],
            cfg.num_classes,
            cfg.class_dim,
            routing_iterations=cfg.routing_iterations,
            name="L6",
            rng=rng,
        )
        self.input_shape = (cfg.input_channels, cfg.input_size, cfg.input_size)
        self._build_stages()

    def steps(self) -> List[Step]:
        """The walk (:mod:`repro.capsnet.walk`), two steps per Fig. 12
        layer — compute and activation quantization — so activation-only
        probes reuse the cached convolution outputs.  The last cell's
        compute step also consumes ``qa``/``qdr`` (its skip branch
        routes), as does the class-capsule step."""
        conv1, bn1 = self.conv1, self.bn1
        dim0 = self.config.cell_dims[0]

        def l1(ctx, x):
            weight = ctx.weight("L1", "weight", conv1.weight)
            bias = ctx.weight("L1", "bias", conv1.bias)
            x = ctx.batchnorm("L1", ctx.conv("L1", weight, bias, x, conv1), bn1)
            return ctx.relu("L1", x)

        def l1_act(ctx, x):
            # Quantize, then regroup the channels into capsules.
            return ctx.layout(
                ctx.act("L1", x),
                lambda a: a.reshape(a.shape[0], -1, dim0, *a.shape[2:]),
            )

        def l6(ctx, x):
            return self.class_caps.walk(ctx, ctx.layout(x, capsule_rows))

        steps: List[Step] = [("L1", "", l1), ("L1", "act", l1_act)]
        for cell in self._cells:
            steps += [(cell.name, "", cell.walk), activation_step(cell.name)]
        steps.append(("L6", "", l6))
        return steps

    # ------------------------------------------------------------------
    # Introspection used by the framework and the memory accounting
    # ------------------------------------------------------------------
    def layer_param_counts(self) -> Dict[str, int]:
        """Parameter count per quantization layer (``P_l`` in Eq. 6)."""
        counts = {"L1": self.conv1.weight.size + self.conv1.bias.size}
        for cell in self._cells:
            counts[cell.name] = cell.param_count()
        counts["L6"] = self.class_caps.weight.size
        return counts
