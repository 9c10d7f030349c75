"""LeNet-5 (LeCun et al., 1998) — the small-CNN baseline of Fig. 1.

Provides both the analytic statistics (for the memory / MACs-per-memory
comparison) and a runnable implementation with the same quantization
hook protocol as the CapsNets, so the Q-CapsNets framework can be
applied to a conventional CNN for comparison experiments (it simply has
no routing layers to specialize).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.analysis.arch_stats import ArchStats, LayerStats
from repro.capsnet.walk import StagedModel, Step, activation_step
from repro.nn.conv import Conv2d
from repro.nn.layers import Linear


def lenet5_stats() -> ArchStats:
    """Classic LeNet-5 statistics: 61,706 params, ≈0.42M MACs."""
    stats = ArchStats(name="LeNet")
    stats.layers.append(
        LayerStats("L1", "conv", params=5 * 5 * 1 * 6 + 6,
                   macs=28 * 28 * 25 * 6, activations=6 * 28 * 28)
    )
    stats.layers.append(
        LayerStats("L2", "conv", params=5 * 5 * 6 * 16 + 16,
                   macs=10 * 10 * 25 * 6 * 16, activations=16 * 10 * 10)
    )
    stats.layers.append(
        LayerStats("L3", "linear", params=400 * 120 + 120,
                   macs=400 * 120, activations=120)
    )
    stats.layers.append(
        LayerStats("L4", "linear", params=120 * 84 + 84,
                   macs=120 * 84, activations=84)
    )
    stats.layers.append(
        LayerStats("L5", "linear", params=84 * 10 + 10,
                   macs=84 * 10, activations=10)
    )
    return stats


class LeNet5(StagedModel):
    """Runnable LeNet-5 for 28×28 grayscale inputs (32×32 via padding).

    Forward returns logits ``(B, num_classes)``; use
    ``predict_fn=logit_predictions`` and ``loss_fn=cross_entropy`` with
    the :class:`~repro.nn.trainer.Trainer`.
    """

    quant_layers: List[str] = ["L1", "L2", "L3", "L4", "L5"]
    routing_layers: List[str] = []  # no dynamic routing to specialize
    input_shape = (1, 28, 28)

    def __init__(self, num_classes: int = 10, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.conv1 = Conv2d(1, 6, 5, padding=2, rng=rng)  # 28 -> 28
        self.conv2 = Conv2d(6, 16, 5, rng=rng)  # 14 -> 10
        self.fc1 = Linear(16 * 5 * 5, 120, rng=rng)
        self.fc2 = Linear(120, 84, rng=rng)
        self.fc3 = Linear(84, num_classes, rng=rng)
        self._build_stages()

    def steps(self) -> List[Step]:
        """The walk (:mod:`repro.capsnet.walk`): a compute and an
        activation-quantization step per layer, so the prefix-reuse
        engine serves the CNN baseline with the same machinery as the
        CapsNets."""
        steps: List[Step] = []
        for name, conv in (("L1", self.conv1), ("L2", self.conv2)):

            def conv_step(ctx, x, name=name, conv=conv):
                weight = ctx.weight(name, "weight", conv.weight)
                bias = ctx.weight(name, "bias", conv.bias)
                x = ctx.relu(name, ctx.conv(name, weight, bias, x, conv))
                return ctx.avgpool(name, x, 2)

            steps += [(name, "", conv_step), activation_step(name)]
        for name, fc in (("L3", self.fc1), ("L4", self.fc2), ("L5", self.fc3)):

            def fc_step(ctx, x, name=name, fc=fc):
                if name == "L3":
                    x = ctx.layout(x, lambda a: a.reshape(a.shape[0], -1))
                weight = ctx.weight(name, "weight", fc.weight)
                bias = ctx.weight(name, "bias", fc.bias)
                x = ctx.linear(name, weight, bias, x)
                return x if name == "L5" else ctx.relu(name, x)

            steps += [(name, "", fc_step), activation_step(name)]
        return steps

    def layer_param_counts(self) -> Dict[str, int]:
        return {
            "L1": self.conv1.weight.size + self.conv1.bias.size,
            "L2": self.conv2.weight.size + self.conv2.bias.size,
            "L3": self.fc1.weight.size + self.fc1.bias.size,
            "L4": self.fc2.weight.size + self.fc2.bias.size,
            "L5": self.fc3.weight.size + self.fc3.bias.size,
        }
