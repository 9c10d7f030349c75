"""Capsule networks: squash, dynamic routing, capsule layers and models.

Implements the two architectures the paper evaluates:

* :class:`~repro.capsnet.shallow.ShallowCaps` — the original CapsNet of
  Sabour et al. (NIPS 2017): Conv → PrimaryCaps → DigitCaps (Fig. 5).
* :class:`~repro.capsnet.deep.DeepCaps` — Rajasegaran et al. (CVPR
  2019): a convolution followed by four capsule cells with skip
  connections and a class-capsule layer (Fig. 7).

Every forward pass threads a quantization context (``q``) through the
exact hook points of the paper's Fig. 9, so the same models serve FP32
training and quantized evaluation.
"""

from repro.capsnet.squash import squash
from repro.capsnet.routing import dynamic_routing
from repro.capsnet.primary import PrimaryCaps
from repro.capsnet.caps_fc import CapsFC
from repro.capsnet.conv_caps import ConvCaps2d, ConvCaps3d
from repro.capsnet.shallow import ShallowCaps, ShallowCapsConfig
from repro.capsnet.deep import CapsCell, DeepCaps, DeepCapsConfig
from repro.capsnet import presets

__all__ = [
    "squash",
    "dynamic_routing",
    "PrimaryCaps",
    "CapsFC",
    "ConvCaps2d",
    "ConvCaps3d",
    "ShallowCaps",
    "ShallowCapsConfig",
    "DeepCaps",
    "DeepCapsConfig",
    "CapsCell",
    "presets",
]
