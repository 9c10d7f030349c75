"""Algorithm 2 — layer-wise quantization.

Starting from a uniform wordlength, the algorithm repeatedly lowers the
bits of the trailing layers ``[StartL .. L-1]`` together until accuracy
falls below the floor, restores one bit, then advances ``StartL`` —
producing a non-increasing wordlength profile across depth.  The first
layer (index 0) is never reduced, "each layer of the CapsNet (except the
first one) is selected" (paper Sec. III-A, Step 3A).

The same routine serves Step 3A (activations) and the second half of
Step 3B (weights) via the ``kind`` parameter.
"""

from __future__ import annotations

from typing import List

from repro.framework.evaluate import Evaluator
from repro.quant.config import QuantizationConfig

_KINDS = ("weights", "activations")


def _get_bits(config: QuantizationConfig, layer: str, kind: str) -> int:
    spec = config[layer]
    bits = spec.qw if kind == "weights" else spec.qa
    if bits is None:
        raise ValueError(
            f"layer '{layer}' has no initial {kind} wordlength; "
            "run the layer-uniform step first"
        )
    return bits


def _set_bits(config: QuantizationConfig, layer: str, kind: str, bits: int) -> None:
    if kind == "weights":
        config.set_qw(layer, bits)
    else:
        config.set_qa(layer, bits)


def layerwise_quantization(
    evaluator: Evaluator,
    config: QuantizationConfig,
    kind: str,
    acc_min: float,
    min_bits: int = 0,
) -> QuantizationConfig:
    """Run Algorithm 2 on ``kind`` ∈ {"weights", "activations"}.

    Returns a new configuration; ``config`` is not mutated.  Bits never
    drop below ``min_bits`` (a guard the pseudo-code leaves implicit —
    without it, a model whose accuracy never crosses the floor would
    decrement forever).

    Every decrement only needs the floor *verdict*, so candidates are
    checked with the early-exiting :meth:`Evaluator.meets_floor`.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got '{kind}'")

    config = config.clone()
    layers: List[str] = config.layer_names
    num_layers = len(layers)

    for start in range(1, num_layers):
        trailing = layers[start:]
        while True:
            current = [_get_bits(config, name, kind) for name in trailing]
            if all(bits <= min_bits for bits in current):
                break
            candidate = config.clone()
            for name in trailing:
                bits = _get_bits(candidate, name, kind)
                _set_bits(candidate, name, kind, max(bits - 1, min_bits))
            if not evaluator.meets_floor(candidate, acc_min):
                break  # keep `config` — the last configuration that passed
            config = candidate
    return config
