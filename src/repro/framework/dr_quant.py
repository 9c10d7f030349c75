"""Algorithm 3 — dynamic-routing quantization (Step 4A).

The paper's key specialization: the arrays flowing through the routing
loop (logits ``b``, coupling coefficients ``c``, pre-activations ``s``,
activations ``v``, agreements ``a`` — the red bars of Fig. 9) are
quantized *more aggressively* than the other activations, because the
routing coefficients are recomputed at every inference and adapt to the
quantization noise.

For each routing layer, starting from that layer's activation
wordlength ``Qa``, the routing bits ``QDR`` are decremented one at a
time while accuracy stays at or above the target.
"""

from __future__ import annotations

from repro.framework.evaluate import Evaluator
from repro.quant.config import QuantizationConfig


def routing_quantization(
    evaluator: Evaluator,
    config: QuantizationConfig,
    layer: str,
    acc_min: float,
    min_bits: int = 0,
) -> QuantizationConfig:
    """Run Algorithm 3 on one routing layer; returns a new configuration.

    The initial ``QDR`` is the layer's effective routing wordlength
    (``qdr`` if already set, else ``qa``); ``min_bits`` bounds the
    descent for models whose accuracy never crosses the floor.  Each
    decrement is a pure floor check, served by the early-exiting
    :meth:`Evaluator.meets_floor`.
    """
    config = config.clone()
    bits = config[layer].effective_qdr()
    if bits is None:
        raise ValueError(
            f"layer '{layer}' has no initial routing wordlength; "
            "run the activation quantization steps first"
        )

    while bits > min_bits:
        candidate = config.clone()
        candidate.set_qdr(layer, bits - 1)
        if not evaluator.meets_floor(candidate, acc_min):
            break
        config = candidate
        bits -= 1
    config.set_qdr(layer, bits)
    return config
