"""Quantization contexts — the hook objects threaded through model forwards.

The CapsNet models in :mod:`repro.capsnet` call three hooks at the exact
points marked in the paper's Fig. 9:

* ``weight(layer, name, tensor)`` — green: weights/biases, quantized
  with the layer's ``qw``;
* ``act(layer, tensor)`` — blue: activations (layer outputs and routing
  votes ``û``), quantized with ``qa``;
* ``routing(layer, array, tensor)`` — red: the dynamic-routing arrays
  (``logits b``, ``coupling c``, ``preactivation s``, ``activation v``,
  ``agreement a``), quantized with ``qdr`` (falling back to ``qa``).

Three implementations:

* :class:`QuantContext` (base) — identity hooks: FP32 behaviour.
* :class:`FixedPointQuant` — applies a
  :class:`~repro.quant.config.QuantizationConfig` with a rounding scheme.
* :class:`RecordingContext` — records array sizes for memory accounting.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.lint.sanitizer import active_sanitizer
from repro.quant.config import QuantizationConfig
from repro.quant.fixed_point import FixedPointFormat
from repro.quant.quantize import quantize
from repro.quant.rounding import RoundingScheme, StochasticRounding


def weight_scale_key(layer: str, name: str) -> str:
    return f"w:{layer}:{name}"


def act_scale_key(layer: str) -> str:
    return f"a:{layer}"


def routing_scale_key(layer: str, array: str) -> str:
    return f"r:{layer}:{array}"


def scaled_quantize(
    data: np.ndarray,
    fmt: FixedPointFormat,
    scheme: RoundingScheme,
    scale: float,
) -> np.ndarray:
    """Quantize ``data`` onto ``fmt``'s grid under a pre-scaling factor.

    Any ``scale != 1.0`` is applied (divide in, round, multiply out) —
    including sub-unit scales, which a hardware shared-exponent shift
    supports just as well as amplifying ones.  This is the single
    quantization kernel behind both the inference context
    (:class:`FixedPointQuant`) and the fine-tuning STE context
    (:class:`~repro.framework.finetune.StraightThroughQuant`), so their
    forward values are bit-identical by construction.

    The divide comes first and the rescale multiplies the freshly
    allocated quantizer output in place, so the result is bit-identical
    to ``scale * quantize(data / scale, ...)`` (float32 underflow of the
    divide included) without a second output buffer.
    """
    if scale != 1.0:
        out = quantize(data / scale, fmt, scheme)
        out *= scale
        return out
    return quantize(data, fmt, scheme)


def power_of_two_scale(max_abs: float) -> float:
    """Smallest power-of-two ≥ max_abs (and ≥ 1).

    Fixed-point formats here keep the paper's 1-bit integer part
    (range [-1, 1)); arrays whose dynamic range exceeds that — e.g.
    ReLU feature maps — are pre-scaled by a per-array power of two
    before rounding and rescaled after.  In hardware this is a shared
    per-tensor exponent (a shift), the "dynamic fixed point" of the
    Ristretto framework the paper cites [5]; it adds O(1) bits per
    tensor, which the memory accounting ignores as the paper does.
    """
    if max_abs <= 1.0 or not math.isfinite(max_abs):
        return 1.0
    return float(2.0 ** math.ceil(math.log2(max_abs)))


class QuantContext:
    """Identity context: models behave exactly as in FP32."""

    def weight(self, layer: str, name: str, tensor: Tensor) -> Tensor:
        return tensor

    def act(self, layer: str, tensor: Tensor) -> Tensor:
        return tensor

    def routing(self, layer: str, array: str, tensor: Tensor) -> Tensor:
        return tensor

    def reset(self) -> None:
        """Prepare for a fresh evaluation (clear caches, reseed RNGs)."""


#: Shared identity context used as the default ``q`` argument.
NULL_CONTEXT = QuantContext()


class FixedPointQuant(QuantContext):
    """Applies per-layer fixed-point quantization during a forward pass.

    Parameters
    ----------
    config:
        The per-layer wordlength assignment.
    scheme:
        Rounding scheme instance (TRN / RTN / RTNE / SR).
    seed:
        Seed restored on :meth:`reset` — makes stochastic rounding
        reproducible across evaluations, which the search requires (an
        accuracy measurement must be a pure function of the config).

    Weights are quantized once per evaluation and cached (they do not
    change between batches), exactly as a deployed model would store
    pre-quantized weights.

    The configuration is **snapshotted** (cloned) at construction: the
    search algorithms mutate configs in place between probes, and a live
    reference would let ``set_qw`` change the wordlength the context
    *reports* while the weight cache kept serving tensors quantized at
    the old one.  The cache is additionally keyed by the wordlength, so
    even direct mutation of :attr:`config` can never serve stale
    weights.

    ``scales`` maps array keys (see :func:`act_scale_key` /
    :func:`routing_scale_key`) to power-of-two pre-scaling factors,
    typically produced by :func:`repro.quant.calibrate.calibrate_scales`
    on the FP32 model.  Weight scales are derived from the parameter
    values themselves, so they need no calibration data.
    """

    def __init__(
        self,
        config: QuantizationConfig,
        scheme: RoundingScheme,
        seed: int = 0,
        scales: Optional[Dict[str, float]] = None,
    ):
        self.config = config.clone()
        self.scheme = scheme
        self.seed = seed
        self.scales = scales if scales is not None else {}
        self._weight_cache: Dict[Tuple[str, str, int], Tensor] = {}

    def _format(self, fractional_bits: int) -> FixedPointFormat:
        return FixedPointFormat(self.config.integer_bits, fractional_bits)

    def _apply(
        self, data: np.ndarray, bits: int, scale: float, label: str
    ) -> np.ndarray:
        sanitizer = active_sanitizer()
        if sanitizer is None:
            return scaled_quantize(data, self._format(bits), self.scheme, scale)
        with sanitizer.layer(label):
            return scaled_quantize(data, self._format(bits), self.scheme, scale)

    def weight(self, layer: str, name: str, tensor: Tensor) -> Tensor:
        bits = self.config[layer].qw
        if bits is None:
            return tensor
        key = (layer, name, bits)
        cached = self._weight_cache.get(key)
        if cached is not None:
            return cached
        scale = power_of_two_scale(float(np.abs(tensor.data).max(initial=0.0)))
        quantized = Tensor(self._apply(tensor.data, bits, scale, layer))
        self._weight_cache[key] = quantized
        return quantized

    def act(self, layer: str, tensor: Tensor) -> Tensor:
        bits = self.config[layer].qa
        if bits is None:
            return tensor
        scale = self.scales.get(act_scale_key(layer), 1.0)
        return Tensor(self._apply(tensor.data, bits, scale, layer))

    def routing(self, layer: str, array: str, tensor: Tensor) -> Tensor:
        bits = self.config[layer].effective_qdr()
        if bits is None:
            return tensor
        scale = self.scales.get(routing_scale_key(layer, array), 1.0)
        return Tensor(self._apply(tensor.data, bits, scale, layer))

    def clear_weight_cache(self) -> None:
        """Drop the pre-quantized weight tensors (keeps the RNG stream).

        For callers that are done running batches and only want to
        release memory; :meth:`reset` additionally reseeds stochastic
        rounding, which would perturb a stream being resumed.
        """
        self._weight_cache.clear()

    def weight_cache_snapshot(
        self, layers: Iterable[str]
    ) -> Dict[Tuple[str, str, int], Tensor]:
        """Pre-quantized weight tensors of the given layers (references).

        Used by the prefix-reuse engine: a boundary cache entry carries
        the quantized weights of its prefix layers so a context resuming
        from that boundary never re-quantizes them — under stochastic
        rounding a late re-quantization would draw from the wrong stream
        position and diverge from an uncached evaluation.
        """
        wanted = set(layers)
        return {
            key: tensor
            for key, tensor in self._weight_cache.items()
            if key[0] in wanted
        }

    def merge_weight_cache(
        self, entries: Dict[Tuple[str, str, int], Tensor]
    ) -> None:
        """Adopt pre-quantized weights from a matching-prefix context.

        Existing entries win: they were produced from an identical
        stream prefix, so both copies are bit-identical anyway.
        """
        for key, tensor in entries.items():
            self._weight_cache.setdefault(key, tensor)

    def reset(self) -> None:
        self._weight_cache.clear()
        if isinstance(self.scheme, StochasticRounding):
            self.scheme.reseed(self.seed)


class CalibrationContext(QuantContext):
    """Records the max |value| of every hooked array during FP32 passes.

    Feed a few batches through the model with this context, then convert
    the recorded ranges into power-of-two pre-scaling factors with
    :meth:`scales` (see :mod:`repro.quant.calibrate`).
    """

    def __init__(self):
        self.max_abs: Dict[str, float] = {}

    def _observe(self, key: str, tensor: Tensor) -> Tensor:
        value = float(np.abs(tensor.data).max(initial=0.0))
        if value > self.max_abs.get(key, 0.0):
            self.max_abs[key] = value
        return tensor

    def weight(self, layer: str, name: str, tensor: Tensor) -> Tensor:
        return self._observe(weight_scale_key(layer, name), tensor)

    def act(self, layer: str, tensor: Tensor) -> Tensor:
        return self._observe(act_scale_key(layer), tensor)

    def routing(self, layer: str, array: str, tensor: Tensor) -> Tensor:
        return self._observe(routing_scale_key(layer, array), tensor)

    def scales(self) -> Dict[str, float]:
        """Power-of-two pre-scaling factors for every observed array."""
        return {
            key: power_of_two_scale(value) for key, value in self.max_abs.items()
        }

    def reset(self) -> None:
        self.max_abs.clear()


class RecordingContext(QuantContext):
    """Records per-layer array sizes during a probe forward pass.

    Used with a batch-of-one input to measure, for each layer:

    * ``weight_elements[layer]`` — parameter count ``P_l`` (Eq. 6);
    * ``act_elements[layer]`` — activation elements ``A_l`` per sample;
    * ``routing_elements[(layer, array)]`` — per-array routing sizes
      (for the dynamic-routing energy model).

    Sizes accumulate over repeated calls within a layer but the context
    should be used for a single forward pass.
    """

    def __init__(self, batch_size: int = 1):
        self.batch_size = batch_size
        self.weight_elements: Dict[str, int] = {}
        self.act_elements: Dict[str, int] = {}
        self.routing_elements: Dict[Tuple[str, str], int] = {}

    def weight(self, layer: str, name: str, tensor: Tensor) -> Tensor:
        self.weight_elements[layer] = (
            self.weight_elements.get(layer, 0) + tensor.size
        )
        return tensor

    def act(self, layer: str, tensor: Tensor) -> Tensor:
        self.act_elements[layer] = (
            self.act_elements.get(layer, 0) + tensor.size // self.batch_size
        )
        return tensor

    def routing(self, layer: str, array: str, tensor: Tensor) -> Tensor:
        key = (layer, array)
        # Routing arrays are produced once per iteration; store the
        # per-sample size of one instance, not the sum over iterations.
        self.routing_elements[key] = tensor.size // self.batch_size
        return tensor

    def reset(self) -> None:
        self.weight_elements.clear()
        self.act_elements.clear()
        self.routing_elements.clear()
