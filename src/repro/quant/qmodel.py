"""Deployable quantized-model artifact.

The framework's output (a :class:`~repro.quant.config.QuantizationConfig`
plus a rounding scheme) describes *how* to quantize; this module
materializes *the quantized model itself* the way a deployment flow
would: every parameter stored as raw two's-complement integer codes
with its per-tensor power-of-two scale, plus the activation/routing
wordlengths and calibrated scales needed at runtime.

The artifact round-trips through a single ``.npz`` file and can run
inference directly (it reconstructs the fake-quantized weights exactly
— bit-identical to the search-time evaluation, as verified in tests).
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Dict, Optional

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.nn.module import Module
from repro.nn.trainer import default_predictions, evaluate_accuracy
from repro.quant.config import LayerQuantSpec, QuantizationConfig
from repro.quant.fixed_point import FixedPointFormat
from repro.quant.qcontext import (
    FixedPointQuant,
    QuantContext,
    power_of_two_scale,
)
from repro.quant.quantize import dequantize_from_int, quantize_to_int
from repro.quant.rounding import (
    RoundingScheme,
    StochasticRounding,
    get_rounding_scheme,
)


# ----------------------------------------------------------------------
# Sub-byte code packing (artifact format v2)
# ----------------------------------------------------------------------
def pack_codes(codes: np.ndarray, wordlength: int) -> np.ndarray:
    """Bit-pack two's-complement codes into ``wordlength``-wide fields.

    Values are laid out big-endian within each field and fields are
    concatenated without padding (the final byte is zero-padded), so a
    tensor of ``n`` codes occupies exactly ``ceil(n * wordlength / 8)``
    bytes — the ``bits x count`` storage the paper's memory accounting
    reports, instead of the 8 bytes/weight a whole int64 array costs.
    The inverse is :func:`unpack_codes`.
    """
    if not 1 <= wordlength <= 63:
        raise ValueError(
            f"wordlength must be in [1, 63], got {wordlength}"
        )
    flat = np.asarray(codes, dtype=np.int64).ravel()
    lo, hi = -(1 << (wordlength - 1)), (1 << (wordlength - 1)) - 1
    if flat.size and (int(flat.min()) < lo or int(flat.max()) > hi):
        raise ValueError(
            f"codes out of range [{lo}, {hi}] for wordlength {wordlength}"
        )
    # Two's complement: the low `wordlength` bits of the int64 pattern.
    unsigned = flat.astype(np.uint64) & np.uint64((1 << wordlength) - 1)
    shifts = np.arange(wordlength - 1, -1, -1, dtype=np.uint64)
    bits = ((unsigned[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel())


def unpack_codes(
    packed: np.ndarray, wordlength: int, count: int
) -> np.ndarray:
    """Inverse of :func:`pack_codes`: a flat ``int64`` array of ``count``
    sign-extended codes.

    Raises :class:`ValueError` when the payload is not the exact
    ``ceil(count * wordlength / 8)`` bytes of ``uint8`` the field layout
    requires — the truncation/corruption check the artifact loader
    relies on.
    """
    if not 1 <= wordlength <= 63:
        raise ValueError(
            f"wordlength must be in [1, 63], got {wordlength}"
        )
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    packed = np.asarray(packed)
    if packed.dtype != np.uint8 or packed.ndim != 1:
        raise ValueError(
            f"packed payload must be a 1-D uint8 array, got "
            f"{packed.ndim}-D {packed.dtype}"
        )
    expected = (count * wordlength + 7) // 8
    if packed.size != expected:
        raise ValueError(
            f"packed payload holds {packed.size} bytes, expected "
            f"{expected} for {count} codes of {wordlength} bits "
            "(truncated or corrupt)"
        )
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    bits = np.unpackbits(packed, count=count * wordlength)
    bits = bits.reshape(count, wordlength).astype(np.int64)
    weights = np.int64(1) << np.arange(
        wordlength - 1, -1, -1, dtype=np.int64
    )
    unsigned = bits @ weights
    # Sign-extend via shift pair (no 2**wordlength intermediate needed).
    shift = np.int64(64 - wordlength)
    return (unsigned << shift) >> shift


class _FrozenWeightContext(QuantContext):
    """Serves pre-quantized weights; quantizes activations at runtime."""

    def __init__(self, weights: Dict[str, Tensor], runtime: FixedPointQuant):
        self._weights = weights
        self._runtime = runtime

    def weight(self, layer: str, name: str, tensor: Tensor) -> Tensor:
        frozen = self._weights.get(f"{layer}:{name}")
        return frozen if frozen is not None else tensor

    def act(self, layer: str, tensor: Tensor) -> Tensor:
        return self._runtime.act(layer, tensor)

    def routing(self, layer: str, array: str, tensor: Tensor) -> Tensor:
        return self._runtime.routing(layer, array, tensor)

    def reset(self) -> None:
        self._runtime.reset()


class QuantizedCapsNet:
    """A trained model frozen under a quantization configuration.

    Parameters
    ----------
    model:
        The FP32 model (architecture + float parameters; the float
        parameters are not modified).
    config:
        Per-layer wordlengths from the framework.
    scheme:
        Rounding scheme used to freeze the weights and to round
        activations at runtime.
    act_scales:
        Calibrated power-of-two pre-scaling factors for activations and
        routing arrays (from :func:`repro.quant.calibrate.calibrate_scales`).
    """

    def __init__(
        self,
        model: Module,
        config: QuantizationConfig,
        scheme: RoundingScheme,
        act_scales: Optional[Dict[str, float]] = None,
        seed: int = 0,
    ):
        self.model = model
        self.config = config.clone()
        self.scheme = scheme
        self.act_scales = dict(act_scales) if act_scales else {}
        self.seed = seed
        #: layer:name -> (int codes, FixedPointFormat, scale)
        self.weight_codes: Dict[str, tuple] = {}
        self._freeze_weights()

    @classmethod
    def from_codes(
        cls,
        model: Module,
        config: QuantizationConfig,
        scheme: RoundingScheme,
        weight_codes: Dict[str, tuple],
        act_scales: Optional[Dict[str, float]] = None,
        seed: int = 0,
    ) -> "QuantizedCapsNet":
        """Bind already-frozen integer codes onto ``model``.

        Skips the freezing pass entirely — this is the deserialization
        path shared by :meth:`load` and the versioned
        :class:`repro.api.ModelArtifact` format; the float weights of
        ``model`` are irrelevant for the frozen layers.
        """
        instance = cls.__new__(cls)
        instance.model = model
        instance.config = config.clone()
        instance.scheme = scheme
        instance.act_scales = dict(act_scales) if act_scales else {}
        instance.seed = seed
        instance.weight_codes = dict(weight_codes)
        return instance

    # ------------------------------------------------------------------
    # Freezing
    # ------------------------------------------------------------------
    def _iter_hooked_params(self):
        """Every hooked ``(layer, name, param)``, read off the model's
        ``steps()`` walk by the no-array ``_FieldRecorder`` (no forward)."""
        from repro.capsnet.walk import _FieldRecorder

        steps = getattr(self.model, "steps", None)
        if not callable(steps):
            raise TypeError(
                f"{type(self.model).__name__} has no steps() walk"
            )
        params = []
        for layer, _, fn in steps():
            recorder = _FieldRecorder(layer)
            fn(recorder, None)
            params.extend(recorder.params)
        return params

    def _freeze_weights(self) -> None:
        if isinstance(self.scheme, StochasticRounding):
            self.scheme.reseed(self.seed)
        for layer, name, param in self._iter_hooked_params():
            bits = self.config[layer].qw
            if bits is None:
                continue
            fmt = FixedPointFormat(self.config.integer_bits, bits)
            scale = power_of_two_scale(float(np.abs(param.data).max(initial=0.0)))
            codes = quantize_to_int(param.data / scale, fmt, self.scheme)
            self.weight_codes[f"{layer}:{name}"] = (codes, fmt, scale)

    @cached_property
    def _frozen_tensors(self) -> Dict[str, Tensor]:
        """Dequantized float32 weights, built once (``weight_codes`` is set
        only at construction): read-only, shared by every :meth:`context`."""
        frozen = {}
        for key, (codes, fmt, scale) in self.weight_codes.items():
            values = (dequantize_from_int(codes, fmt) * scale).astype(np.float32)
            values.flags.writeable = False
            frozen[key] = Tensor(values)
        return frozen

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def context(self) -> QuantContext:
        """Runtime context: frozen weights + activation quantization."""
        runtime = FixedPointQuant(
            self.config, self.scheme, seed=self.seed, scales=self.act_scales
        )
        runtime.reset()
        return _FrozenWeightContext(self._frozen_tensors, runtime)

    def forward(self, images: np.ndarray) -> Tensor:
        with no_grad():
            return self.model(Tensor(images), q=self.context())

    def predict(self, images: np.ndarray) -> np.ndarray:
        return default_predictions(self.forward(images))

    def accuracy(self, images: np.ndarray, labels: np.ndarray,
                 batch_size: int = 128) -> float:
        return evaluate_accuracy(
            self.model, images, labels,
            batch_size=batch_size, q=self.context(),
            predict_fn=default_predictions,
        )

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def weight_storage_bits(self) -> int:
        """Bits needed to store the frozen integer weights."""
        return sum(
            codes.size * fmt.wordlength
            for codes, fmt, _ in self.weight_codes.values()
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist the artifact (codes + formats + scales + config)."""
        meta = {
            "scheme": self.scheme.name,
            "seed": self.seed,
            "integer_bits": self.config.integer_bits,
            "layer_names": self.config.layer_names,
            "specs": {
                name: {
                    "qw": spec.qw,
                    "qa": spec.qa,
                    "qdr": spec.qdr,
                }
                for name, spec in self.config.specs.items()
            },
            "act_scales": self.act_scales,
            "weight_meta": {
                key: {
                    "integer_bits": fmt.integer_bits,
                    "fractional_bits": fmt.fractional_bits,
                    "scale": scale,
                }
                for key, (codes, fmt, scale) in self.weight_codes.items()
            },
        }
        arrays = {
            f"codes:{key}": codes
            for key, (codes, _, _) in self.weight_codes.items()
        }
        np.savez(path, meta=json.dumps(meta), **arrays)

    @classmethod
    def load(cls, path, model: Module) -> "QuantizedCapsNet":
        """Restore an artifact saved with :meth:`save` onto ``model``.

        ``model`` must have the same architecture; its float weights are
        irrelevant for the frozen layers (codes take precedence).
        """
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
            config = QuantizationConfig(
                list(meta["layer_names"]), integer_bits=meta["integer_bits"]
            )
            for name, spec in meta["specs"].items():
                config.specs[name] = LayerQuantSpec(
                    spec["qw"], spec["qa"], spec["qdr"]
                )
            weight_codes = {}
            for key, info in meta["weight_meta"].items():
                fmt = FixedPointFormat(
                    info["integer_bits"], info["fractional_bits"]
                )
                weight_codes[key] = (
                    archive[f"codes:{key}"], fmt, info["scale"]
                )
            return cls.from_codes(
                model,
                config,
                get_rounding_scheme(meta["scheme"], seed=meta["seed"]),
                weight_codes,
                act_scales=dict(meta["act_scales"]),
                seed=meta["seed"],
            )
