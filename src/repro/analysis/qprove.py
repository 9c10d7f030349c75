"""qprove — abstract-interpretation range certifier for quantized models.

Propagates interval value ranges symbolically through every forward
stage of a bound model — convolution/matmul accumulator growth from the
frozen weight codes and the input range, squash/softmax output bounds,
dynamic-routing iterations unrolled with every ``QDR`` hook applied —
and derives, at every activation/routing quantization hook, the
*pre-clip integer code range* the fixed-point datapath can produce
there under the artifact's rounding scheme (TRN/RTN/RTNE/SR envelopes;
see :func:`repro.analysis.interval.preclip_code_bounds`).

The result is a :class:`Certificate`: per quantization layer, the
proven pre-clip code range (the hull over that layer's hook sites,
matching the granularity of the runtime
:class:`~repro.lint.sanitizer.FixedPointSanitizer` labels), the
minimum safe accumulator width in bits, and a PASS/FAIL verdict
against a configured accumulator width.  Soundness contract: the
static code range must contain every pre-clip code the sanitizer ever
observes for the same artifact — cross-validated by
``tests/test_qprove.py`` across schemes and the model zoo.

What is proven / assumed
------------------------
* **Proven** — containment of every pre-clip rounding-hook code,
  assuming input elements lie in the configured input range
  (default ``[0, 1]``, the synthetic datasets' range) and the forward
  follows the model's staged decomposition.
* **Assumed** — float32 roundoff is absorbed by the widening margin in
  :mod:`repro.analysis.interval`; weights are the artifact's frozen
  integer codes (exact by construction, no rounding events at serve
  time).

Model walks
-----------
Each model family (``ShallowCaps``, ``DeepCaps``, ``LeNet5``:
everything :func:`repro.api.session.build_model` can produce) is
described once, by its ``steps()`` walk over the structural op
vocabulary of :mod:`repro.capsnet.walk`.  Four contexts interpret the
same steps: autograd tensors (the float forward), intervals here
(certificates), intervals plus grids in :mod:`repro.analysis.qlower`
(lowering plans), and integer codes in
:mod:`repro.backend.int_backend` (execution).  A new family needs one
walk to be trained, certified, lowered and served on integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.interval import (
    Interval,
    add_interval,
    batchnorm_interval,
    clip_codes_to_value_interval,
    conv_interval,
    linear_interval,
    min_safe_bits,
    mul_interval,
    preclip_code_bounds,
    relu_interval,
    softmax_interval,
    squash_interval,
    sum_of_terms,
)
from repro.quant.fixed_point import FixedPointFormat

#: Certificate document version (bumped on incompatible schema changes).
CERTIFICATE_VERSION = 1

#: Default accumulator width the verdict is issued against: a 32-bit
#: integer MAC accumulator, the width of the paper's CapsAcc-style
#: datapath and of every mainstream edge ISA.
DEFAULT_ACCUMULATOR_BITS = 32


class CertificationError(ValueError):
    """The artifact/model cannot be certified (structure, not verdict)."""


@dataclass(frozen=True)
class HookSite:
    """One activation/routing quantization hook inside a layer."""

    site: str  #: ``"act"`` or ``"routing:<array>"``
    bits: Optional[int]  #: fractional wordlength (``None`` = passthrough)
    scale: float
    value_lo: float  #: pre-hook value bounds (real arithmetic + margin)
    value_hi: float
    code_lo: Optional[float]  #: pre-clip integer code bounds
    code_hi: Optional[float]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "bits": self.bits,
            "scale": self.scale,
            "value_range": [self.value_lo, self.value_hi],
            "code_range": (
                None if self.code_lo is None else [self.code_lo, self.code_hi]
            ),
        }


@dataclass(frozen=True)
class LayerCertificate:
    """Proven ranges and verdict inputs for one quantization layer."""

    layer: str
    #: Hull of the pre-clip code ranges over every quantizing hook site
    #: of the layer (``None`` when every hook is a passthrough).
    code_lo: Optional[float]
    code_hi: Optional[float]
    #: Smallest two's-complement accumulator width holding the hull.
    min_safe_bits: int
    sites: Tuple[HookSite, ...] = ()

    def contains_codes(self, lo: float, hi: float) -> bool:
        """Whether an observed pre-clip code range is inside the proof."""
        if self.code_lo is None or self.code_hi is None:
            return False
        return self.code_lo <= lo and hi <= self.code_hi

    def to_dict(self) -> Dict[str, Any]:
        return {
            "layer": self.layer,
            "code_range": (
                None if self.code_lo is None else [self.code_lo, self.code_hi]
            ),
            "min_safe_bits": self.min_safe_bits,
            "sites": [site.to_dict() for site in self.sites],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LayerCertificate":
        code = data.get("code_range")
        sites = tuple(
            HookSite(
                site=str(entry["site"]),
                bits=entry.get("bits"),
                scale=float(entry.get("scale", 1.0)),
                value_lo=float(entry["value_range"][0]),
                value_hi=float(entry["value_range"][1]),
                code_lo=(
                    None if entry.get("code_range") is None
                    else float(entry["code_range"][0])
                ),
                code_hi=(
                    None if entry.get("code_range") is None
                    else float(entry["code_range"][1])
                ),
            )
            for entry in data.get("sites", ())
        )
        return cls(
            layer=str(data["layer"]),
            code_lo=None if code is None else float(code[0]),
            code_hi=None if code is None else float(code[1]),
            min_safe_bits=int(data["min_safe_bits"]),
            sites=sites,
        )


@dataclass(frozen=True)
class Certificate:
    """The per-layer range certificate of one quantized artifact."""

    model: str
    scheme: str
    accumulator_bits: int
    input_lo: float
    input_hi: float
    layers: Tuple[LayerCertificate, ...]
    version: int = CERTIFICATE_VERSION

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> Tuple[str, ...]:
        """Layers whose hull needs more than the configured accumulator."""
        return tuple(
            cert.layer
            for cert in self.layers
            if cert.min_safe_bits > self.accumulator_bits
        )

    def layer(self, name: str) -> LayerCertificate:
        for cert in self.layers:
            if cert.layer == name:
                return cert
        raise KeyError(f"no certificate for layer '{name}'")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "model": self.model,
            "scheme": self.scheme,
            "accumulator_bits": self.accumulator_bits,
            "input_range": [self.input_lo, self.input_hi],
            "passed": self.passed,
            "failures": list(self.failures),
            "layers": [cert.to_dict() for cert in self.layers],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Certificate":
        return cls(
            model=str(data["model"]),
            scheme=str(data["scheme"]),
            accumulator_bits=int(data["accumulator_bits"]),
            input_lo=float(data["input_range"][0]),
            input_hi=float(data["input_range"][1]),
            layers=tuple(
                LayerCertificate.from_dict(entry)
                for entry in data.get("layers", ())
            ),
            version=int(data.get("version", CERTIFICATE_VERSION)),
        )

    def report(self) -> str:
        """Human-readable per-layer report (printed by the CLI)."""
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"qprove certificate: {verdict} "
            f"(model={self.model}, scheme={self.scheme}, "
            f"accumulator={self.accumulator_bits} bits, "
            f"input=[{self.input_lo:g}, {self.input_hi:g}])"
        ]
        for cert in self.layers:
            if cert.code_lo is None:
                lines.append(
                    f"  {cert.layer:<4} passthrough (no quantizing hooks)"
                )
                continue
            status = (
                "ok"
                if cert.min_safe_bits <= self.accumulator_bits
                else "OVERFLOW"
            )
            lines.append(
                f"  {cert.layer:<4} codes [{cert.code_lo:.0f}, "
                f"{cert.code_hi:.0f}]  needs {cert.min_safe_bits} bits  "
                f"{status}"
            )
        if not self.passed:
            lines.append(
                "  under-provisioned layer(s): " + ", ".join(self.failures)
            )
        return "\n".join(lines)

    def check_observed(
        self, ranges: Dict[str, Tuple[float, float]]
    ) -> List[str]:
        """Cross-validate against sanitizer-observed pre-clip ranges.

        ``ranges`` is ``FixedPointSanitizer.report()["ranges"]`` (label →
        ``[lo, hi]`` observed codes).  Returns violation messages; the
        empty list means every observation is contained in the proof.
        """
        by_layer = {cert.layer: cert for cert in self.layers}
        violations = []
        for label, (lo, hi) in sorted(ranges.items()):
            cert = by_layer.get(label)
            if cert is None:
                violations.append(
                    f"observed codes for unknown layer '{label}'"
                )
            elif not cert.contains_codes(lo, hi):
                violations.append(
                    f"layer {label}: observed codes [{lo}, {hi}] escape "
                    f"certified [{cert.code_lo}, {cert.code_hi}]"
                )
        return violations


# ----------------------------------------------------------------------
# Abstract quantization context (interval analogue of FixedPointQuant)
# ----------------------------------------------------------------------
@dataclass
class _SiteLog:
    sites: Dict[str, List[HookSite]] = field(default_factory=dict)

    def record(self, layer: str, site: HookSite) -> None:
        self.sites.setdefault(layer, []).append(site)


class _AbstractContext:
    """Interval analogue of :class:`repro.quant.qcontext.FixedPointQuant`.

    ``weight()`` serves exact tensors (frozen dequantized codes when
    available, the model's float parameters otherwise); ``act()`` and
    ``routing()`` consume an :class:`Interval`, log the pre-clip code
    bounds under the same per-layer label the sanitizer uses, and
    return the post-clip value interval.

    Every structural operation of the model walks is funneled through
    an overridable method (``conv``/``linear``/``relu``/``squash``/...),
    so other static analyses — e.g. the integer-lowering pass in
    :mod:`repro.analysis.qlower` — reuse the same walk while
    propagating a richer abstract value.  The base implementations
    delegate to the interval transfer functions.
    """

    def __init__(
        self,
        config,
        scheme: str,
        weight_values: Dict[str, np.ndarray],
        act_scales: Dict[str, float],
        log: _SiteLog,
    ) -> None:
        self.config = config
        self.scheme = scheme
        self.weight_values = weight_values
        self.act_scales = dict(act_scales or {})
        self.log = log

    def weight(self, layer: str, name: str, param) -> Optional[np.ndarray]:
        frozen = self.weight_values.get(f"{layer}:{name}")
        if frozen is not None:
            return frozen
        if param is None:
            return None
        data = getattr(param, "data", param)
        return np.asarray(data, dtype=np.float64)

    def act(self, layer: str, value: Interval) -> Interval:
        bits = self.config[layer].qa
        return self._hook(layer, "act", bits, f"a:{layer}", value)

    def routing(self, layer: str, array: str, value: Interval) -> Interval:
        bits = self.config[layer].effective_qdr()
        return self._hook(
            layer, f"routing:{array}", bits, f"r:{layer}:{array}", value
        )

    def _hook(
        self,
        layer: str,
        site: str,
        bits: Optional[int],
        scale_key: str,
        value: Interval,
    ) -> Interval:
        if bits is None:
            self.log.record(
                layer,
                HookSite(site, None, 1.0, value.lo, value.hi, None, None),
            )
            return value
        fmt = FixedPointFormat(self.config.integer_bits, bits)
        scale = float(self.act_scales.get(scale_key, 1.0))
        widened = value.widen()
        code_lo, code_hi = preclip_code_bounds(widened, fmt, scale, self.scheme)
        self.log.record(
            layer,
            HookSite(
                site, bits, scale, widened.lo, widened.hi, code_lo, code_hi
            ),
        )
        return clip_codes_to_value_interval(code_lo, code_hi, fmt, scale)

    # ------------------------------------------------------------------
    # Structural ops (the walk vocabulary; overridable)
    # ------------------------------------------------------------------
    def input(self, x: Interval) -> Interval:
        """The model input (identity in the value domain)."""
        return x

    def layout(self, x: Interval, fn: Callable) -> Interval:
        """Reshape/transpose ``fn`` of a concrete tensor (identity on
        abstract values)."""
        return x

    def conv(self, layer, weight, bias, x, conv) -> Interval:
        return conv_interval(weight, bias, x, conv.padding)

    def linear(self, layer, weight, bias, x, fan_in=None) -> Interval:
        """Dense layer; with ``fan_in`` the capsule vote projection
        (one ``W_ij`` per input capsule, rows of ``fan_in``)."""
        w = weight if fan_in is None else weight.reshape(-1, fan_in)
        return linear_interval(w, bias, x)

    def relu(self, layer: str, x: Interval) -> Interval:
        return relu_interval(x)

    def avgpool(self, layer: str, x: Interval, kernel: int) -> Interval:
        # The mean of a window of values drawn from an interval stays
        # inside it, so pooling is interval-preserving.
        return x

    def batchnorm(self, layer: str, x: Interval, bn) -> Interval:
        return batchnorm_interval(
            x, bn.running_mean, bn.running_var,
            np.asarray(bn.gamma.data), np.asarray(bn.beta.data), bn.eps,
        )

    def squash(self, layer: str, x: Interval, dim: int, axis: int) -> Interval:
        return squash_interval(x)

    def softmax(self, layer: str, x: Interval, count: int) -> Interval:
        return softmax_interval()

    def mul(self, layer: str, a: Interval, b: Interval) -> Interval:
        return mul_interval(a, b)

    def add(self, layer: str, a: Interval, b: Interval) -> Interval:
        return add_interval(a, b)

    def sum_terms(self, layer: str, term: Interval, count: int) -> Interval:
        return sum_of_terms(term, count)

    def zero_logits(self, layer: str, votes) -> Interval:
        """The all-zero routing logits ``b_ij`` of ``votes``."""
        return Interval.point(0.0)

    def weighted_sum(self, layer: str, coupling, votes, count: int):
        """Routing ``s_j = Σ_i c_ij û_{j|i}`` over ``count`` inputs."""
        return self.sum_terms(layer, self.mul(layer, coupling, votes), count)

    def agreement(self, layer: str, votes, activation, count: int):
        """Routing agreement ``û_{j|i} · v_j`` over ``count`` dims."""
        return self.sum_terms(
            layer, self.mul(layer, votes, activation), count
        )


def model_steps(model) -> List:
    """The model's walk (:meth:`repro.capsnet.walk.StagedModel.steps`)."""
    steps = getattr(model, "steps", None)
    if not callable(steps):
        raise CertificationError(
            f"no model walker for model type {type(model).__name__}; "
            f"supported: ShallowCaps, DeepCaps, LeNet5"
        )
    return steps()


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def certify_model(
    model,
    config,
    scheme: str,
    weight_values: Optional[Dict[str, np.ndarray]] = None,
    act_scales: Optional[Dict[str, float]] = None,
    accumulator_bits: int = DEFAULT_ACCUMULATOR_BITS,
    input_range: Tuple[float, float] = (0.0, 1.0),
) -> Certificate:
    """Certify a (model, quantization-config, scheme) combination.

    ``weight_values`` maps ``"layer:name"`` to the *exact* tensors the
    quantized forward uses (frozen dequantized codes); hooks without an
    entry fall back to the model's float parameters.
    """
    if accumulator_bits < 1:
        raise CertificationError(
            f"accumulator_bits must be >= 1, got {accumulator_bits}"
        )
    steps = model_steps(model)
    expected = list(getattr(model, "quant_layers", []))
    if list(config.layer_names) != expected:
        raise CertificationError(
            f"config layers {list(config.layer_names)} do not match model "
            f"layers {expected}"
        )
    log = _SiteLog()
    ctx = _AbstractContext(
        config, scheme, dict(weight_values or {}), act_scales or {}, log
    )
    x = ctx.input(Interval(float(input_range[0]), float(input_range[1])))
    for _, _, fn in steps:
        x = fn(ctx, x)

    layers = []
    for layer in config.layer_names:
        sites = tuple(log.sites.get(layer, ()))
        coded = [s for s in sites if s.code_lo is not None]
        if coded:
            code_lo = min(s.code_lo for s in coded)
            code_hi = max(s.code_hi for s in coded)
            needed = min_safe_bits(code_lo, code_hi)
        else:
            code_lo = code_hi = None
            needed = 0
        layers.append(
            LayerCertificate(
                layer=layer,
                code_lo=code_lo,
                code_hi=code_hi,
                min_safe_bits=needed,
                sites=sites,
            )
        )
    return Certificate(
        model=type(model).__name__,
        scheme=scheme,
        accumulator_bits=int(accumulator_bits),
        input_lo=float(input_range[0]),
        input_hi=float(input_range[1]),
        layers=tuple(layers),
    )


def certify_artifact(
    artifact,
    model=None,
    accumulator_bits: int = DEFAULT_ACCUMULATOR_BITS,
    input_range: Tuple[float, float] = (0.0, 1.0),
) -> Certificate:
    """Certify a :class:`~repro.api.artifact.ModelArtifact`.

    With ``model=None`` the artifact's spec provenance rebuilds the
    model exactly like :meth:`Session.serve` does (structure, batch-norm
    statistics and any non-quantized parameters come from there; all
    quantized weights come from the artifact's frozen codes).
    """
    if model is None:
        if artifact.spec is None:
            raise CertificationError(
                "artifact has no spec provenance; pass the bound model "
                "explicitly (certify_artifact(artifact, model=...))"
            )
        from repro.api.session import Session

        model = Session(dict(artifact.spec)).model
    weight_values = {
        key: np.asarray(codes, dtype=np.float64) * fmt.eps * scale
        for key, (codes, fmt, scale) in artifact.weight_codes.items()
    }
    return certify_model(
        model,
        artifact.config,
        artifact.scheme,
        weight_values=weight_values,
        act_scales=artifact.act_scales,
        accumulator_bits=accumulator_bits,
        input_range=input_range,
    )
