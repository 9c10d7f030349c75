"""Lowering-plan IR — the certified integer execution plan of qlower.

A :class:`LoweringPlan` is the machine-checked answer to "can this
artifact's forward pass run in pure integer arithmetic, and how": per
layer, an ordered list of :class:`OpPlan` records classifying every
structural op of the stage mirror as

* ``int-exact``     — exact integer arithmetic on a power-of-two value
  grid (MACs over frozen codes, ReLU, pooling sums, alignments whose
  scale ratio is a left shift);
* ``int-rescale``   — exact up to the artifact's own rounding scheme: a
  right shift whose rounding (TRN/RTN/RTNE/SR) reproduces the float
  fixed-point path bit for bit;
* ``int-approx``    — integer plans with a *proven* max-error bound
  (LUT softmax, iterative squash, quantized batch-norm multipliers,
  input grid rounding);
* ``float``         — float-contaminated, blocks lowering (QL040-series
  findings name the origin op and why).

Ops that rescale carry a :class:`RescalePlan` (grid exponents, shift
amount, rounding mode); approximated ops carry an :class:`ApproxPlan`
(method, operand format, certified domain, the proven bound, and any
coefficient tables).  Findings reuse the qlint
:class:`~repro.lint.findings.Finding` machinery under the QL040-series
rules; a plan with no blocking finding is ``lowerable``.

Exact contractions (``conv``/``linear`` MACs and the routing ``sum``
that follows a ``mul``) also record a ``carrier``: the float dtype whose
GEMM reproduces the int64 result bit for bit.  The analyzer bounds every
partial sum of the contraction by ``B`` (Σ|w|·|x| per output plus the
bias, or ``count · max|term|``), independent of summation order, so a
float carrier with a ``B``-wide exact integer range cannot round — see
:func:`choose_carrier`.  Squash ops record one too: ``float64`` when
their datapath bound (:func:`squash_bound`) is below ``2^52``, the
exact range of its floor divisions and square root — see
:func:`choose_squash_carrier`.  Plans without the field run on int64.
Squash ops also record a ``scale_carrier`` for their full-size scale
stage ``v = trunc(c·ratio/norm)``: ``float32`` when that stage's
numerator and divisor stay below ``2^24`` — see
:func:`choose_squash_scale_carrier`.  Plans without it run the stage on
the op's ``carrier``.

Serialization follows the qprove certificate idiom: ``to_dict`` /
``from_dict`` round-trip losslessly through JSON so plans persist inside
``ModelArtifact`` metadata and ``qcapsnets lower --out`` files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.lint.findings import Finding

#: Pseudo-layer name for the input grid-rounding op.
INPUT_LAYER = "<input>"

#: Plan document version (bumped on incompatible schema changes).
PLAN_VERSION = 1

KIND_EXACT = "int-exact"
KIND_RESCALE = "int-rescale"
KIND_APPROX = "int-approx"
KIND_FLOAT = "float"

#: Findings with any of these rules block lowering (exit 1).
BLOCKING_RULES = frozenset({"QL040", "QL041", "QL042", "QL043"})

#: Float GEMM carriers, narrowest first, with the exclusive bound on
#: integer magnitudes each represents exactly (its significand width).
CARRIER_LIMITS = (("float32", 2 ** 24), ("float64", 2 ** 53))

#: Exclusive bound on the squash datapath (:func:`squash_bound`) under
#: which it runs exactly on float64: the square root needs one bit of
#: head-room below the significand width.
SQUASH_CARRIER_LIMIT = 2 ** 52

#: Ops that contract (multiply-accumulate) and so may carry a carrier.
CONTRACTION_OPS = ("conv", "linear", "sum")

#: Every op that may record a carrier: the contractions and squash.
CARRIER_OPS = CONTRACTION_OPS + ("squash",)

#: Report label of a contraction without a float carrier.
INT64_CARRIER = "int64"


def choose_carrier(bound: int) -> Optional[str]:
    """The narrowest float carrier in which a contraction is exact.

    ``bound`` must bound the magnitude of every product and every
    partial sum, in any order of summation.  Every integer below the
    carrier's limit is then representable, so each float add and FMA
    is exact and the GEMM equals the int64 result.  ``None`` (int64)
    when no float carrier is wide enough.
    """
    for name, limit in CARRIER_LIMITS:
        if bound < limit:
            return name
    return None


def squash_bound(
    caps_dim: int, integer_bits: int, fractional_bits: int
) -> int:
    """``B = caps_dim · int_max² · 2^QF`` of a ⟨QI.QF⟩ squash operand.

    It bounds every intermediate of the integer squash datapath
    (:func:`repro.backend.int_kernels.squash_codes`): ``N2 · 2^QF``,
    ``N2 = Σ c²`` and ``|c| · ratio``.
    """
    int_max = (1 << (integer_bits + fractional_bits - 1)) - 1
    return (caps_dim * int_max ** 2) << fractional_bits


def choose_squash_carrier(bound: int) -> Optional[str]:
    """``"float64"`` when the squash datapath bound is below
    :data:`SQUASH_CARRIER_LIMIT`, else ``None`` (int64)."""
    return "float64" if bound < SQUASH_CARRIER_LIMIT else None


def choose_squash_scale_carrier(
    caps_dim: int, integer_bits: int, fractional_bits: int
) -> Optional[str]:
    """``"float32"`` when the full-size scale stage of a ⟨QI.QF⟩ squash
    operand is exact on float32, else ``None`` (the op's carrier).

    The stage is ``v = trunc(c · ratio / norm)``
    (:func:`repro.backend.int_kernels.squash_codes`).  With ``W = QI +
    QF`` it needs ``|c| · ratio <= 2^(W-1) · (2^QF - 1) < 2^24``
    (``|int_min| = 2^(W-1)``, ``ratio < 2^QF``) and ``norm =
    isqrt(N2) <= isqrt(caps_dim · 2^(2(W-1))) < 2^24``.
    """
    wordlength = integer_bits + fractional_bits
    numerator = (1 << (wordlength - 1)) * ((1 << fractional_bits) - 1)
    norm = math.isqrt(caps_dim << (2 * (wordlength - 1)))
    limit = dict(CARRIER_LIMITS)["float32"]
    return "float32" if numerator < limit and norm < limit else None


@dataclass(frozen=True)
class RescalePlan:
    """One quantization hook lowered to a shift with scheme rounding.

    Codes on the incoming grid ``2^in_exp`` move to the hook's output
    grid ``2^out_exp = scale·2^-bits`` by ``shift = out_exp - in_exp``:
    a right shift rounded by the artifact's scheme when positive, an
    exact left shift (``rounding == "exact"``) otherwise, followed by
    saturation to the hook format.  ``value_lo/hi`` are the certified
    (widened) pre-hook values the replay oracle samples from.
    """

    site: str
    bits: int
    scale: float
    in_exp: int
    out_exp: int
    shift: int
    rounding: str
    value_lo: float
    value_hi: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "bits": self.bits,
            "scale": self.scale,
            "in_exp": self.in_exp,
            "out_exp": self.out_exp,
            "shift": self.shift,
            "rounding": self.rounding,
            "value_range": [self.value_lo, self.value_hi],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RescalePlan":
        return cls(
            site=str(data["site"]),
            bits=int(data["bits"]),
            scale=float(data["scale"]),
            in_exp=int(data["in_exp"]),
            out_exp=int(data["out_exp"]),
            shift=int(data["shift"]),
            rounding=str(data["rounding"]),
            value_lo=float(data["value_range"][0]),
            value_hi=float(data["value_range"][1]),
        )


@dataclass(frozen=True)
class ApproxPlan:
    """A certified integer approximation of a non-linear op.

    ``method`` names the integer algorithm (``"nr-squash"``,
    ``"lut-softmax"``, ``"affine-bn"``, ``"grid-round"``), the operand
    format ``⟨integer_bits.operand_bits⟩`` reinterprets codes on grid
    ``2^operand_exp``, ``domain_lo/hi`` is the certified input interval
    the bound is proven over, and ``error_bound`` is that proven
    per-element bound (value domain).  ``tables`` carries any integer
    coefficient arrays (batch-norm multipliers etc.).
    """

    method: str
    domain_lo: float
    domain_hi: float
    error_bound: float
    operand_exp: int
    operand_bits: int
    integer_bits: int
    lut_entries: int = 0
    detail: str = ""
    tables: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "method": self.method,
            "domain": [self.domain_lo, self.domain_hi],
            "error_bound": self.error_bound,
            "operand_exp": self.operand_exp,
            "operand_bits": self.operand_bits,
            "integer_bits": self.integer_bits,
            "lut_entries": self.lut_entries,
            "detail": self.detail,
        }
        if self.tables:
            doc["tables"] = dict(self.tables)
        return doc

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ApproxPlan":
        return cls(
            method=str(data["method"]),
            domain_lo=float(data["domain"][0]),
            domain_hi=float(data["domain"][1]),
            error_bound=float(data["error_bound"]),
            operand_exp=int(data["operand_exp"]),
            operand_bits=int(data["operand_bits"]),
            integer_bits=int(data["integer_bits"]),
            lut_entries=int(data.get("lut_entries", 0)),
            detail=str(data.get("detail", "")),
            tables=dict(data.get("tables", {})),
        )


@dataclass(frozen=True)
class OpPlan:
    """One structural op of a layer's stage mirror, classified."""

    layer: str
    op: str
    kind: str
    note: str = ""
    in_exp: Optional[int] = None
    out_exp: Optional[int] = None
    accumulator_bits: Optional[int] = None
    rescale: Optional[RescalePlan] = None
    approx: Optional[ApproxPlan] = None
    #: Float dtype proven exact for this contraction or squash
    #: (``None``: int64) — see :func:`choose_carrier` and
    #: :func:`choose_squash_carrier`.
    carrier: Optional[str] = None
    #: Float dtype proven exact for a squash op's full-size scale stage
    #: (``None``: ``carrier``) — see :func:`choose_squash_scale_carrier`.
    scale_carrier: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "layer": self.layer,
            "op": self.op,
            "kind": self.kind,
        }
        if self.carrier is not None:
            doc["carrier"] = self.carrier
        if self.scale_carrier is not None:
            doc["scale_carrier"] = self.scale_carrier
        if self.note:
            doc["note"] = self.note
        if self.in_exp is not None:
            doc["in_exp"] = self.in_exp
        if self.out_exp is not None:
            doc["out_exp"] = self.out_exp
        if self.accumulator_bits is not None:
            doc["accumulator_bits"] = self.accumulator_bits
        if self.rescale is not None:
            doc["rescale"] = self.rescale.to_dict()
        if self.approx is not None:
            doc["approx"] = self.approx.to_dict()
        return doc

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OpPlan":
        rescale = data.get("rescale")
        approx = data.get("approx")
        return cls(
            layer=str(data["layer"]),
            op=str(data["op"]),
            kind=str(data["kind"]),
            note=str(data.get("note", "")),
            in_exp=(
                None if data.get("in_exp") is None else int(data["in_exp"])
            ),
            out_exp=(
                None if data.get("out_exp") is None else int(data["out_exp"])
            ),
            accumulator_bits=(
                None if data.get("accumulator_bits") is None
                else int(data["accumulator_bits"])
            ),
            rescale=None if rescale is None else RescalePlan.from_dict(rescale),
            approx=None if approx is None else ApproxPlan.from_dict(approx),
            carrier=(
                None if data.get("carrier") is None else str(data["carrier"])
            ),
            scale_carrier=(
                None if data.get("scale_carrier") is None
                else str(data["scale_carrier"])
            ),
        )


@dataclass(frozen=True)
class LayerPlan:
    """Ordered op plans of one quantization layer."""

    layer: str
    ops: Tuple[OpPlan, ...]
    #: Accumulator width imported from the qprove certificate.
    min_safe_bits: int

    @property
    def accumulator_bits(self) -> int:
        """Widest integer accumulator any planned op needs."""
        widths = [
            op.accumulator_bits
            for op in self.ops
            if op.accumulator_bits is not None
        ]
        return max(widths, default=0)

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    def carrier_mix(self) -> Dict[str, Dict[str, int]]:
        """Carrier op name (contraction or squash) -> carrier -> count
        (``int64`` when the op has no float carrier)."""
        mix: Dict[str, Dict[str, int]] = {}
        for op in self.ops:
            if op.kind == KIND_FLOAT or op.op not in CARRIER_OPS:
                continue
            carrier = op.carrier or INT64_CARRIER
            counts = mix.setdefault(op.op, {})
            counts[carrier] = counts.get(carrier, 0) + 1
        return mix

    def to_dict(self) -> Dict[str, Any]:
        return {
            "layer": self.layer,
            "min_safe_bits": self.min_safe_bits,
            "accumulator_bits": self.accumulator_bits,
            "ops": [op.to_dict() for op in self.ops],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LayerPlan":
        return cls(
            layer=str(data["layer"]),
            ops=tuple(OpPlan.from_dict(op) for op in data.get("ops", ())),
            min_safe_bits=int(data.get("min_safe_bits", 0)),
        )


@dataclass(frozen=True)
class LoweringPlan:
    """The certified integer execution plan of one quantized artifact."""

    model: str
    scheme: str
    input_bits: int
    integer_bits: int
    layers: Tuple[LayerPlan, ...]
    findings: Tuple[Finding, ...] = ()
    certificate_passed: bool = False
    version: int = PLAN_VERSION

    @property
    def blocking(self) -> Tuple[Finding, ...]:
        return tuple(
            f for f in self.findings if f.rule in BLOCKING_RULES
        )

    @property
    def lowerable(self) -> bool:
        return not self.blocking

    def layer(self, name: str) -> LayerPlan:
        for plan in self.layers:
            if plan.layer == name:
                return plan
        raise KeyError(f"no lowering plan for layer '{name}'")

    def input_domain(self) -> Tuple[float, float]:
        """The certified input interval every plan bound assumes."""
        for op in self.layer(INPUT_LAYER).ops:
            if op.op == "quantize-input" and op.approx is not None:
                return op.approx.domain_lo, op.approx.domain_hi
        raise KeyError("plan has no quantize-input op")

    def kind_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for layer in self.layers:
            for kind, n in layer.kind_counts().items():
                counts[kind] = counts.get(kind, 0) + n
        return counts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "model": self.model,
            "scheme": self.scheme,
            "input_bits": self.input_bits,
            "integer_bits": self.integer_bits,
            "lowerable": self.lowerable,
            "certificate_passed": self.certificate_passed,
            "kind_counts": self.kind_counts(),
            "findings": [
                {
                    "rule": f.rule,
                    "op": f.path,
                    "line": f.line,
                    "message": f.message,
                }
                for f in self.findings
            ],
            "layers": [layer.to_dict() for layer in self.layers],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LoweringPlan":
        findings = tuple(
            Finding(
                rule=str(entry["rule"]),
                path=str(entry.get("op", entry.get("path", ""))),
                line=int(entry.get("line", 0)),
                message=str(entry["message"]),
            )
            for entry in data.get("findings", ())
        )
        return cls(
            model=str(data["model"]),
            scheme=str(data["scheme"]),
            input_bits=int(data["input_bits"]),
            integer_bits=int(data.get("integer_bits", 1)),
            layers=tuple(
                LayerPlan.from_dict(entry)
                for entry in data.get("layers", ())
            ),
            findings=findings,
            certificate_passed=bool(data.get("certificate_passed", False)),
            version=int(data.get("version", PLAN_VERSION)),
        )

    def report(self) -> str:
        """Human-readable plan summary (printed by the CLI)."""
        verdict = "LOWERABLE" if self.lowerable else "BLOCKED"
        lines = [
            f"qlower plan: {verdict} "
            f"(model={self.model}, scheme={self.scheme}, "
            f"input={self.input_bits}-bit grid)"
        ]
        for layer in self.layers:
            counts = layer.kind_counts()
            summary = " ".join(
                f"{kind}={counts[kind]}"
                for kind in (KIND_EXACT, KIND_RESCALE, KIND_APPROX, KIND_FLOAT)
                if kind in counts
            )
            lines.append(
                f"  {layer.layer:<12} acc {layer.accumulator_bits:>2}b "
                f"(certified {layer.min_safe_bits}b)  {summary}"
            )
            shifts: List[str] = []
            seen = set()
            for op in layer.ops:
                if op.rescale is None:
                    continue
                key = (op.rescale.site, op.rescale.shift, op.rescale.rounding)
                if key in seen:
                    continue
                seen.add(key)
                shifts.append(
                    f"{op.rescale.site}>>{op.rescale.shift}"
                    f"[{op.rescale.rounding}]"
                )
            if shifts:
                lines.append(f"    shifts: {', '.join(shifts)}")
            mix = layer.carrier_mix()
            if mix:
                lines.append("    carriers: " + ", ".join(
                    f"{name} " + "/".join(
                        f"{carrier}x{n}" if n > 1 else carrier
                        for carrier, n in sorted(mix[name].items())
                    )
                    for name in CARRIER_OPS
                    if name in mix
                ))
            bounds = [
                f"{op.op}≤{op.approx.error_bound:.3g}"
                for op in layer.ops
                if op.approx is not None and op.approx.method != "grid-round"
            ]
            if bounds:
                deduped = sorted(set(bounds))
                lines.append(f"    approx bounds: {', '.join(deduped)}")
        if self.findings:
            lines.append("  findings:")
            for finding in self.findings:
                marker = "BLOCKS" if finding.rule in BLOCKING_RULES else "note"
                lines.append(
                    f"    [{marker}] {finding.rule} {finding.path}: "
                    f"{finding.message}"
                )
        return "\n".join(lines)
