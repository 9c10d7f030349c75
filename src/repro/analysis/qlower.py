"""qlower — static integer-lowering analyzer for quantized artifacts.

Runs the same model walks (``model.steps()``, see
:mod:`repro.capsnet.walk`) as the qprove range certifier
(:mod:`repro.analysis.qprove`) and the int backend that executes the
resulting plan, but propagates a richer abstract value: alongside the
certified value interval, every tensor carries the *power-of-two grid*
its elements live on (``value = code · 2^exp`` with integer codes).
From that the analyzer proves, op by op, whether the forward pass can
execute in pure integer arithmetic:

* **float-taint dataflow** — a parameter with no frozen integer codes,
  a passthrough quantization hook, or a non-power-of-two scale breaks
  the grid; the op is classified ``float`` and a QL040-series finding
  names the origin op and why it blocks lowering.  Downstream ops are
  tainted without duplicate findings.
* **exact rescale schedule** — every quantization hook composes the
  incoming grid ``2^in_exp`` with the hook's own grid
  ``scale · 2^-bits``.  When the ratio is a power of two the hook
  lowers to a shift (left shifts are exact; right shifts round by the
  artifact's own TRN/RTN/RTNE/SR scheme, reproducing the float
  fixed-point path bit for bit — the replay oracle in
  :func:`replay_plan` checks exactly this).  A non-power-of-two ratio
  is a hard QL041 failure naming the offending op and ratio.
* **certified special functions** — squash and softmax lower to
  integer datapaths (the int backend's squash kernel, bit-identical to
  :func:`repro.hw.fixed_ref.fixed_squash`, and the exponential-ROM
  softmax of :mod:`repro.hw.fixed_ref`), with max-error bounds proven
  over the certified input intervals from the approximation metadata on
  :class:`repro.hw.special_ops.SquashUnit` /
  :class:`~repro.hw.special_ops.SoftmaxUnit` (never sampled).
  Batch-norm lowers to per-channel integer multiplier/offset tables
  with an exactly-computed affine error bound.
* **accumulator widths** — per-op widths on the op's own grid, with
  the per-layer ``min_safe_bits`` imported from the qprove
  certificate; anything beyond 64-bit integer execution is QL043.
* **GEMM carriers** — every tensor also carries a proven bound on the
  magnitude of the codes the *integer datapath* produces (squash and
  batch-norm outputs may stray from the float-path interval by their
  approximation error, so the bound follows the integer ops, not the
  interval).  Contractions turn it into an order-independent bound on
  every partial sum and record the float carrier it makes exact.
  Squash ops record ``float64`` when the operand format's datapath
  bound ``caps_dim · int_max² · 2^QF`` is below ``2^52``, and
  ``float32`` as the ``scale_carrier`` of their full-size scale stage
  when ``2^(W-1) · (2^QF - 1)`` and the largest norm are below ``2^24``.

Accumulator-width convention: like the certificate's
``min_safe_bits``, per-op widths bound the *completed* accumulation
(the interval transfer's output); a datapath that needs worst-case
partial-sum head-room should add one guard bit per reduction tree
level.

The result is a :class:`~repro.analysis.lowering.LoweringPlan`; a plan
with no blocking finding is ``lowerable`` and its shift/LUT schedule
is certified against the float fixed-point simulation by
:func:`replay_plan`, which runs the int backend's own kernels
(:mod:`repro.backend.int_kernels`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.interval import (
    Interval,
    min_safe_bits,
    pow2_exponent,
    preclip_code_bounds,
    softmax_interval,
    squash_interval,
)
from repro.analysis.lowering import (
    INPUT_LAYER,
    KIND_APPROX,
    KIND_EXACT,
    KIND_FLOAT,
    KIND_RESCALE,
    ApproxPlan,
    LayerPlan,
    LoweringPlan,
    OpPlan,
    RescalePlan,
    choose_carrier,
    choose_squash_carrier,
    choose_squash_scale_carrier,
    squash_bound,
)
from repro.analysis.qprove import (
    DEFAULT_ACCUMULATOR_BITS,
    Certificate,
    CertificationError,
    _AbstractContext,
    _SiteLog,
    certify_model,
    model_steps,
)
from repro.hw.special_ops import SoftmaxUnit, SquashUnit
from repro.lint.findings import Finding
from repro.quant.fixed_point import FixedPointFormat
from repro.quant.qcontext import power_of_two_scale

#: Input images are snapped to this grid before entering the datapath
#: (8-bit pixels, the native precision of the synthetic datasets).
DEFAULT_INPUT_BITS = 8

#: Widest integer register the emitted plans may assume.  The qprove
#: domain tolerates up to 128 bits; an execution plan does not.
MAX_EXEC_BITS = 64


class LoweringError(ValueError):
    """The artifact/model cannot be analyzed (structure, not verdict)."""


# ----------------------------------------------------------------------
# Abstract values: interval + power-of-two grid
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _LVal:
    """A tensor abstraction: certified interval + value grid.

    ``exp`` is the power-of-two grid exponent (every element is
    ``code · 2^exp`` for an integer code); ``None`` means the tensor is
    float-contaminated — unless ``zero`` is set, in which case the
    tensor is exactly zero and aligns to any grid.
    """

    iv: Interval
    exp: Optional[int]
    zero: bool = False
    #: Proven bound on ``|code|`` over everything the integer datapath
    #: can produce for this tensor (0 when zero or tainted).
    code_max: int = 0

    @property
    def tainted(self) -> bool:
        return self.exp is None and not self.zero


@dataclass(frozen=True)
class _LWeight:
    """A parameter tensor: exact values + grid (``None`` = float)."""

    values: Optional[np.ndarray]
    exp: Optional[int]

    @property
    def tainted(self) -> bool:
        return self.values is not None and self.exp is None


def _shifted_code_max(code_max: int, shift: int) -> int:
    """Bound on ``|shift_round(code, shift)|`` for ``|code| <= code_max``
    under any rounding scheme (a right shift rounds to floor or ceil)."""
    if shift <= 0:
        return code_max << -shift
    return -(-code_max >> shift)


def _max_code_sum(
    values: np.ndarray, exp: int, fan_in: Optional[int] = None
) -> int:
    """Largest Σ|code| over the output rows of a tensor on grid ``2^exp``.

    Summed in float64 straight from the values (as a matrix-vector
    product, fast for the short rows of capsule votes): every partial
    sum is a multiple of ``2^exp``, so it is exact while below ``2^53``
    codes, and a row past that stays at or above ``2^53`` (beyond every
    float carrier) in any summation order.
    """
    values = np.abs(values)
    if fan_in is None:
        rows = values.reshape(values.shape[0], -1)
    else:
        rows = values.reshape(-1, fan_in)
    sums = rows @ np.ones(rows.shape[1])
    return int(sums.max(initial=0.0) * 2.0 ** -exp)


# ----------------------------------------------------------------------
# The lowering context (overrides every structural op of the mirror)
# ----------------------------------------------------------------------
class _LoweringContext(_AbstractContext):
    """Grid-tracking abstract context built on the qprove stage mirror.

    Interval flow is *identical* to the base class (same widening, same
    pre-clip code bounds, same post-clip intervals), so every plan is
    proven over the same intervals the certificate records.  On top of
    that, each op classifies itself as exact / rescale / approx / float
    and appends an :class:`OpPlan` to its layer's schedule.
    """

    def __init__(
        self,
        config,
        scheme: str,
        weight_values: Dict[str, np.ndarray],
        weight_formats: Dict[str, Tuple[FixedPointFormat, float]],
        act_scales: Dict[str, float],
        log: _SiteLog,
        input_bits: int = DEFAULT_INPUT_BITS,
    ) -> None:
        super().__init__(config, scheme, weight_values, act_scales, log)
        self.weight_formats = dict(weight_formats or {})
        self.input_bits = int(input_bits)
        self.ops: Dict[str, List[OpPlan]] = {}
        self.findings: List[Finding] = []

    # -- bookkeeping ---------------------------------------------------
    def _record(self, plan: OpPlan) -> None:
        self.ops.setdefault(plan.layer, []).append(plan)

    def _find(self, rule: str, layer: str, op: str, message: str) -> None:
        self.findings.append(
            Finding(rule=rule, path=f"{layer}:{op}", line=0, message=message)
        )

    def _acc_bits(
        self, layer: str, op: str, iv: Interval, exp: int
    ) -> int:
        """Accumulator width holding ``iv`` as codes on grid ``2^exp``."""
        widened = iv.widen()
        step = 2.0 ** exp
        bits = min_safe_bits(
            math.floor(widened.lo / step), math.ceil(widened.hi / step)
        )
        if bits > MAX_EXEC_BITS:
            self._find(
                "QL043", layer, op,
                f"accumulator needs {bits} bits on grid 2^{exp} "
                f"(beyond {MAX_EXEC_BITS}-bit integer execution)",
            )
        return bits

    def _float_op(self, layer: str, op: str, iv: Interval, note: str) -> _LVal:
        self._record(OpPlan(layer=layer, op=op, kind=KIND_FLOAT, note=note))
        return _LVal(iv, None)

    # -- parameters ----------------------------------------------------
    def weight(self, layer: str, name: str, param) -> Optional[_LWeight]:
        values = super().weight(layer, name, param)
        if values is None:
            return None
        key = f"{layer}:{name}"
        entry = self.weight_formats.get(key)
        if entry is None:
            self._find(
                "QL040", layer, name,
                "parameter has no frozen integer codes "
                "(float tensor on the datapath)",
            )
            return _LWeight(values, None)
        fmt, scale = entry
        s_exp = pow2_exponent(scale)
        if s_exp is None:
            self._find(
                "QL041", layer, name,
                f"weight scale {scale!r} is not a power of two; codes "
                f"cannot be placed on a shift-composable grid",
            )
            return _LWeight(values, None)
        return _LWeight(values, s_exp - fmt.fractional_bits)

    # -- graph entry ---------------------------------------------------
    def input(self, x: Interval) -> _LVal:
        step = 2.0 ** -self.input_bits
        code_lo, code_hi = math.floor(x.lo / step), math.ceil(x.hi / step)
        grid = Interval(code_lo * step, code_hi * step)
        self._record(OpPlan(
            layer=INPUT_LAYER,
            op="quantize-input",
            kind=KIND_APPROX,
            note=f"input snapped to the 2^-{self.input_bits} pixel grid",
            out_exp=-self.input_bits,
            approx=ApproxPlan(
                method="grid-round",
                domain_lo=x.lo,
                domain_hi=x.hi,
                error_bound=step,
                operand_exp=-self.input_bits,
                operand_bits=self.input_bits,
                integer_bits=self.config.integer_bits,
            ),
        ))
        return _LVal(
            grid, -self.input_bits, code_max=max(abs(code_lo), abs(code_hi))
        )

    def zero_logits(self, layer: str, votes: _LVal) -> _LVal:
        return _LVal(Interval.point(0.0), None, zero=True)

    # -- exact integer ops ---------------------------------------------
    def _mac(self, layer, op, weight, bias, x, iv, fan_in=None) -> _LVal:
        bias_tainted = bias is not None and bias.tainted
        if x.tainted or weight.tainted or bias_tainted:
            return self._float_op(layer, op, iv, "float-tainted operand")
        out_exp = weight.exp + x.exp
        note = "MAC over frozen integer codes"
        has_bias = bias is not None and bias.values is not None
        if has_bias:
            # The bias joins the accumulation on the finer of the two
            # grids — the coarser operand left-shifts in exactly.
            out_exp = min(out_exp, bias.exp)
            note += " (+ bias aligned by exact left shift)"
        # Carrier bound on the output grid: Σ|w|·max|x| per row bounds
        # every partial sum of the products in any order, the bias
        # (joined after the GEMM) adds at most its own magnitude.  It
        # is deliberately not the interval: a bias can cancel partial
        # sums far larger than the final result.
        bound = (
            _max_code_sum(weight.values, weight.exp, fan_in) * x.code_max
        ) << (weight.exp + x.exp - out_exp)
        if has_bias:
            bias_codes = _max_code_sum(bias.values.reshape(-1, 1), bias.exp)
            bound += bias_codes << (bias.exp - out_exp)
        bits = self._acc_bits(layer, op, iv, out_exp)
        self._record(OpPlan(
            layer=layer, op=op, kind=KIND_EXACT,
            note=f"{note}; partial sums within ±{bound}",
            in_exp=x.exp, out_exp=out_exp, accumulator_bits=bits,
            carrier=choose_carrier(bound),
        ))
        return _LVal(iv, out_exp, code_max=bound)

    def conv(self, layer, weight, bias, x, conv) -> _LVal:
        iv = super().conv(
            layer,
            weight.values,
            None if bias is None else bias.values,
            x.iv,
            conv,
        )
        return self._mac(layer, "conv", weight, bias, x, iv)

    def linear(self, layer, weight, bias, x, fan_in=None) -> _LVal:
        iv = super().linear(
            layer,
            weight.values,
            None if bias is None else bias.values,
            x.iv,
            fan_in=fan_in,
        )
        return self._mac(layer, "linear", weight, bias, x, iv, fan_in)

    def relu(self, layer: str, x: _LVal) -> _LVal:
        iv = super().relu(layer, x.iv)
        if x.tainted:
            return self._float_op(layer, "relu", iv, "float-tainted operand")
        self._record(OpPlan(
            layer=layer, op="relu", kind=KIND_EXACT,
            note="max(0, code) on the incoming grid",
            in_exp=x.exp, out_exp=x.exp,
        ))
        return _LVal(iv, x.exp, zero=x.zero, code_max=x.code_max)

    def avgpool(self, layer: str, x: _LVal, kernel: int) -> _LVal:
        iv = super().avgpool(layer, x.iv, kernel)
        window = kernel * kernel
        if x.tainted:
            return self._float_op(
                layer, "avgpool", iv, "float-tainted operand"
            )
        shift = int(round(math.log2(window)))
        if 2 ** shift != window:
            return self._float_op(
                layer, "avgpool", iv,
                f"window {window} is not a power of two",
            )
        out_exp = x.exp - shift
        sum_iv = Interval(x.iv.lo * window, x.iv.hi * window)
        bits = self._acc_bits(layer, "avgpool", sum_iv, x.exp)
        self._record(OpPlan(
            layer=layer, op="avgpool", kind=KIND_EXACT,
            note=(
                f"window sum is exact; /{window} is a grid "
                f"reinterpretation (2^{x.exp} -> 2^{out_exp})"
            ),
            in_exp=x.exp, out_exp=out_exp, accumulator_bits=bits,
        ))
        return _LVal(iv, out_exp, code_max=x.code_max * window)

    def mul(self, layer: str, a: _LVal, b: _LVal) -> _LVal:
        iv = super().mul(layer, a.iv, b.iv)
        if a.zero or b.zero:
            return _LVal(Interval.point(0.0), None, zero=True)
        if a.tainted or b.tainted:
            return self._float_op(layer, "mul", iv, "float-tainted operand")
        out_exp = a.exp + b.exp
        bits = self._acc_bits(layer, "mul", iv, out_exp)
        self._record(OpPlan(
            layer=layer, op="mul", kind=KIND_EXACT,
            note="integer product lands on the composed grid",
            in_exp=a.exp, out_exp=out_exp, accumulator_bits=bits,
        ))
        return _LVal(iv, out_exp, code_max=a.code_max * b.code_max)

    def add(self, layer: str, a: _LVal, b: _LVal) -> _LVal:
        iv = super().add(layer, a.iv, b.iv)
        if a.zero:
            return _LVal(iv, b.exp, zero=b.zero, code_max=b.code_max)
        if b.zero:
            return _LVal(iv, a.exp, zero=a.zero, code_max=a.code_max)
        if a.tainted or b.tainted:
            return self._float_op(layer, "add", iv, "float-tainted operand")
        out_exp = min(a.exp, b.exp)
        bits = self._acc_bits(layer, "add", iv, out_exp)
        self._record(OpPlan(
            layer=layer, op="add", kind=KIND_EXACT,
            note="operands aligned to the finer grid by exact left shift",
            in_exp=out_exp, out_exp=out_exp, accumulator_bits=bits,
        ))
        code_max = (
            _shifted_code_max(a.code_max, out_exp - a.exp)
            + _shifted_code_max(b.code_max, out_exp - b.exp)
        )
        return _LVal(iv, out_exp, code_max=code_max)

    def sum_terms(self, layer: str, term: _LVal, count: int) -> _LVal:
        iv = super().sum_terms(layer, term.iv, count)
        if term.zero:
            return _LVal(Interval.point(0.0), None, zero=True)
        if term.tainted:
            return self._float_op(layer, "sum", iv, "float-tainted operand")
        bits = self._acc_bits(layer, "sum", iv, term.exp)
        # Any partial sum of ``count`` terms stays within count·max|term|.
        bound = int(count) * term.code_max
        self._record(OpPlan(
            layer=layer, op="sum", kind=KIND_EXACT,
            note=(
                f"integer reduction over {count} terms; partial sums "
                f"within ±{bound}"
            ),
            in_exp=term.exp, out_exp=term.exp, accumulator_bits=bits,
            carrier=choose_carrier(bound),
        ))
        return _LVal(iv, term.exp, code_max=bound)

    # -- certified approximations --------------------------------------
    def batchnorm(self, layer: str, x: _LVal, bn) -> _LVal:
        iv = super().batchnorm(layer, x.iv, bn)
        if x.tainted:
            return self._float_op(
                layer, "batchnorm", iv, "float-tainted operand"
            )
        std = np.sqrt(np.asarray(bn.running_var, dtype=np.float64) + bn.eps)
        a = np.asarray(bn.gamma.data, np.float64).reshape(-1) / std.reshape(-1)
        b = (
            np.asarray(bn.beta.data, np.float64).reshape(-1)
            - np.asarray(bn.running_mean, np.float64).reshape(-1) * a
        )
        max_a = float(np.max(np.abs(a)))
        # Quantize the per-channel multipliers to ~15-bit integers so
        # products stay well inside int64 on any certified input grid.
        t = 14 - (math.floor(math.log2(max_a)) if max_a > 0.0 else 0)
        m = np.round(a * 2.0 ** t).astype(np.int64)
        out_exp = x.exp - t
        offs = np.round(b / 2.0 ** out_exp).astype(np.int64)
        widened = x.iv.widen()
        da = np.abs(a - m.astype(np.float64) * 2.0 ** -t)
        db = np.abs(b - offs.astype(np.float64) * 2.0 ** out_exp)
        bound = float(np.max(da * widened.max_abs + db)) * (1.0 + 1e-9) + 1e-18
        bits = self._acc_bits(layer, "batchnorm", iv, out_exp)
        self._record(OpPlan(
            layer=layer, op="batchnorm", kind=KIND_APPROX,
            note="per-channel integer multiplier + offset",
            in_exp=x.exp, out_exp=out_exp, accumulator_bits=bits,
            approx=ApproxPlan(
                method="affine-bn",
                domain_lo=widened.lo,
                domain_hi=widened.hi,
                error_bound=bound,
                operand_exp=x.exp,
                operand_bits=self._acc_bits(layer, "batchnorm", x.iv, x.exp),
                integer_bits=self.config.integer_bits,
                detail=(
                    f"y = (m_c·code + B_c)·2^{out_exp}; multipliers "
                    f"quantized at 2^-{t}"
                ),
                tables={
                    "shift": t,
                    "multipliers": [int(v) for v in m],
                    "offsets": [int(v) for v in offs],
                    "reference_scale": [float(v) for v in a],
                    "reference_offset": [float(v) for v in b],
                },
            ),
        ))
        code_max = (
            int(np.abs(m).max()) * x.code_max + int(np.abs(offs).max())
        )
        return _LVal(iv, out_exp, code_max=code_max)

    def squash(self, layer: str, x: _LVal, dim: int, axis: int) -> _LVal:
        iv = squash_interval(x.iv)
        if x.tainted:
            return self._float_op(
                layer, "squash", iv, "float-tainted operand"
            )
        if x.zero:
            return _LVal(Interval.point(0.0), None, zero=True)
        spec = self.config[layer]
        frac = spec.qa if spec.qa is not None else spec.effective_qdr()
        if frac is None:
            frac = DEFAULT_INPUT_BITS
        widened = x.iv.widen()
        scale = power_of_two_scale(widened.max_abs)
        s_exp = pow2_exponent(scale) or 0
        # The operand keeps the certified range in its integer bits and
        # as many of the layer's fractional bits as a 16-bit squash
        # datapath admits (precision degrades gracefully; the proven
        # bound below scales with the operand ULP either way).
        frac = min(int(frac), 15 - s_exp)
        if frac < 1:
            self._find(
                "QL042", layer, "squash",
                f"operand spans 2^{s_exp}, leaving {15 - s_exp} "
                f"fractional bits (< 1) in the 16-bit squash datapath; "
                f"no certified integer plan exists at this precision",
            )
            return self._float_op(
                layer, "squash", iv, "no certified operand format"
            )
        fmt_op = FixedPointFormat(1 + s_exp, frac)
        op_exp = -frac
        shift = op_exp - x.exp
        rounding = self.scheme if shift > 0 else "exact"
        delta_pre = 2.0 ** op_exp if shift > 0 else 0.0
        sat_excess = max(
            0.0,
            widened.max_abs + delta_pre - fmt_op.int_max * fmt_op.eps,
        )
        unit = SquashUnit(
            fractional_bits=fmt_op.fractional_bits,
            caps_dim=max(int(dim), 1),
            integer_bits=fmt_op.integer_bits,
        )
        # Squash is 1-Lipschitz in the input vector, so a per-component
        # operand perturbation delta moves each output component by at
        # most ||Δs|| <= sqrt(D)·delta; the datapath itself adds the
        # unit's proven ULP bound on exact operands.
        bound = (
            math.sqrt(unit.caps_dim) * (delta_pre + sat_excess)
            + unit.max_abs_error()
        )
        datapath = squash_bound(
            unit.caps_dim, fmt_op.integer_bits, fmt_op.fractional_bits
        )
        bits = min_safe_bits(0.0, float(datapath))
        self._record(OpPlan(
            layer=layer, op="squash", kind=KIND_APPROX,
            note="Newton-Raphson integer squash on a pre-scaled operand",
            in_exp=x.exp, out_exp=op_exp, accumulator_bits=bits,
            carrier=choose_squash_carrier(datapath),
            scale_carrier=choose_squash_scale_carrier(
                unit.caps_dim, fmt_op.integer_bits, fmt_op.fractional_bits
            ),
            rescale=RescalePlan(
                site="squash-operand",
                bits=frac,
                scale=1.0,
                in_exp=x.exp,
                out_exp=op_exp,
                shift=shift,
                rounding=rounding,
                value_lo=widened.lo,
                value_hi=widened.hi,
            ),
            approx=ApproxPlan(
                method="nr-squash",
                domain_lo=widened.lo,
                domain_hi=widened.hi,
                error_bound=bound,
                operand_exp=op_exp,
                operand_bits=fmt_op.fractional_bits,
                integer_bits=fmt_op.integer_bits,
                lut_entries=unit.lut_entries,
                detail=(
                    f"operand {fmt_op} spans the certified 2^{s_exp} "
                    f"range; pre-rescale contributes "
                    f"{delta_pre + sat_excess:g} per component"
                ),
                tables={"caps_dim": int(unit.caps_dim)},
            ),
        ))
        # The squash kernel scales each |code| <= isqrt(Σ code²) by a
        # ratio below 2^frac, whatever the operand.
        return _LVal(iv, op_exp, code_max=(1 << frac) - 1)

    def softmax(self, layer: str, x: _LVal, count: int) -> _LVal:
        iv = softmax_interval()
        if x.tainted or x.zero:
            # A zero-tainted logit tensor never reaches here (logits
            # pass a routing hook first), but stay defensive.
            if x.zero:
                return _LVal(iv, None)
            return self._float_op(
                layer, "softmax", iv, "float-tainted operand"
            )
        qdr = self.config[layer].effective_qdr()
        if qdr is None:
            self._find(
                "QL042", layer, "softmax",
                "logits carry no routing quantization hook; no bounded "
                "LUT operand format exists",
            )
            return self._float_op(
                layer, "softmax", iv, "no certified operand format"
            )
        qi = self.config.integer_bits
        e_s = x.exp + qdr
        frac_sub = qdr - e_s
        int_sub = qi + e_s + 1
        if frac_sub < 1 or int_sub + frac_sub > 16:
            self._find(
                "QL042", layer, "softmax",
                f"max-normalized operand format "
                f"<{int_sub}.{frac_sub}> is outside the certified "
                f"LUT datapath (needs 1..{16 - int_sub} fractional bits)",
            )
            return self._float_op(
                layer, "softmax", iv, "no certified operand format"
            )
        unit = SoftmaxUnit(
            fractional_bits=frac_sub,
            num_inputs=max(int(count), 2),
            integer_bits=int_sub,
        )
        fmt_sub = FixedPointFormat(int_sub, frac_sub)
        exp_hi = float(2 ** (int_sub + 2 + frac_sub - 1) - 1)
        acc_hi = max(unit.num_inputs * exp_hi, exp_hi * 2 ** frac_sub)
        bits = min_safe_bits(0.0, acc_hi)
        widened = x.iv.widen()
        self._record(OpPlan(
            layer=layer, op="softmax", kind=KIND_APPROX,
            note="max-normalized exp-ROM softmax",
            in_exp=x.exp, out_exp=x.exp, accumulator_bits=bits,
            approx=ApproxPlan(
                method="lut-softmax",
                domain_lo=widened.lo,
                domain_hi=widened.hi,
                error_bound=unit.max_abs_error(),
                operand_exp=x.exp,
                operand_bits=frac_sub,
                integer_bits=int_sub,
                lut_entries=unit.lut_entries,
                detail=(
                    f"logits max-subtracted (exact) into {fmt_sub}; "
                    f"e^max = e^0 = 1 never clips the ROM"
                ),
                tables={
                    "num_inputs": int(unit.num_inputs),
                    "logit_bits": int(qdr),
                    "scale_exp": int(e_s),
                },
            ),
        ))
        return _LVal(iv, x.exp, code_max=fmt_sub.int_max)

    # -- quantization hooks --------------------------------------------
    def _hook(
        self,
        layer: str,
        site: str,
        bits: Optional[int],
        scale_key: str,
        value: _LVal,
    ) -> _LVal:
        if bits is None:
            # Base bookkeeping (passthrough HookSite in the log).
            iv = super()._hook(layer, site, bits, scale_key, value.iv)
            if value.tainted or value.zero:
                return value
            self._find(
                "QL040", layer, site,
                "passthrough hook keeps float values on the datapath "
                "(no quantization grid to lower onto)",
            )
            return self._float_op(
                layer, site, iv, "passthrough hook (float at serve time)"
            )
        fmt = FixedPointFormat(self.config.integer_bits, bits)
        scale = float(self.act_scales.get(scale_key, 1.0))
        iv = super()._hook(layer, site, bits, scale_key, value.iv)
        if value.tainted:
            # Origin finding already emitted upstream; the hook does
            # re-grid its output, but no integer rescale produces it.
            return self._float_op(
                layer, site, iv,
                "re-quantizes float-tainted values (no integer rescale)",
            )
        s_exp = pow2_exponent(scale)
        if s_exp is None:
            in_exp = 0 if value.zero else value.exp
            ratio = scale * 2.0 ** (-bits - in_exp)
            self._find(
                "QL041", layer, site,
                f"scale composition {scale!r}·2^-{bits}/2^{in_exp} = "
                f"{ratio!r} is not a power of two; no exact shift "
                f"rescale exists",
            )
            return self._float_op(
                layer, site, iv, "non-power-of-two scale composition"
            )
        out_exp = s_exp - bits
        in_exp = out_exp if value.zero else value.exp
        shift = out_exp - in_exp
        widened = value.iv.widen()
        code_lo, code_hi = preclip_code_bounds(
            widened, fmt, scale, self.scheme
        )
        pre_bits = min_safe_bits(code_lo, code_hi)
        if pre_bits > MAX_EXEC_BITS:
            self._find(
                "QL043", layer, site,
                f"pre-clip codes need {pre_bits} bits "
                f"(beyond {MAX_EXEC_BITS}-bit integer execution)",
            )
        kind = KIND_RESCALE if shift > 0 else KIND_EXACT
        rounding = self.scheme if shift > 0 else "exact"
        self._record(OpPlan(
            layer=layer, op=site, kind=kind,
            note=(
                "scheme-rounded right shift" if shift > 0
                else "exact grid move (left shift / reinterpretation)"
            ),
            in_exp=in_exp, out_exp=out_exp, accumulator_bits=pre_bits,
            rescale=RescalePlan(
                site=site,
                bits=bits,
                scale=scale,
                in_exp=in_exp,
                out_exp=out_exp,
                shift=shift,
                rounding=rounding,
                value_lo=widened.lo,
                value_hi=widened.hi,
            ),
        ))
        # The integer hook clips into ``fmt`` whatever its input was.
        code_max = min(
            -fmt.int_min,
            0 if value.zero else _shifted_code_max(value.code_max, shift),
        )
        return _LVal(iv, out_exp, code_max=code_max)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lower_model(
    model,
    config,
    scheme: str,
    weight_values: Optional[Dict[str, np.ndarray]] = None,
    weight_formats: Optional[Dict[str, Tuple[FixedPointFormat, float]]] = None,
    act_scales: Optional[Dict[str, float]] = None,
    certificate: Optional[Certificate] = None,
    accumulator_bits: int = DEFAULT_ACCUMULATOR_BITS,
    input_bits: int = DEFAULT_INPUT_BITS,
    input_range: Tuple[float, float] = (0.0, 1.0),
) -> LoweringPlan:
    """Lower a (model, config, scheme) combination to an integer plan.

    ``weight_formats`` maps ``"layer:name"`` to the ``(format, scale)``
    the frozen codes in ``weight_values`` were quantized with; any
    parameter without an entry is float-contaminated (QL040).  With
    ``certificate=None`` a fresh qprove certificate is computed — its
    per-layer ``min_safe_bits`` are imported into the plan and a FAILED
    certificate blocks lowering with QL043.
    """
    if input_bits < 1:
        raise LoweringError(f"input_bits must be >= 1, got {input_bits}")
    try:
        steps = model_steps(model)
    except CertificationError as exc:
        raise LoweringError(str(exc)) from None
    expected = list(getattr(model, "quant_layers", []))
    if list(config.layer_names) != expected:
        raise LoweringError(
            f"config layers {list(config.layer_names)} do not match model "
            f"layers {expected}"
        )
    if certificate is None:
        try:
            certificate = certify_model(
                model,
                config,
                scheme,
                weight_values=weight_values,
                act_scales=act_scales,
                accumulator_bits=accumulator_bits,
                input_range=input_range,
            )
        except CertificationError as exc:
            raise LoweringError(str(exc)) from None

    log = _SiteLog()
    ctx = _LoweringContext(
        config,
        scheme,
        dict(weight_values or {}),
        dict(weight_formats or {}),
        act_scales or {},
        log,
        input_bits=input_bits,
    )
    x = ctx.input(Interval(float(input_range[0]), float(input_range[1])))
    for _, _, fn in steps:
        x = fn(ctx, x)

    findings: List[Finding] = []
    seen = set()
    for finding in ctx.findings:
        key = (finding.rule, finding.path, finding.message)
        if key in seen:
            continue
        seen.add(key)
        findings.append(finding)
    for failure in certificate.failures:
        cert = certificate.layer(failure)
        findings.append(Finding(
            rule="QL043",
            path=f"{failure}:certificate",
            line=0,
            message=(
                f"range certificate FAILED: layer needs "
                f"{cert.min_safe_bits} bits > the configured "
                f"{certificate.accumulator_bits}-bit accumulator"
            ),
        ))

    layers: List[LayerPlan] = []
    layers.append(LayerPlan(
        layer=INPUT_LAYER,
        ops=tuple(ctx.ops.get(INPUT_LAYER, ())),
        min_safe_bits=0,
    ))
    for name in config.layer_names:
        layers.append(LayerPlan(
            layer=name,
            ops=tuple(ctx.ops.get(name, ())),
            min_safe_bits=certificate.layer(name).min_safe_bits,
        ))
    known = {plan.layer for plan in layers}
    for name, ops in ctx.ops.items():
        if name not in known:
            layers.append(LayerPlan(
                layer=name, ops=tuple(ops), min_safe_bits=0
            ))
    return LoweringPlan(
        model=type(model).__name__,
        scheme=scheme,
        input_bits=int(input_bits),
        integer_bits=int(config.integer_bits),
        layers=tuple(layers),
        findings=tuple(findings),
        certificate_passed=certificate.passed,
    )


def lower_artifact(
    artifact,
    model=None,
    accumulator_bits: int = DEFAULT_ACCUMULATOR_BITS,
    input_bits: int = DEFAULT_INPUT_BITS,
    input_range: Tuple[float, float] = (0.0, 1.0),
) -> LoweringPlan:
    """Lower a :class:`~repro.api.artifact.ModelArtifact`.

    With ``model=None`` the artifact's spec provenance rebuilds the
    model exactly like :meth:`Session.serve` does.  An embedded range
    certificate is reused when present (and re-issued otherwise), so
    ``certify --update`` followed by ``lower`` never re-proves ranges.
    """
    if model is None:
        if artifact.spec is None:
            raise LoweringError(
                "artifact has no spec provenance; pass the bound model "
                "explicitly (lower_artifact(artifact, model=...))"
            )
        from repro.api.session import Session

        model = Session(dict(artifact.spec)).model
    weight_values = {
        key: np.asarray(codes, dtype=np.float64) * fmt.eps * scale
        for key, (codes, fmt, scale) in artifact.weight_codes.items()
    }
    weight_formats = {
        key: (fmt, float(scale))
        for key, (codes, fmt, scale) in artifact.weight_codes.items()
    }
    certificate = None
    if artifact.certificate is not None:
        certificate = Certificate.from_dict(artifact.certificate)
    return lower_model(
        model,
        artifact.config,
        artifact.scheme,
        weight_values=weight_values,
        weight_formats=weight_formats,
        act_scales=artifact.act_scales,
        certificate=certificate,
        accumulator_bits=accumulator_bits,
        input_bits=input_bits,
        input_range=input_range,
    )


# ----------------------------------------------------------------------
# Soundness oracle: replay the plan against the float fixed-point path
# ----------------------------------------------------------------------
def _sample_codes(
    lo: float,
    hi: float,
    exp: int,
    samples: int,
    rng: np.random.Generator,
    shape: Tuple[int, ...] = (),
) -> Optional[np.ndarray]:
    """In-grid integer codes covering ``[lo, hi]`` (endpoints + uniform)."""
    step = 2.0 ** exp
    clo = max(math.ceil(lo / step), -(2 ** 50))
    chi = min(math.floor(hi / step), 2 ** 50)
    if clo > chi:
        return None
    anchors = sorted({clo, chi, min(max(0, clo), chi)})
    body = rng.integers(clo, chi + 1, size=(samples,) + shape, dtype=np.int64)
    head = np.zeros((len(anchors),) + shape, dtype=np.int64)
    for i, anchor in enumerate(anchors):
        head[i] = anchor
    return np.concatenate([head, body], axis=0)


def _replay_rescale(
    plan: LoweringPlan, op: OpPlan, opseed: int, samples: int
) -> Optional[str]:
    from repro.backend import int_kernels as k
    from repro.quant.qcontext import scaled_quantize
    from repro.quant.rounding import get_rounding_scheme

    r = op.rescale
    rng = np.random.default_rng(opseed ^ 0x5EED)
    codes = _sample_codes(r.value_lo, r.value_hi, r.in_exp, samples, rng)
    if codes is None:
        return None
    fmt = FixedPointFormat(plan.integer_bits, r.bits)
    scheme = get_rounding_scheme(plan.scheme, seed=opseed)
    values = codes.astype(np.float64) * 2.0 ** r.in_exp
    float_path = scaled_quantize(values, fmt, scheme, r.scale)
    draw = None
    if r.rounding == "SR":
        draw = np.random.default_rng(opseed).random(size=codes.shape)
    # The serving kernel, on int64 and on the narrowest storage dtype
    # holding the sampled input interval.
    narrowest = k.storage_dtype(
        min_safe_bits(float(codes.min()), float(codes.max()))
    )
    for dtype in dict.fromkeys((np.dtype(np.int64), narrowest)):
        out = k.hook_rescale(
            codes.astype(dtype), r.shift, r.rounding, fmt, draw=draw
        )
        int_path = out.astype(np.float64) * 2.0 ** r.out_exp
        if not np.array_equal(float_path, int_path):
            worst = int(np.argmax(np.abs(float_path - int_path)))
            return (
                f"{op.layer}:{op.op} shift schedule diverges from the "
                f"float fixed-point path on {dtype} codes (code "
                f"{int(codes[worst])}: float {float_path[worst]!r} vs "
                f"integer {int_path[worst]!r})"
            )
    return None


def _replay_squash(
    plan: LoweringPlan, op: OpPlan, opseed: int, samples: int
) -> Tuple[Optional[str], float]:
    from repro.backend import int_kernels as k

    a = op.approx
    r = op.rescale
    dim = int(a.tables.get("caps_dim", 1))
    rng = np.random.default_rng(opseed)
    codes = _sample_codes(
        r.value_lo, r.value_hi, r.in_exp, samples, rng, shape=(dim,)
    )
    if codes is None:
        return None, 0.0
    out = k.int_squash(
        codes, r, a, gen=rng, carrier=op.carrier,
        scale_carrier=op.scale_carrier,
    )
    got = out.astype(np.float64) * 2.0 ** a.operand_exp
    v = codes.astype(np.float64) * 2.0 ** r.in_exp
    norm = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    with np.errstate(invalid="ignore"):
        ref = np.where(norm > 0.0, v * norm / (1.0 + norm * norm), 0.0)
    err = float(np.max(np.abs(got - ref)))
    if err > a.error_bound:
        return (
            f"{op.layer}:{op.op} empirical error {err:g} exceeds the "
            f"proven bound {a.error_bound:g}"
        ), err
    return None, err


def _replay_softmax(
    plan: LoweringPlan, op: OpPlan, opseed: int, samples: int
) -> Tuple[Optional[str], float]:
    from repro.backend import int_kernels as k

    a = op.approx
    n = int(a.tables.get("num_inputs", 2))
    qdr = int(a.tables.get("logit_bits", a.operand_bits))
    fmt_logits = FixedPointFormat(plan.integer_bits, qdr)
    rng = np.random.default_rng(opseed)
    codes = _sample_codes(
        a.domain_lo, a.domain_hi, a.operand_exp, samples, rng, shape=(n,)
    )
    if codes is None:
        return None, 0.0
    codes = np.clip(codes, fmt_logits.int_min, fmt_logits.int_max)
    out = k.int_softmax(
        codes, a, plan.integer_bits, k.softmax_table(a, plan.integer_bits)
    )
    got = out.astype(np.float64) * 2.0 ** op.out_exp
    v = codes.astype(np.float64) * 2.0 ** a.operand_exp
    v = v - v.max(axis=-1, keepdims=True)
    exps = np.exp(v)
    ref = exps / exps.sum(axis=-1, keepdims=True)
    err = float(np.max(np.abs(got - ref)))
    if err > a.error_bound:
        return (
            f"{op.layer}:{op.op} empirical error {err:g} exceeds the "
            f"proven bound {a.error_bound:g}"
        ), err
    return None, err


def _replay_batchnorm(
    plan: LoweringPlan, op: OpPlan, opseed: int, samples: int
) -> Tuple[Optional[str], float]:
    a = op.approx
    m = np.asarray(a.tables["multipliers"], dtype=np.int64)
    offs = np.asarray(a.tables["offsets"], dtype=np.int64)
    ref_a = np.asarray(a.tables["reference_scale"], dtype=np.float64)
    ref_b = np.asarray(a.tables["reference_offset"], dtype=np.float64)
    rng = np.random.default_rng(opseed)
    codes = _sample_codes(
        a.domain_lo, a.domain_hi, a.operand_exp, samples, rng
    )
    if codes is None:
        return None, 0.0
    codes = np.clip(codes, -(2 ** 40), 2 ** 40)
    x = codes[:, None]
    got = (m[None, :] * x + offs[None, :]).astype(np.float64) * (
        2.0 ** op.out_exp
    )
    v = x.astype(np.float64) * 2.0 ** a.operand_exp
    ref = ref_a[None, :] * v + ref_b[None, :]
    err = float(np.max(np.abs(got - ref)))
    if err > a.error_bound:
        return (
            f"{op.layer}:{op.op} empirical error {err:g} exceeds the "
            f"proven bound {a.error_bound:g}"
        ), err
    return None, err


def replay_plan(
    plan: LoweringPlan, seed: int = 0, samples: int = 256
) -> Tuple[List[str], Dict[str, Any]]:
    """Check a plan's integer schedule against the float simulation.

    For every rescale the integer shift-and-round mirror must replay
    the float fixed-point path (:func:`scaled_quantize`) *bit for bit*;
    for every approximated op the empirical max error over in-grid
    samples spanning the certified domain must stay within the proven
    bound.  Returns ``(violations, stats)`` — an empty violation list
    is the soundness oracle's PASS.
    """
    violations: List[str] = []
    stats: Dict[str, Any] = {
        "rescale_ops": 0,
        "approx_ops": [],
        "samples": int(samples),
    }
    index = 0
    for layer in plan.layers:
        for op in layer.ops:
            index += 1
            opseed = seed * 1_000_003 + index
            if op.approx is not None:
                method = op.approx.method
                if method == "grid-round":
                    continue
                if method == "nr-squash":
                    problem, err = _replay_squash(plan, op, opseed, samples)
                elif method == "lut-softmax":
                    problem, err = _replay_softmax(plan, op, opseed, samples)
                elif method == "affine-bn":
                    problem, err = _replay_batchnorm(
                        plan, op, opseed, samples
                    )
                else:
                    problem, err = (
                        f"{op.layer}:{op.op} unknown approx method "
                        f"'{method}'",
                        0.0,
                    )
                if problem:
                    violations.append(problem)
                stats["approx_ops"].append({
                    "layer": op.layer,
                    "op": op.op,
                    "method": method,
                    "bound": op.approx.error_bound,
                    "max_err": err,
                })
            elif op.rescale is not None:
                problem = _replay_rescale(plan, op, opseed, samples)
                if problem:
                    violations.append(problem)
                stats["rescale_ops"] += 1
    return violations, stats
