"""Integer-only inference backend: executes a certified lowering plan.

Where the float backend *simulates* fixed point (dequantized weights,
float forward, grid-snapping hooks), this backend executes the
artifact's :class:`~repro.analysis.lowering.LoweringPlan` directly on
integer codes: frozen weight codes feed exact convolution/matmul
accumulators, every hook becomes the plan's certified shift-and-round,
squash runs the integer datapath of :mod:`repro.backend.int_kernels`
and softmax its exponential-ROM LUT, and dynamic routing iterates
entirely on codes.  Between input quantization and the final label
argmax, floats exist only inside the audited carrier helpers of
:mod:`repro.backend.int_kernels`: contractions and squash ops whose
plan op records a ``carrier`` run on float32/float64 (BLAS GEMMs, and
squash's divisions and square root, whose full-size scale stage has a
``scale_carrier`` of its own), exact by the bound the plan recorded,
and come back as integer codes.  Hooks, softmax, the MACs (conv,
linear, votes; bias and grid shift included) and the routing
contractions compute at their certified storage widths, squash results
are stored at ``QF + 1`` bits, and adds compute at the width their
operands prove.  Every sealed op result is integer, which the dtype
tracer checks.

The backend holds no model code of its own: :class:`_PlanWalk` is one
more interpreter of the model walks (``model.steps()``, see
:mod:`repro.capsnet.walk`), the same walks the float forward runs on
tensors and the range certifier and the lowering analyzer run on
abstract values, so each model family is described once.  Every
structural op consumes the next op of its layer's plan (a FIFO) — any
drift between walk and plan is a hard error, not a silent wrong
answer.  The prediction head follows the output rank:
capsules ``(B, J, D)`` or logits ``(B, J)``.

Stochastic rounding stays in lockstep with the float path: the float
context draws one uniform array per activation/routing hook, so the
walk draws the identical stream (same seed, same shapes, same order)
and burns the draw when the certified shift is exact.  Squash-operand
rescales have no float-path counterpart and use a separate seeded
stream.

The backend is refused outright for artifacts that are not certified
PASS and lowerable — see :func:`repro.backend.base.check_int_gates` —
and refuses inputs outside the plan's certified input domain, on which
none of the plan's widths or carrier bounds would hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.interval import pow2_exponent
from repro.analysis.lowering import (
    CARRIER_OPS,
    INPUT_LAYER,
    INT64_CARRIER,
    LoweringPlan,
)
from repro.analysis.qprove import CertificationError, model_steps
from repro.backend import int_kernels as k
from repro.backend.base import InferenceBackend, check_int_gates
from repro.quant.fixed_point import FixedPointFormat

#: Seed-stream separator for squash-operand rescales (int-only ops with
#: no float-path draw to mirror); XORed with the artifact seed.
_OP_STREAM = 0x51A5


def _walk_error(message: str) -> Exception:
    from repro.api.artifact import ArtifactError

    return ArtifactError(message)


class IntBackend(InferenceBackend):
    """Integer executor of a certified lowering plan (module docstring).

    Construction enforces the gates and prebuilds every softmax
    exponential ROM the plan needs (one per distinct LUT format); each
    weight's MAC operand (lowered, scaled onto its op's output grid and
    cast to the op's carrier) is built on first use.  So a bound model
    never rebuilds tables or operands per forward.
    """

    name = "int"

    def __init__(self, artifact, model, quantized):
        super().__init__(quantized)
        check_int_gates(artifact)
        self.artifact = artifact
        try:
            self._steps = model_steps(model)
        except CertificationError as exc:
            raise _walk_error(f"backend 'int': {exc}") from None
        self.plan = LoweringPlan.from_dict(artifact.lowering_plan)
        self._ops = {lp.layer: lp.ops for lp in self.plan.layers}
        self._weights: Dict[str, Tuple[np.ndarray, int]] = {}
        #: (weight key, carrier, prod_shift, lowering) -> the weight's
        #: GEMM operand (:meth:`gemm_weight`), built on first use.
        self._carried: Dict[
            Tuple[str, Optional[str], int, Callable[..., np.ndarray]],
            np.ndarray,
        ] = {}
        for key, (codes, fmt, scale) in artifact.weight_codes.items():
            exponent = pow2_exponent(scale)
            if exponent is None:
                raise _walk_error(
                    f"backend 'int': weight scale for {key!r} is not a "
                    f"power of two despite a lowerable plan"
                )
            codes = np.asarray(codes, np.int64)
            self._weights[key] = (codes, exponent - fmt.fractional_bits)
        #: :meth:`_table_key` -> exponential ROM in its work dtype,
        #: built once per bound model (tests assert two predicts reuse
        #: the same table object).
        self.lut_tables: Dict[Tuple[int, ...], np.ndarray] = {}
        for ops in self._ops.values():
            for op in ops:
                approx = op.approx
                if approx is not None and approx.method == "lut-softmax":
                    key = self._table_key(approx)
                    if key not in self.lut_tables:
                        self.lut_tables[key] = k.softmax_table(
                            approx, self.plan.integer_bits
                        )

    def weight(self, key: str) -> Tuple[np.ndarray, int]:
        """(int64 codes, grid exponent) of a frozen weight tensor."""
        return self._weights[key]

    def gemm_weight(
        self,
        key: str,
        carrier: Optional[str],
        prod_shift: int,
        lower: Callable[..., np.ndarray],
    ) -> np.ndarray:
        """A weight's MAC operand: ``lower(codes, prod_shift, carrier)``
        (:func:`~repro.backend.int_kernels.conv_weight`,
        ``linear_weight`` or ``scaled_weight``), built once per bound
        model and reused by every batch.  The cache is keyed by
        ``lower`` too: each lowering has its own layout."""
        cache = (key, carrier, prod_shift, lower)
        operand = self._carried.get(cache)
        if operand is None:
            operand = lower(self._weights[key][0], prod_shift, carrier)
            self._carried[cache] = operand
        return operand

    @staticmethod
    def _table_key(approx) -> Tuple[int, ...]:
        """What a softmax ROM and its work dtype depend on."""
        tables = approx.tables
        return (
            approx.integer_bits, approx.operand_bits,
            int(tables.get("num_inputs", 2)),
            int(tables.get("logit_bits", approx.operand_bits)),
        )

    def table_for(self, approx) -> np.ndarray:
        """Cached exponential ROM for a lut-softmax approximation."""
        return self.lut_tables[self._table_key(approx)]

    def predict(
        self,
        images: np.ndarray,
        batch_size: int = 128,
        trace: Optional[List[dict]] = None,
    ) -> np.ndarray:
        """Predicted labels, evaluated batch by batch on integer codes.

        ``trace``, when given, collects one record per executed plan op
        (layer, op, output dtype/shape, LUT table identity, the carrier
        of each contraction and squash, the ``scale_carrier`` of each
        squash whose plan op records one, ``fused`` on routing products
        computed inside their sum) — the allocation/dtype tracer the
        test suite uses to prove every op result stays integer.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        images = np.asarray(images)
        hook_draws = (
            np.random.default_rng(self.artifact.seed)
            if self.plan.scheme == "SR" else None
        )
        op_draws = np.random.default_rng(_OP_STREAM ^ self.artifact.seed)
        labels = []
        for start in range(0, len(images), batch_size):
            walk = _PlanWalk(self, hook_draws, op_draws, trace)
            labels.append(walk.run(images[start:start + batch_size]))
            walk.finish()
        if not labels:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(labels)


@dataclass
class _Codes:
    """A concrete tensor of the walk: integer codes on grid ``2^exp``."""

    codes: np.ndarray
    exp: Optional[int]
    #: carrier -> these codes as routing votes ``(B, J, I, D)`` on that
    #: carrier (None: int64), a contiguous copy cast on first use and
    #: shared by every routing contraction over the same votes.
    carried: Dict[Optional[str], np.ndarray] = field(default_factory=dict)


class _PlanWalk:
    """One batch's walk of the plan: the shared model walk
    (``model.steps()``) interpreted on integer codes.

    Each structural op consumes the next op of its layer's plan (a
    FIFO; any drift between walker and plan is a hard error) and runs
    its kernel.  The cursor state is per batch (a plan describes one
    forward); the draw generators are shared across batches of one
    ``predict``, mirroring the float path's single context per serving
    call.
    """

    def __init__(self, backend, hook_draws, op_draws, trace):
        self.backend = backend
        self.plan = backend.plan
        self._ops = backend._ops
        self._cursor: Dict[str, int] = {}
        self._hook_draws = hook_draws
        self._op_draws = op_draws
        self._trace = trace

    def run(self, images: np.ndarray) -> np.ndarray:
        """Labels of one batch; the head follows the output rank
        (capsules ``(B, J, D)`` or logits ``(B, J)``)."""
        x = self.input(images)
        for _, _, fn in self.backend._steps:
            x = fn(self, x)
        out = x.codes
        if out.ndim == 3:
            return k.int_capsule_predictions(out)
        return k.int_logit_predictions(out)

    # ------------------------------------------------------------------
    # Plan-op plumbing
    # ------------------------------------------------------------------
    def take(self, layer: str, name: str):
        """Consume the next plan op of ``layer``; it must be ``name``."""
        ops = self._ops.get(layer, ())
        index = self._cursor.get(layer, 0)
        if index >= len(ops) or ops[index].op != name:
            found = ops[index].op if index < len(ops) else "<end of layer>"
            raise _walk_error(
                f"int backend walk diverged from the lowering plan at "
                f"layer {layer!r}: expected op {name!r}, plan has {found!r}"
            )
        self._cursor[layer] = index + 1
        return ops[index]

    def finish(self) -> None:
        """Every plan op must have executed exactly once."""
        for layer, ops in self._ops.items():
            done = self._cursor.get(layer, 0)
            if done != len(ops):
                raise _walk_error(
                    f"int backend walk left {len(ops) - done} unexecuted "
                    f"plan ops in layer {layer!r}"
                )

    def seal(
        self, op, codes: np.ndarray, bits: Optional[int] = None, **extra
    ) -> _Codes:
        """Narrow an op result to its certified width (``bits``, else
        the op's ``accumulator_bits``), trace it, and place it on the
        op's output grid."""
        codes = k.narrow(codes, op.accumulator_bits if bits is None else bits)
        self.record(op, codes, **extra)
        return _Codes(codes, op.out_exp)

    def record(self, op, codes: np.ndarray, **extra) -> None:
        """Check that ``codes`` (the result ``op`` produced or, for a
        fused op, helped produce) is integer, and trace it."""
        if codes.dtype.kind not in "iu":
            raise _walk_error(
                f"float dtype {codes.dtype} leaked into the int path at "
                f"{op.layer}:{op.op}"
            )
        if self._trace is not None:
            record = {
                "layer": op.layer,
                "op": op.op,
                "dtype": str(codes.dtype),
                "shape": tuple(codes.shape),
            }
            if op.op in CARRIER_OPS:
                record["carrier"] = op.carrier or INT64_CARRIER
            if op.scale_carrier is not None:
                record["scale_carrier"] = op.scale_carrier
            record.update(extra)
            self._trace.append(record)

    # ------------------------------------------------------------------
    # Quantization hooks
    # ------------------------------------------------------------------
    def _hook(self, layer: str, site: str, x: _Codes) -> _Codes:
        """Quantization hook: certified shift-and-round + clip.

        For SR, one uniform array of the hook shape is always drawn —
        the float path's scheme draws unconditionally, so exact-shift
        hooks must burn a draw to keep the streams aligned.
        """
        op = self.take(layer, site)
        rescale = op.rescale
        draw = None
        if self._hook_draws is not None:
            draw = self._hook_draws.random(size=np.shape(x.codes))
        fmt = FixedPointFormat(self.plan.integer_bits, rescale.bits)
        out = k.hook_rescale(
            x.codes, rescale.shift, rescale.rounding, fmt, draw=draw,
            label=layer,
        )
        return self.seal(op, out)

    def act(self, layer: str, x: _Codes) -> _Codes:
        return self._hook(layer, "act", x)

    def routing(self, layer: str, array: str, x: _Codes) -> _Codes:
        return self._hook(layer, f"routing:{array}", x)

    # ------------------------------------------------------------------
    # Structural ops (the walk vocabulary of repro.capsnet.walk)
    # ------------------------------------------------------------------
    def weight(self, layer: str, name: str, param) -> Optional[str]:
        """The key of a frozen weight tensor (its codes are fetched on
        the carrier of the op that consumes them)."""
        key = f"{layer}:{name}"
        if param is None and key not in self.backend._weights:
            return None
        return key

    def input(self, images: np.ndarray) -> _Codes:
        """Snap float inputs to the plan's input grid (the path's only
        float→int boundary).

        Raises ``ValueError`` on non-finite pixels or pixels outside the
        certified input domain: the plan's widths and carrier bounds
        are proven for that domain only.
        """
        op = self.take(INPUT_LAYER, "quantize-input")
        images = np.asarray(images, np.float64)  # qlint: disable=QL044 (input boundary)
        lo, hi = op.approx.domain_lo, op.approx.domain_hi
        if not np.isfinite(images).all():
            raise ValueError("int backend input has non-finite pixels")
        if images.size and (images.min() < lo or images.max() > hi):
            raise ValueError(
                f"int backend input pixels span [{images.min():g}, "
                f"{images.max():g}], outside the certified input domain "
                f"[{lo:g}, {hi:g}]"
            )
        scaled = images * 2.0 ** -op.out_exp
        return self.seal(op, np.rint(scaled).astype(np.int64))

    def layout(self, x: _Codes, fn) -> _Codes:
        return _Codes(fn(x.codes), x.exp)

    def _operands(self, op, weight, bias, x, lower):
        """(the weight's MAC operand on the op's carrier, scaled onto the
        op's output grid; the bias codes or None; and the exact left
        shift aligning the bias onto that grid)."""
        w_exp = self.backend.weight(weight)[1]
        w = self.backend.gemm_weight(
            weight, op.carrier, w_exp + x.exp - op.out_exp, lower
        )
        if bias is None:
            return w, None, 0
        b, b_exp = self.backend.weight(bias)
        return w, b, b_exp - op.out_exp

    def conv(self, layer, weight, bias, x: _Codes, conv) -> _Codes:
        op = self.take(layer, "conv")
        w, b, bias_shift = self._operands(op, weight, bias, x, k.conv_weight)
        return self.seal(op, k.int_conv2d(
            x.codes, w, b, conv.kernel_size, conv.stride, conv.padding,
            bias_shift=bias_shift, carrier=op.carrier,
            out_dtype=k.storage_dtype(op.accumulator_bits),
        ))

    def linear(self, layer, weight, bias, x: _Codes, fan_in=None) -> _Codes:
        op = self.take(layer, "linear")
        out_dtype = k.storage_dtype(op.accumulator_bits)
        if fan_in is not None:
            w, _, _ = self._operands(op, weight, None, x, k.scaled_weight)
            out = k.int_votes(x.codes, w, op.carrier, out_dtype=out_dtype)
        else:
            w, b, bias_shift = self._operands(
                op, weight, bias, x, k.linear_weight
            )
            out = k.int_linear(
                x.codes, w, b, bias_shift=bias_shift, carrier=op.carrier,
                out_dtype=out_dtype,
            )
        return self.seal(op, out)

    def relu(self, layer: str, x: _Codes) -> _Codes:
        return self.seal(self.take(layer, "relu"), k.int_relu(x.codes))

    def avgpool(self, layer: str, x: _Codes, kernel: int) -> _Codes:
        op = self.take(layer, "avgpool")
        return self.seal(op, k.int_pool_sum(x.codes, kernel))

    def batchnorm(self, layer: str, x: _Codes, bn) -> _Codes:
        op = self.take(layer, "batchnorm")
        tables = op.approx.tables
        return self.seal(op, k.int_batchnorm(
            x.codes, tables["multipliers"], tables["offsets"]
        ))

    def squash(self, layer: str, x: _Codes, dim: int, axis: int) -> _Codes:
        """Squash sealed at its output width, ``QF + 1`` bits: every
        output is below ``2^QF`` (:func:`~repro.backend.int_kernels
        .squash_codes`), however wide the datapath's
        ``accumulator_bits``."""
        op = self.take(layer, "squash")
        out = k.int_squash(
            x.codes, op.rescale, op.approx, axis=axis, gen=self._op_draws,
            carrier=op.carrier, scale_carrier=op.scale_carrier,
        )
        return self.seal(op, out, bits=op.approx.operand_bits + 1)

    def softmax(self, layer: str, x: _Codes, count: int) -> _Codes:
        op = self.take(layer, "softmax")
        table = self.backend.table_for(op.approx)
        coupling = k.int_softmax(
            x.codes, op.approx, self.plan.integer_bits, table
        )
        return self.seal(op, coupling, table_id=id(table))

    def add(self, layer: str, a: _Codes, b: _Codes) -> _Codes:
        """Sum of two tensors left-aligned onto the op's grid.

        It computes at a width proven from the operands' dtypes and
        shifts: an ``n``-bit code shifted left by ``s`` is at most
        ``2^(n-1+s)`` in magnitude, so the sum fits ``max(n + s) + 1``
        bits: int32 for two unshifted int16 operands, int64 past 32
        bits.
        """
        op = self.take(layer, "add")
        out_exp = op.out_exp
        if a.exp < out_exp or b.exp < out_exp:
            raise _walk_error(
                f"add in layer {layer!r} is not exactly alignable onto "
                f"grid 2^{out_exp}"
            )
        shifts = (a.exp - out_exp, b.exp - out_exp)
        work = k.storage_dtype(1 + max(
            8 * x.codes.dtype.itemsize + shift
            for x, shift in zip((a, b), shifts)
        ))
        # The add casts unshifted operands in its own loop: no copy.
        terms = [
            x.codes if shift == 0
            else np.left_shift(x.codes, shift, dtype=work)
            for x, shift in zip((a, b), shifts)
        ]
        return self.seal(op, np.add(*terms, dtype=work))

    def zero_logits(self, layer: str, votes: _Codes) -> _Codes:
        batch, in_caps, out_caps, _ = votes.codes.shape
        return _Codes(
            np.zeros((batch, in_caps, out_caps), dtype=np.int64), None
        )

    def weighted_sum(self, layer, coupling: _Codes, votes: _Codes, count):
        return self._contract(
            layer, k.routing_weighted_sum, votes, coupling
        )

    def agreement(self, layer, votes: _Codes, activation: _Codes, count):
        return self._contract(layer, k.routing_agreement, votes, activation)

    def _contract(self, layer: str, contract, votes: _Codes, operand):
        """One routing ``mul`` + ``sum`` pair as a single contraction.

        ``contract`` (:func:`~repro.backend.int_kernels
        .routing_weighted_sum` or ``routing_agreement``) sums the votes'
        products with ``operand`` as one batched matmul on the ``sum``
        op's carrier (int64 without one); the product array is never
        built.  The product converts once, straight into the ``sum``
        op's sealed dtype (the certificate bounds the sums by it).  The
        ``mul`` is still taken from the plan and traced with that dtype,
        marked ``fused`` into the ``sum``.  The votes are cast to the
        carrier once per routing walk, as one C-contiguous
        ``(B, J, I, D)`` array that every contraction reads (strided
        batches of a transposed view make the GEMMs slower than the
        copy costs).
        """
        mul = self.take(layer, "mul")
        total = self.take(layer, "sum")
        carrier = total.carrier
        if carrier not in votes.carried:
            votes.carried[carrier] = k.carrier_cast(
                votes.codes.transpose(0, 2, 1, 3), carrier
            )
        out = contract(
            votes.carried[carrier], operand.codes, carrier,
            out_dtype=k.storage_dtype(total.accumulator_bits),
        )
        self.record(mul, out, fused="sum")
        return self.seal(total, out)
