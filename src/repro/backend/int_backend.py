"""Integer-only inference backend: executes a certified lowering plan.

Where the float backend *simulates* fixed point (dequantized weights,
float forward, grid-snapping hooks), this backend executes the
artifact's :class:`~repro.analysis.lowering.LoweringPlan` directly on
integer codes: frozen weight codes feed exact convolution/matmul
accumulators, every hook becomes the plan's certified shift-and-round,
squash/softmax run the bit-accurate LUT/iterative datapaths of
:mod:`repro.hw.fixed_ref`, and dynamic routing iterates entirely on
codes.  Between input quantization and the final label argmax, floats
exist only inside the audited carrier helper of
:mod:`repro.backend.int_kernels`: contractions whose plan op records a
``carrier`` run as float32/float64 BLAS GEMMs that are exact by the
bound the plan recorded, and come back as int64 codes.  Every sealed op
result is integer, which the dtype tracer checks.

Execution walks each model family's forward in the exact structural
order the lowering analyzer recorded it, consuming the plan's per-layer
op list as a FIFO — any drift between model and plan is a hard error,
not a silent wrong answer.  Stochastic rounding stays in lockstep with
the float path: the float context draws one uniform array per
activation/routing hook, so the walker draws the identical stream
(same seed, same shapes, same order) and burns the draw when the
certified shift is exact.  Squash-operand rescales have no float-path
counterpart and use a separate seeded stream.

The backend is refused outright for artifacts that are not certified
PASS and lowerable — see :func:`repro.backend.base.check_int_gates` —
and refuses inputs outside the plan's certified input domain, on which
none of the plan's widths or carrier bounds would hold.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.interval import pow2_exponent
from repro.analysis.lowering import (
    CONTRACTION_OPS,
    INT64_CARRIER,
    LoweringPlan,
)
from repro.analysis.qlower import INPUT_LAYER
from repro.backend import int_kernels as k
from repro.backend.base import InferenceBackend, check_int_gates
from repro.hw.fixed_ref import exp_lut
from repro.quant.fixed_point import FixedPointFormat

#: Seed-stream separator for squash-operand rescales (int-only ops with
#: no float-path draw to mirror); XORed with the artifact seed.
_OP_STREAM = 0x51A5

#: Model class name -> walker method on :class:`_PlanWalk`.
_RUNNERS = {
    "ShallowCaps": "run_shallow",
    "DeepCaps": "run_deep",
    "LeNet5": "run_lenet",
}


def _walk_error(message: str) -> Exception:
    from repro.api.artifact import ArtifactError

    return ArtifactError(message)


class IntBackend(InferenceBackend):
    """Integer executor of a certified lowering plan (module docstring).

    Construction enforces the gates, casts every weight matrix once to
    the carriers its layer's contractions record, and prebuilds every
    softmax exponential ROM the plan needs (one per distinct LUT
    format), so a bound model never rebuilds tables per forward.
    """

    name = "int"

    def __init__(self, artifact, model, quantized):
        super().__init__(quantized)
        check_int_gates(artifact)
        self.artifact = artifact
        kind = type(model).__name__
        if kind not in _RUNNERS:
            raise _walk_error(
                f"backend 'int' has no integer walker for model type "
                f"{kind!r} (supported: {', '.join(sorted(_RUNNERS))})"
            )
        self._runner = _RUNNERS[kind]
        self.plan = LoweringPlan.from_dict(artifact.lowering_plan)
        self._ops = {lp.layer: lp.ops for lp in self.plan.layers}
        carriers: Dict[str, set] = {}
        for layer, ops in self._ops.items():
            for op in ops:
                if op.op in ("conv", "linear") and op.carrier is not None:
                    carriers.setdefault(layer, set()).add(op.carrier)
        self._weights: Dict[str, Tuple[np.ndarray, int]] = {}
        #: (weight key, carrier) -> the weight's codes in that carrier.
        self._carried: Dict[Tuple[str, str], np.ndarray] = {}
        for key, (codes, fmt, scale) in artifact.weight_codes.items():
            exponent = pow2_exponent(scale)
            if exponent is None:
                raise _walk_error(
                    f"backend 'int': weight scale for {key!r} is not a "
                    f"power of two despite a lowerable plan"
                )
            codes = np.asarray(codes, np.int64)
            self._weights[key] = (codes, exponent - fmt.fractional_bits)
            layer = key.split(":", 1)[0]
            if not key.endswith("bias"):
                for carrier in carriers.get(layer, ()):
                    self._carried[key, carrier] = k.carrier_cast(
                        codes, carrier
                    )
        #: (integer_bits, fractional_bits) -> exponential ROM, built
        #: once per bound model (LUT-cache satellite; tests assert two
        #: predicts reuse the same table object).
        self.lut_tables: Dict[Tuple[int, int], np.ndarray] = {}
        for ops in self._ops.values():
            for op in ops:
                approx = op.approx
                if approx is not None and approx.method == "lut-softmax":
                    fmt_key = (approx.integer_bits, approx.operand_bits)
                    if fmt_key not in self.lut_tables:
                        table, _ = exp_lut(FixedPointFormat(*fmt_key))
                        self.lut_tables[fmt_key] = table

    def weight(
        self, key: str, carrier: Optional[str] = None
    ) -> Tuple[np.ndarray, int]:
        """(codes, grid exponent) of a frozen weight tensor, the codes
        pre-cast to ``carrier`` when the plan uses it for this layer."""
        codes, exponent = self._weights[key]
        return self._carried.get((key, carrier), codes), exponent

    def table_for(self, approx) -> np.ndarray:
        """Cached exponential ROM for a lut-softmax approximation."""
        return self.lut_tables[(approx.integer_bits, approx.operand_bits)]

    def predict(
        self,
        images: np.ndarray,
        batch_size: int = 128,
        trace: Optional[List[dict]] = None,
    ) -> np.ndarray:
        """Predicted labels, evaluated batch by batch on integer codes.

        ``trace``, when given, collects one record per executed plan op
        (layer, op, output dtype/shape, LUT table identity, the carrier
        of each contraction, ``fused`` on routing products computed
        inside their sum) — the allocation/dtype tracer the test suite
        uses to prove every op result stays integer.
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


class _PlanWalk:
    """One batch's walk of the plan: per-layer FIFO op consumption.

    The cursor state is per batch (a plan describes one forward);
    the draw generators are shared across batches of one ``predict``,
    mirroring the float path's single context per serving call.
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
        return getattr(self, self.backend._runner)(images)

    # ------------------------------------------------------------------
    # Plan-op plumbing
    # ------------------------------------------------------------------
    def take(self, layer: str, name: str):
        """Consume the next plan op of ``layer``; it must be ``name``."""
        ops = self._ops[layer]
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

    def seal(self, op, codes: np.ndarray, **extra) -> np.ndarray:
        """Narrow an op result to its certified width and trace it."""
        codes = k.narrow(codes, op.accumulator_bits)
        self.record(op, codes, **extra)
        return codes

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
            if op.op in CONTRACTION_OPS:
                record["carrier"] = op.carrier or INT64_CARRIER
            record.update(extra)
            self._trace.append(record)

    def hook(self, layer: str, site: str, codes: np.ndarray):
        """Quantization hook: certified shift-and-round + clip.

        For SR, one uniform array of the hook shape is always drawn —
        the float path's scheme draws unconditionally, so exact-shift
        hooks must burn a draw to keep the streams aligned.
        """
        op = self.take(layer, site)
        rescale = op.rescale
        draw = None
        if self._hook_draws is not None:
            draw = self._hook_draws.random(size=np.shape(codes))
        fmt = FixedPointFormat(self.plan.integer_bits, rescale.bits)
        out = k.hook_rescale(
            codes, rescale.shift, rescale.rounding, fmt, draw=draw
        )
        return self.seal(op, out), op.out_exp

    def quantize_input(self, images: np.ndarray):
        """Snap float inputs to the plan's input grid (the path's only
        float→int boundary).

        Raises ``ValueError`` on non-finite pixels or pixels outside the
        certified input domain: the plan's widths and carrier bounds
        are proven for that domain only.
        """
        op = self.take(INPUT_LAYER, "quantize-input")
        images = np.asarray(images, np.float64)
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
        codes = np.rint(scaled).astype(np.int64)
        return self.seal(op, codes), op.out_exp

    def conv(self, codes, exp, conv_mod, weight_key, bias_key, op):
        """Integer convolution aligned onto the plan's output grid."""
        weight, w_exp = self.backend.weight(weight_key, op.carrier)
        prod_shift = (w_exp + exp) - op.out_exp
        bias = None
        bias_shift = 0
        if bias_key is not None:
            bias, b_exp = self.backend.weight(bias_key)
            bias_shift = b_exp - op.out_exp
        out = k.int_conv2d(
            codes, weight, bias, conv_mod.stride, conv_mod.padding,
            prod_shift=prod_shift, bias_shift=bias_shift, carrier=op.carrier,
        )
        return self.seal(op, out), op.out_exp

    # ------------------------------------------------------------------
    # Dynamic routing (shared by CapsFC and ConvCaps3d)
    # ------------------------------------------------------------------
    def mul_sum(self, layer: str, contract, votes_in, operand):
        """One routing ``mul`` + ``sum`` pair as a single contraction.

        ``contract`` (:func:`~repro.backend.int_kernels
        .routing_weighted_sum` or ``routing_agreement``) sums the votes'
        products with ``operand`` as one batched matmul on the ``sum``
        op's carrier (int64 without one), reading the votes from
        ``votes_in(carrier)``; the product array is never built.  The
        ``mul`` is still taken from the plan and traced, marked
        ``fused`` into the ``sum``.
        """
        mul = self.take(layer, "mul")
        total = self.take(layer, "sum")
        out = contract(votes_in(total.carrier), operand, total.carrier)
        self.record(mul, out, fused="sum")
        return self.seal(total, out)

    def routing(self, layer: str, votes, vexp: int, iterations: int):
        batch, in_caps, out_caps, _ = votes.shape
        logits = np.zeros((batch, in_caps, out_caps), dtype=np.int64)
        lexp: Optional[int] = None
        activation = None
        aexp: Optional[int] = None
        #: carrier -> the votes as (B, J, I, D) in that carrier (None:
        #: int64), cast on first use and shared by every contraction of
        #: this call.
        carried: Dict[Optional[str], np.ndarray] = {}

        def votes_in(carrier):
            if carrier not in carried:
                carried[carrier] = k.carrier_cast(
                    votes.transpose(0, 2, 1, 3), carrier
                )
            return carried[carrier]

        for iteration in range(iterations):
            logits, lexp = self.hook(layer, "routing:logits", logits)
            op = self.take(layer, "softmax")
            table = self.backend.table_for(op.approx)
            coupling = k.int_softmax(
                logits, op.approx, self.plan.integer_bits, table
            )
            coupling = self.seal(op, coupling, table_id=id(table))
            coupling, _ = self.hook(layer, "routing:coupling", coupling)
            pre = self.mul_sum(
                layer, k.routing_weighted_sum, votes_in, coupling
            )
            pre, _ = self.hook(layer, "routing:preactivation", pre)
            op = self.take(layer, "squash")
            squashed = k.int_squash(
                pre, op.rescale, op.approx, axis=-1, gen=self._op_draws
            )
            squashed = self.seal(op, squashed)
            activation, aexp = self.hook(
                layer, "routing:activation", squashed
            )
            if iteration < iterations - 1:
                agreement = self.mul_sum(
                    layer, k.routing_agreement, votes_in, activation
                )
                agreement, gexp = self.hook(
                    layer, "routing:agreement", agreement
                )
                op = self.take(layer, "add")
                out_exp = op.out_exp
                if lexp < out_exp or gexp < out_exp:
                    raise _walk_error(
                        f"routing logits update in {layer!r} is not "
                        f"exactly alignable onto grid 2^{out_exp}"
                    )
                logits = (
                    (np.asarray(logits, np.int64) << (lexp - out_exp))
                    + (np.asarray(agreement, np.int64) << (gexp - out_exp))
                )
                logits = self.seal(op, logits)
                lexp = out_exp
        return activation, aexp

    def capsfc(self, layer: str, fc, u, exp: int):
        """Fully-connected capsules: votes + routing (ShallowCaps L3,
        DeepCaps L6)."""
        op = self.take(layer, "linear")
        weight, w_exp = self.backend.weight(f"{layer}:weight", op.carrier)
        shift = (w_exp + exp) - op.out_exp
        if shift < 0:
            raise _walk_error(
                f"vote grid for {layer!r} is below the plan grid"
            )
        votes = self.seal(op, k.int_votes(u, weight, op.carrier) << shift)
        votes, vexp = self.hook(layer, "act", votes)
        return self.routing(layer, votes, vexp, fc.routing_iterations)

    # ------------------------------------------------------------------
    # ShallowCaps
    # ------------------------------------------------------------------
    def run_shallow(self, images: np.ndarray) -> np.ndarray:
        model = self.backend.model
        codes, exp = self.quantize_input(images)
        op = self.take("L1", "conv")
        codes, exp = self.conv(
            codes, exp, model.conv1, "L1:weight", "L1:bias", op
        )
        op = self.take("L1", "relu")
        codes = self.seal(op, k.int_relu(codes))
        codes, exp = self.hook("L1", "act", codes)

        primary = model.primary
        op = self.take("L2", "conv")
        codes, exp = self.conv(
            codes, exp, primary.conv, "L2:weight", "L2:bias", op
        )
        batch, _, height, width = codes.shape
        caps = codes.reshape(
            batch, primary.caps_types, primary.caps_dim, height, width
        )
        caps = caps.transpose(0, 1, 3, 4, 2)
        caps = caps.reshape(
            batch, primary.caps_types * height * width, primary.caps_dim
        )
        op = self.take("L2", "squash")
        caps = self.seal(op, k.int_squash(
            caps, op.rescale, op.approx, axis=-1, gen=self._op_draws
        ))
        caps, exp = self.hook("L2", "act", caps)

        activation, _ = self.capsfc("L3", model.digit, caps, exp)
        return k.int_capsule_predictions(activation)

    # ------------------------------------------------------------------
    # DeepCaps
    # ------------------------------------------------------------------
    def convcaps2d(self, mod, codes, exp: int):
        layer, tag = mod.name, mod.weight_tag
        batch, types, dim, height, width = codes.shape
        flat = codes.reshape(batch, types * dim, height, width)
        op = self.take(layer, "conv")
        out, exp = self.conv(
            flat, exp, mod.conv,
            f"{layer}:{tag}.weight", f"{layer}:{tag}.bias", op,
        )
        _, _, out_h, out_w = out.shape
        caps = out.reshape(batch, mod.out_types, mod.out_dim, out_h, out_w)
        op = self.take(layer, "squash")
        caps = self.seal(op, k.int_squash(
            caps, op.rescale, op.approx, axis=2, gen=self._op_draws
        ))
        return caps, op.out_exp

    def convcaps3d(self, mod, codes, exp: int):
        layer = mod.name
        batch, types, dim, height, width = codes.shape
        folded = codes.reshape(batch * types, dim, height, width)
        op = self.take(layer, "conv")
        votes, exp = self.conv(
            folded, exp, mod.conv,
            f"{layer}:{mod.weight_tag}.weight", None, op,
        )
        _, _, out_h, out_w = votes.shape
        votes = votes.reshape(
            batch, types, mod.out_types, mod.out_dim, out_h, out_w
        )
        votes = votes.transpose(0, 4, 5, 1, 2, 3)
        votes = votes.reshape(
            batch * out_h * out_w, types, mod.out_types, mod.out_dim
        )
        votes, vexp = self.hook(layer, "act", votes)
        routed, rexp = self.routing(
            layer, votes, vexp, mod.routing_iterations
        )
        routed = routed.reshape(
            batch, out_h, out_w, mod.out_types, mod.out_dim
        )
        return routed.transpose(0, 3, 4, 1, 2), rexp

    def caps_cell(self, cell, codes, exp: int):
        trunk, trunk_exp = self.convcaps2d(cell.conv1, codes, exp)
        main, main_exp = self.convcaps2d(cell.conv2, trunk, trunk_exp)
        main, main_exp = self.convcaps2d(cell.conv3, main, main_exp)
        if cell.routed_skip:
            lateral, lat_exp = self.convcaps3d(cell.skip, trunk, trunk_exp)
        else:
            lateral, lat_exp = self.convcaps2d(cell.skip, trunk, trunk_exp)
        op = self.take(cell.name, "add")
        out_exp = op.out_exp
        if main_exp < out_exp or lat_exp < out_exp:
            raise _walk_error(
                f"cell {cell.name!r} skip merge is not exactly alignable "
                f"onto grid 2^{out_exp}"
            )
        merged = (
            (np.asarray(main, np.int64) << (main_exp - out_exp))
            + (np.asarray(lateral, np.int64) << (lat_exp - out_exp))
        )
        merged = self.seal(op, merged)
        op = self.take(cell.name, "squash")
        merged = self.seal(op, k.int_squash(
            merged, op.rescale, op.approx, axis=2, gen=self._op_draws
        ))
        return self.hook(cell.name, "act", merged)

    def run_deep(self, images: np.ndarray) -> np.ndarray:
        model = self.backend.model
        codes, exp = self.quantize_input(images)
        op = self.take("L1", "conv")
        codes, exp = self.conv(
            codes, exp, model.conv1, "L1:weight", "L1:bias", op
        )
        op = self.take("L1", "batchnorm")
        tables = op.approx.tables
        codes = self.seal(op, k.int_batchnorm(
            codes, tables["multipliers"], tables["offsets"]
        ))
        exp = op.out_exp
        op = self.take("L1", "relu")
        codes = self.seal(op, k.int_relu(codes))
        codes, exp = self.hook("L1", "act", codes)

        batch, channels, height, width = codes.shape
        dim0 = model.config.cell_dims[0]
        codes = codes.reshape(batch, channels // dim0, dim0, height, width)
        for cell in model._cells:
            codes, exp = self.caps_cell(cell, codes, exp)

        batch, types, dim, height, width = codes.shape
        flat = codes.transpose(0, 1, 3, 4, 2).reshape(
            batch, types * height * width, dim
        )
        activation, _ = self.capsfc("L6", model.class_caps, flat, exp)
        return k.int_capsule_predictions(activation)

    # ------------------------------------------------------------------
    # LeNet-5
    # ------------------------------------------------------------------
    def run_lenet(self, images: np.ndarray) -> np.ndarray:
        model = self.backend.model
        codes, exp = self.quantize_input(images)
        for layer, conv_mod in (("L1", model.conv1), ("L2", model.conv2)):
            op = self.take(layer, "conv")
            codes, exp = self.conv(
                codes, exp, conv_mod, f"{layer}:weight", f"{layer}:bias", op
            )
            op = self.take(layer, "relu")
            codes = self.seal(op, k.int_relu(codes))
            op = self.take(layer, "avgpool")
            codes = self.seal(op, k.int_pool_sum(codes, 2))
            exp = op.out_exp
            codes, exp = self.hook(layer, "act", codes)
        codes = codes.reshape(codes.shape[0], -1)
        for layer, fc in (
            ("L3", model.fc1), ("L4", model.fc2), ("L5", model.fc3)
        ):
            op = self.take(layer, "linear")
            weight, w_exp = self.backend.weight(f"{layer}:weight", op.carrier)
            bias, b_exp = self.backend.weight(f"{layer}:bias")
            out = k.int_linear(
                codes, weight, bias,
                prod_shift=(w_exp + exp) - op.out_exp,
                bias_shift=b_exp - op.out_exp,
                carrier=op.carrier,
            )
            codes = self.seal(op, out)
            exp = op.out_exp
            if layer != "L5":
                op = self.take(layer, "relu")
                codes = self.seal(op, k.int_relu(codes))
            codes, exp = self.hook(layer, "act", codes)
        return k.int_logit_predictions(codes)
