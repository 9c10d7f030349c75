"""Float GEMM carriers of the int backend: exact by the recorded bound.

A contraction whose plan op records ``carrier`` runs as a float32 or
float64 GEMM instead of an int64 one.  That is sound only because the
lowering plan bounds every product and partial sum — Σ|w|·max|x| per
output on the output grid (products scaled by ``2^prod_shift``) plus
the shifted bias for MACs, ``count · max|term|`` for routing sums —
below the carrier's exact-integer limit, in any summation order.  The
MAC kernels fold the shift into their weights and add the bias in the
carrier, so the carrier must be chosen from that full bound.

* ``choose_carrier`` is strict at both limits;
* the carrier kernels are bit-identical to the int64 reference over
  drawn shapes, strides and paddings, with codes whose bound sits at
  and just past each limit (the ``+1`` cases are the ones a float GEMM
  one notch too narrow would round), and return the sealed dtype they
  are asked for;
* the convolution equals a naive loop on int16/int32/int64 codes in
  either patch layout, on every carrier; a shifted product plus bias
  lands exactly on the float32 limit ``2^24 - 1``, and products whose
  unshifted bound alone would pick float32 need float64 once shifted
  (float32 would round ``2^26 + 2``);
* the fused routing contraction equals the ``mul`` + ``sum`` it
  replaces;
* the plan takes the bound from Σ|w|·|x|, not from the final interval:
  a bias that cancels a large partial sum does not buy a float32
  carrier, and 30-bit codes fall back to int64.

Squash ops carry a carrier too: ``float64`` when the datapath bound
``caps_dim · int_max² · 2^QF`` is below ``2^52``.  The squash kernel on
float64, the same kernel on int64, and the reference datapath
:func:`repro.hw.fixed_ref.fixed_squash` agree bit for bit, including at
the square-root and floor-division edges of the float64 carrier; every
zoo plan records ``float64`` on its squash ops, and removing those
carriers leaves the int codes unchanged.

Squash's full-size scale stage ``trunc(c·ratio/norm)`` carries its own
``scale_carrier``: ``float32`` when ``2^(W-1)·(2^QF - 1)`` and the
largest norm are below ``2^24``.  The split kernel (capsule stage on
float64 or int64, scale stage on float32 or either of those) equals
the reference bit for bit on int16/int32/int64 operands, writes its
result at ``QF + 1`` bits and leaves the caller's codes untouched; the
bound is strict at ``2^24``; every traced zoo squash is stored at
``QF + 1`` bits, and plans without the field give identical codes.
The routing contractions write the ``sum`` op's sealed dtype, and the
walk's ``add`` computes at the width its operands prove.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_autograd_ops_nn import conv_cases, naive_conv2d
from test_backend import copy_plan, make_ready, snap

from repro.analysis import lower_artifact, lower_model
from repro.analysis.lowering import (
    KIND_EXACT,
    SQUASH_CARRIER_LIMIT,
    OpPlan,
    choose_carrier,
    choose_squash_carrier,
    choose_squash_scale_carrier,
    squash_bound,
)
from repro.api.artifact import ModelArtifact
from repro.api.session import build_model
from repro.backend import int_kernels as k
from repro.backend.int_backend import _Codes, _PlanWalk
from repro.baselines import LeNet5
from repro.data import synth_digits
from repro.hw.fixed_ref import fixed_squash
from repro.quant import (
    QuantizationConfig,
    QuantizedCapsNet,
    get_rounding_scheme,
)
from repro.quant.fixed_point import FixedPointFormat

#: Bound -> (count, a, b) with count·a·b == bound exactly, so an input
#: whose terms all sit at their maxima drives the sum onto the bound.
BOUNDS = {
    2 ** 24 - 1: (255, 241, 273),
    2 ** 24: (256, 256, 256),
    2 ** 24 + 1: (97, 257, 673),
    2 ** 53 - 1: (6361, 69431, 20394401),
    2 ** 53: (2 ** 13, 2 ** 20, 2 ** 20),
    2 ** 53 + 1: (3, 107, 28059810762433),
}


def test_bound_table_is_exact():
    for bound, (count, a, b) in BOUNDS.items():
        assert count * a * b == bound


@pytest.mark.parametrize("bound, carrier", [
    (0, "float32"),
    (2 ** 24 - 1, "float32"),
    (2 ** 24, "float64"),
    (2 ** 53 - 1, "float64"),
    (2 ** 53, None),
    (2 ** 62, None),
])
def test_choose_carrier_is_strict_at_each_limit(bound, carrier):
    assert choose_carrier(bound) == carrier


def split(total, parts, rng):
    """``parts`` nonnegative integers summing to ``total``."""
    cuts = sorted(int(c) for c in rng.integers(0, total + 1, parts - 1))
    edges = [0] + cuts + [total]
    return np.array(
        [hi - lo for lo, hi in zip(edges, edges[1:])], dtype=np.int64
    )


def row_codes(rows, fan_in, row_sum, signed, rng):
    """Weight rows whose Σ|code| is exactly ``row_sum``."""
    w = np.stack([split(row_sum, fan_in, rng) for _ in range(rows)])
    if signed:
        w = w * rng.choice(np.array([-1, 1], np.int64), size=w.shape)
    return w


def operand_codes(shape, peak, signed, rng):
    """Codes within ±peak; unsigned draws sit exactly at the peak."""
    if not signed:
        return np.full(shape, peak, dtype=np.int64)
    x = rng.integers(-peak, peak + 1, size=shape, dtype=np.int64)
    x.flat[0] = peak
    return x


def conv_on(x, weight, bias, kernel, stride, padding, prod_shift,
            bias_shift, carrier, out_dtype=np.int64):
    """:func:`~repro.backend.int_kernels.int_conv2d` on raw weight codes."""
    return k.int_conv2d(
        x, k.conv_weight(weight, prod_shift, carrier), bias,
        (kernel, kernel), (stride, stride), (padding, padding),
        bias_shift=bias_shift, carrier=carrier, out_dtype=out_dtype,
    )


bounds = st.sampled_from(sorted(BOUNDS))
seeds = st.integers(0, 2 ** 32 - 1)


class TestCarrierKernels:
    @settings(max_examples=40, deadline=None)
    @given(
        bound=bounds, seed=seeds, signed=st.booleans(),
        batch=st.integers(1, 2), channels=st.integers(1, 3),
        size=st.integers(3, 7), out_channels=st.integers(1, 3),
        kernel=st.integers(1, 3), stride=st.integers(1, 2),
        padding=st.integers(0, 1), prod_shift=st.integers(0, 2),
    )
    def test_conv_matches_int64(
        self, bound, seed, signed, batch, channels, size, out_channels,
        kernel, stride, padding, prod_shift,
    ):
        """The carrier is chosen from the plan's full bound: the
        products scaled by ``2^prod_shift`` plus the shifted bias, all
        of which the folded epilogue accumulates in the carrier."""
        rng = np.random.default_rng(seed)
        count, a, b = BOUNDS[bound]
        fan_in = channels * kernel * kernel
        weight = row_codes(
            out_channels, fan_in, count * b, signed, rng
        ).reshape(out_channels, channels, kernel, kernel)
        x = operand_codes((batch, channels, size, size), a, signed, rng)
        bias = rng.integers(-3, 4, size=out_channels)
        full_bound = (bound << prod_shift) + (int(abs(bias).max()) << 1)
        reference = conv_on(x, weight, bias, kernel, stride, padding,
                            prod_shift, bias_shift=1, carrier=None)
        assert reference.dtype == np.int64
        sealed = k.storage_dtype(int(abs(reference).max()).bit_length() + 1)
        got = conv_on(x, weight, bias, kernel, stride, padding, prod_shift,
                      bias_shift=1, carrier=choose_carrier(full_bound),
                      out_dtype=sealed)
        assert got.dtype == sealed and got.flags.c_contiguous
        assert np.array_equal(got, reference)
        if not signed and padding == 0:
            # Every window sees only peak inputs: the sum hits the bound.
            assert (reference - (bias << 1)[:, None, None]).max() == (
                bound << prod_shift
            )

    @settings(max_examples=40, deadline=None)
    @given(
        case=conv_cases(),
        dtype=st.sampled_from([np.int16, np.int32, np.int64]),
        carrier=st.sampled_from([None, "float32", "float64"]),
        prod_shift=st.integers(0, 2),
    )
    def test_conv_matches_naive(self, case, dtype, carrier, prod_shift):
        """Codes of every storage width, in either patch layout and
        through non-contiguous inputs, on every carrier (|codes| <= 60
        keep Σ|w|·|x|·2^prod_shift far below 2^24)."""
        *arrays, stride, padding = case
        x, w, b = (
            np.clip(np.rint(a * 20), -60, 60).astype(np.int64) for a in arrays
        )
        x = x.astype(dtype)
        reference = naive_conv2d(
            x.astype(np.int64), w << prod_shift, b << 1, stride, padding
        )
        got = conv_on(x, w, b, w.shape[2], stride, padding, prod_shift,
                      bias_shift=1, carrier=carrier, out_dtype=np.int32)
        assert got.dtype == np.int32 and got.flags.c_contiguous
        assert np.array_equal(got, reference)

    @pytest.mark.parametrize(
        "row_sum, peak, prod_shift, bias, bias_shift, carrier, top", [
            # (2^23 - 1)·2 + 1: the float32 limit, reached exactly.
            (178481, 47, 1, 1, 0, "float32", 2 ** 24 - 1),
            # (2^24 - 1)·4 + 3·2: the unshifted products alone would
            # pick float32, which rounds 2^26 + 2 down to 2^26.
            (255 * 273, 241, 2, 3, 1, "float64", 2 ** 26 + 2),
        ],
    )
    def test_conv_folds_shift_and_bias_at_the_float32_limit(
        self, row_sum, peak, prod_shift, bias, bias_shift, carrier, top
    ):
        rng = np.random.default_rng(0)
        weight = row_codes(2, 9, row_sum, False, rng).reshape(2, 1, 3, 3)
        x = operand_codes((2, 1, 5, 5), peak, False, rng)
        bias = np.array([bias, -bias])
        full_bound = (row_sum * peak << prod_shift) + (
            int(abs(bias).max()) << bias_shift
        )
        assert full_bound == top and choose_carrier(full_bound) == carrier
        args = (x, weight, bias, 3, 1, 0, prod_shift, bias_shift)
        reference = conv_on(*args, carrier=None)
        assert reference.max() == top
        got = conv_on(*args, carrier=carrier, out_dtype=np.int32)
        assert got.dtype == np.int32
        assert np.array_equal(got, reference)
        if carrier == "float64":
            narrow = conv_on(*args, carrier="float32", out_dtype=np.int32)
            assert narrow.max() == 2 ** 26 != top

    @settings(max_examples=30, deadline=None)
    @given(
        bound=bounds, seed=seeds, signed=st.booleans(),
        batch=st.integers(1, 3), fan_in=st.integers(1, 9),
        units=st.integers(1, 4),
    )
    def test_linear_matches_int64(
        self, bound, seed, signed, batch, fan_in, units
    ):
        rng = np.random.default_rng(seed)
        count, a, b = BOUNDS[bound]
        weight = row_codes(units, fan_in, count * b, signed, rng)
        x = operand_codes((batch, fan_in), a, signed, rng)
        bias = rng.integers(-3, 4, size=units)
        # The bias joins in the carrier: the plan's bound includes it.
        carrier = choose_carrier(bound + int(abs(bias).max()))
        reference = k.int_linear(x, k.linear_weight(weight, 0, None), bias)
        got = k.int_linear(
            x, k.linear_weight(weight, 0, carrier), bias, carrier=carrier
        )
        assert np.array_equal(got, reference)

    @settings(max_examples=30, deadline=None)
    @given(
        bound=bounds, seed=seeds, signed=st.booleans(),
        batch=st.integers(1, 3), in_caps=st.integers(1, 4),
        out_caps=st.integers(1, 3), out_dim=st.integers(1, 4),
        in_dim=st.integers(1, 5),
    )
    def test_votes_match_int64(
        self, bound, seed, signed, batch, in_caps, out_caps, out_dim, in_dim
    ):
        rng = np.random.default_rng(seed)
        count, a, b = BOUNDS[bound]
        weight = row_codes(
            in_caps * out_caps * out_dim, in_dim, count * b, signed, rng
        ).reshape(in_caps, out_caps, out_dim, in_dim)
        u = operand_codes((batch, in_caps, in_dim), a, signed, rng)
        reference = np.einsum("ijdk,bik->bijd", weight, u)
        got = k.int_votes(u, weight, carrier=choose_carrier(bound))
        assert got.shape == (batch, in_caps, out_caps, out_dim)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference)
        assert np.array_equal(k.int_votes(u, weight), reference)


def sealed_dtype(reference):
    """The narrowest storage dtype holding every code of ``reference``."""
    return k.storage_dtype(int(np.abs(reference).max()).bit_length() + 1)


class TestFusedRouting:
    @settings(max_examples=30, deadline=None)
    @given(
        bound=bounds, seed=seeds, signed=st.booleans(),
        batch=st.integers(1, 2), out_caps=st.integers(1, 3),
        out_dim=st.integers(1, 3),
    )
    def test_weighted_sum_equals_mul_plus_sum(
        self, bound, seed, signed, batch, out_caps, out_dim
    ):
        """s_j = Σ_i c_ij û_{j|i} over I = count terms."""
        rng = np.random.default_rng(seed)
        in_caps, a, b = BOUNDS[bound]
        coupling = operand_codes((batch, in_caps, out_caps), a, signed, rng)
        votes = operand_codes(
            (batch, in_caps, out_caps, out_dim), b, signed, rng
        )
        reference = (coupling[..., None] * votes).sum(axis=1)
        carrier = choose_carrier(bound)
        votes_t = k.carrier_cast(votes.transpose(0, 2, 1, 3), carrier)
        fused = k.routing_weighted_sum(votes_t, coupling, carrier)
        assert fused.dtype == np.int64
        assert np.array_equal(fused, reference)
        sealed = sealed_dtype(reference)
        narrow = k.routing_weighted_sum(
            votes_t, coupling, carrier, out_dtype=sealed
        )
        assert narrow.dtype == sealed
        assert np.array_equal(narrow, reference)
        if not signed:
            assert reference.max() == bound

    @settings(max_examples=30, deadline=None)
    @given(
        bound=bounds, seed=seeds, signed=st.booleans(),
        batch=st.integers(1, 2), in_caps=st.integers(1, 4),
        out_caps=st.integers(1, 3),
    )
    def test_agreement_equals_mul_plus_sum(
        self, bound, seed, signed, batch, in_caps, out_caps
    ):
        """a_ij = Σ_d û_{j|i,d} v_{j,d} over D = count terms."""
        rng = np.random.default_rng(seed)
        out_dim, a, b = BOUNDS[bound]
        votes = operand_codes(
            (batch, in_caps, out_caps, out_dim), a, signed, rng
        )
        activation = operand_codes((batch, out_caps, out_dim), b, signed, rng)
        reference = (votes * activation[:, None, :, :]).sum(axis=-1)
        carrier = choose_carrier(bound)
        votes_t = k.carrier_cast(votes.transpose(0, 2, 1, 3), carrier)
        fused = k.routing_agreement(votes_t, activation, carrier)
        assert fused.flags.c_contiguous
        assert np.array_equal(fused, reference)
        sealed = sealed_dtype(reference)
        narrow = k.routing_agreement(
            votes_t, activation, carrier, out_dtype=sealed
        )
        assert narrow.dtype == sealed and narrow.flags.c_contiguous
        assert np.array_equal(narrow, reference)


class TestPlanBound:
    def test_cancelling_bias_does_not_buy_float32(self):
        """Every input pixel is 1/2 and the bias cancels the conv sum
        exactly, so the final interval is a point.  Σ|w|·|x| is still
        past 2^24, and that is what every partial sum may reach."""
        model = LeNet5(seed=0)
        # Unpadded, so no window sees the zero border (which would
        # widen the interval back to the full partial sum).
        model.conv1.padding = (0, 0)
        w_fmt = FixedPointFormat(1, 16)
        b_fmt = FixedPointFormat(2, 24)
        w_codes = np.full(model.conv1.weight.shape, 5300, dtype=np.int64)
        # Σ|w| per output channel on the product grid 2^-24.
        partial = 25 * 5300 * 128
        assert partial >= 2 ** 24
        b_codes = np.full(model.conv1.bias.shape, -partial, dtype=np.int64)
        config = QuantizationConfig.uniform(
            model.quant_layers, qw=6, qa=6, qdr=8
        )
        plan = lower_model(
            model, config, "RTN",
            weight_values={
                "L1:weight": w_codes * w_fmt.eps,
                "L1:bias": b_codes * b_fmt.eps,
            },
            weight_formats={
                "L1:weight": (w_fmt, 1.0), "L1:bias": (b_fmt, 1.0),
            },
            input_range=(0.5, 0.5),
        )
        conv = plan.layer("L1").ops[0]
        assert conv.op == "conv" and conv.out_exp == -24
        assert conv.accumulator_bits <= 4  # the result itself is ~0
        assert conv.carrier == "float64"
        assert f"±{2 * partial}" in conv.note

    def test_30_bit_codes_fall_back_to_int64(self):
        model = LeNet5(seed=0)
        config = QuantizationConfig.uniform(
            model.quant_layers, qw=30, qa=30, qdr=8
        )
        quantized = QuantizedCapsNet(
            model, config, get_rounding_scheme("RTN", seed=0), seed=0
        )
        plan = lower_artifact(
            ModelArtifact.from_quantized(quantized), model=model
        )
        carriers = {
            lp.layer: op.carrier
            for lp in plan.layers for op in lp.ops
            if op.op in ("conv", "linear")
        }
        # 8-bit pixels times 30-bit weights still fit float64 ...
        assert carriers["L1"] == "float64"
        # ... 30-bit activations times 30-bit weights do not.
        assert all(carriers[layer] is None for layer in ("L2", "L3", "L4"))
        assert "conv int64" in plan.report()
        doc = plan.to_dict()
        l2 = next(d for d in doc["layers"] if d["layer"] == "L2")
        assert "carrier" not in l2["ops"][0]


# ----------------------------------------------------------------------
# Squash on the float64 carrier
# ----------------------------------------------------------------------
@st.composite
def squash_operands(draw):
    """(codes, format, axis): capsules of a ≤16-bit ⟨QI.QF⟩ format, with
    rows pinned at int_max / int_min / zero, in either walker layout
    (capsule axis last, or axis 2 of a conv-capsule tensor)."""
    integer_bits = draw(st.integers(1, 8))
    fractional_bits = draw(st.integers(0, 16 - integer_bits))
    fmt = FixedPointFormat(integer_bits, fractional_bits)
    dim = draw(st.integers(1, 255))
    rng = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):
        axis, shape = -1, (draw(st.integers(1, 3)), 2, dim)
    else:
        axis, shape = 2, (1, 2, dim, 2, draw(st.integers(1, 2)))
    codes = rng.integers(fmt.int_min, fmt.int_max + 1, size=shape)
    pinned = rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    codes[pinned] = rng.choice(
        np.array([fmt.int_min, fmt.int_max, 0]), size=int(pinned.sum())
    )
    zero = np.moveaxis(codes, axis, -1)
    zero[0, 0] = 0  # one all-zero capsule
    return codes, fmt, axis


class TestSquashCarrier:
    @settings(max_examples=150, deadline=None)
    @given(operand=squash_operands())
    def test_float64_int64_and_reference_agree(self, operand):
        codes, fmt, axis = operand
        dim = codes.shape[axis]
        qf = fmt.fractional_bits
        reference = fixed_squash(codes, fmt, axis=axis)
        on_int64 = k.squash_codes(codes, qf, axis=axis, carrier=None)
        assert on_int64.dtype == np.int64
        assert np.array_equal(on_int64, reference)
        carrier = choose_squash_carrier(
            squash_bound(dim, fmt.integer_bits, qf)
        )
        if carrier is not None:
            on_float64 = k.squash_codes(codes, qf, axis=axis, carrier=carrier)
            assert on_float64.dtype == np.int64
            assert np.array_equal(on_float64, reference)

    @settings(max_examples=150, deadline=None)
    @given(
        operand=squash_operands(),
        dtype=st.sampled_from([np.int16, np.int32, np.int64]),
    )
    def test_split_kernel_matches_reference(self, operand, dtype):
        """Every capsule-stage route × every scale-stage route the bounds
        admit equals the reference, as ``QF + 1``-bit codes, and leaves
        the operand as it was."""
        codes, fmt, axis = operand
        codes = codes.astype(dtype)
        before = codes.copy()
        dim, qf = codes.shape[axis], fmt.fractional_bits
        reference = fixed_squash(codes, fmt, axis=axis)
        carrier = choose_squash_carrier(
            squash_bound(dim, fmt.integer_bits, qf)
        )
        scale = choose_squash_scale_carrier(dim, fmt.integer_bits, qf)
        out_dtype = k.storage_dtype(qf + 1)
        for route in {carrier, None}:
            for scale_route in {scale, None}:
                got = k.squash_codes(
                    codes, qf, axis=axis, carrier=route,
                    scale_carrier=scale_route, out_dtype=out_dtype,
                )
                assert got.dtype == out_dtype
                assert np.array_equal(got, reference)
                assert codes.dtype == dtype
                assert np.array_equal(codes, before)

    def test_int64_route_aliases_but_keeps_the_operand(self):
        """On the int64 route ``carrier_cast`` hands back the caller's
        own array; the kernel still never writes into it."""
        fmt = FixedPointFormat(3, 6)
        codes = np.array(
            [[fmt.int_min, fmt.int_max, 0, 5], [0, 0, 0, 0]], np.int64
        )
        before = codes.copy()
        assert k.carrier_cast(codes, None) is codes
        for route in (None, "float64"):
            for scale in (None, "float32"):
                got = k.squash_codes(codes, 6, carrier=route,
                                     scale_carrier=scale)
                assert np.array_equal(got, fixed_squash(codes, fmt))
                assert np.array_equal(codes, before)

    @pytest.mark.parametrize("dim, integer_bits, qf, scale", [
        # 2^15 · (2^9 - 1) = 2^24 - 2^15: the widest 16-bit operand.
        (255, 7, 9, "float32"),
        (1, 6, 10, None),  # 2^15 · (2^10 - 1) > 2^24
        (1, 23, 1, "float32"),  # 2^23 · 1 < 2^24
        (1, 24, 1, None),  # 2^24 · 1 = 2^24: the bound is strict
        # norm <= isqrt(dim · 2^30): just below and at 2^24.
        (2 ** 18 - 1, 15, 1, "float32"),
        (2 ** 18, 15, 1, None),
    ])
    def test_scale_carrier_is_strict_at_2_24(
        self, dim, integer_bits, qf, scale
    ):
        assert choose_squash_scale_carrier(dim, integer_bits, qf) == scale

    def test_scale_stage_at_the_float32_bound(self):
        """⟨7.9⟩ rows of ``int_min`` drive ``ratio`` to ``2^9 - 1`` and
        ``|c|·ratio`` to ``2^24 - 2^15``; float32 stays exact there."""
        fmt = FixedPointFormat(7, 9)
        rng = np.random.default_rng(9)
        codes = rng.choice(np.array([fmt.int_min, fmt.int_max]), (6, 4))
        codes[0] = fmt.int_min
        ratio = (4 * 2 ** 30 << 9) // (2 ** 18 + 4 * 2 ** 30)
        assert ratio == 2 ** 9 - 1
        assert -fmt.int_min * ratio == 2 ** 24 - 2 ** 15
        got = k.squash_codes(
            codes, 9, carrier="float64", scale_carrier="float32",
            out_dtype=np.int16,
        )
        assert np.array_equal(got, fixed_squash(codes, fmt))

    @settings(max_examples=100, deadline=None)
    @given(
        denominator=st.integers(1, 2 ** 12),
        quotient=st.integers(1, 2 ** 12), sign=st.sampled_from([-1, 1]),
    )
    def test_float32_division_up_to_2_24_minus_1(
        self, denominator, quotient, sign
    ):
        """trunc(fl32(n/d)) = trunc(n/d) for |n| <= 2^24 - 1, with n one
        below a multiple of d (1/d below an integer quotient)."""
        numerator = min(quotient * denominator, 2 ** 24 - 1)
        for n in (numerator - 1, numerator):
            as_float = sign * np.array([n], np.float32)
            d = np.array([denominator], np.float32)
            got = k._trunc_div(as_float, d, "float32", np.int32)
            assert got.dtype == np.int32
            assert got[0] == sign * (n // denominator)
        # Past the bound float32 no longer holds every numerator.
        assert int(np.float32(2 ** 24 + 1)) != 2 ** 24 + 1

    @pytest.mark.parametrize("dim, carrier", [(128, "float64"), (129, None)])
    def test_bound_edge_at_the_widest_operand(self, dim, carrier):
        """⟨1.15⟩ is the widest operand: 128 dims sit just below 2^52,
        129 just above.  Rows of int_max / int_min push N2, the ratio
        numerator and |c|·ratio onto the bound."""
        fmt = FixedPointFormat(1, 15)
        bound = squash_bound(dim, 1, 15)
        assert bound == dim * fmt.int_max ** 2 * 2 ** 15
        assert (bound < SQUASH_CARRIER_LIMIT) == (carrier is not None)
        assert choose_squash_carrier(bound) == carrier
        rng = np.random.default_rng(dim)
        codes = rng.choice(np.array([fmt.int_min, fmt.int_max]), (4, dim))
        codes[0] = fmt.int_max
        reference = fixed_squash(codes, fmt)
        for route in ("float64", None):
            got = k.squash_codes(codes, 15, carrier=route)
            assert np.array_equal(got, reference)

    @settings(max_examples=100, deadline=None)
    @given(root=st.integers(1, 2 ** 26))
    def test_isqrt_at_square_edges(self, root):
        """⌊fl(√n)⌋ = isqrt(n) for n < 2^52, pinned at m² − 1 and m²."""
        values = [v for v in (root * root - 1, root * root) if v < 2 ** 52]
        expected = [math.isqrt(v) for v in values]
        on_float64 = k._isqrt(np.array(values, np.float64), "float64")
        assert on_float64.tolist() == expected
        on_int64 = k._isqrt(np.array(values, np.int64), None)
        assert on_int64.tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(
        denominator=st.integers(1, 2 ** 34),
        quotient=st.integers(1, 2 ** 40), sign=st.sampled_from([-1, 1]),
    )
    def test_division_just_below_an_integer(
        self, denominator, quotient, sign
    ):
        """⌊fl(n/d)⌋ = ⌊n/d⌋ for 0 <= n < 2^53: n = q·d − 1 sits 1/d
        below q, the closest a quotient gets to an integer."""
        numerator = min(quotient * denominator, 2 ** 53 - 1)
        for n in (numerator - 1, numerator):
            floor = n // denominator
            as_float = np.array([n], np.float64)
            d = np.array([denominator], np.float64)
            assert k._floor_div(as_float, d, "float64")[0] == floor
            assert k._trunc_div(sign * as_float, d, "float64")[0] == (
                sign * floor
            )
            as_int = sign * np.array([n], np.int64)
            on_int64 = k._trunc_div(as_int, np.int64(denominator), None)
            assert on_int64[0] == sign * floor


@pytest.fixture(scope="module")
def squash_zoo(trained_tiny):
    """(model, RTN artifact, images) of both capsule families."""
    deep = build_model("deep-small", "digits", seed=0)
    _, shallow_test = synth_digits(
        train_size=1, test_size=24, image_size=14, seed=3
    )
    _, deep_test = synth_digits(
        train_size=1, test_size=8, image_size=28, seed=3
    )
    return {
        "shallow": (
            trained_tiny, make_ready(trained_tiny, "RTN"),
            snap(shallow_test.images),
        ),
        "deep": (deep, make_ready(deep, "RTN"), snap(deep_test.images)),
    }


class TestSquashPlans:
    @pytest.mark.parametrize("family", ["shallow", "deep"])
    def test_zoo_squash_ops_record_float64(self, family, squash_zoo):
        _, artifact, _ = squash_zoo[family]
        squashes = [
            op for layer in artifact.lowering_plan["layers"]
            for op in layer["ops"] if op["op"] == "squash"
        ]
        assert squashes
        for op in squashes:
            approx = op["approx"]
            bound = squash_bound(
                approx["tables"]["caps_dim"], approx["integer_bits"],
                approx["operand_bits"],
            )
            assert bound < SQUASH_CARRIER_LIMIT
            assert op["carrier"] == "float64"

    @pytest.mark.parametrize("family", ["shallow", "deep"])
    def test_traced_squash_is_stored_at_qf_plus_one_bits(
        self, family, squash_zoo
    ):
        """Every squash seals at its output width, whatever its
        datapath's ``accumulator_bits``; its scale stage runs on the
        plan's ``scale_carrier``.  Each fused routing ``mul`` is traced
        in its ``sum``'s sealed dtype."""
        model, artifact, images = squash_zoo[family]
        plan = artifact.lowering_plan
        squashes = [
            op for layer in plan["layers"] for op in layer["ops"]
            if op["op"] == "squash"
        ]
        for op in squashes:
            approx = op["approx"]
            assert op["scale_carrier"] == choose_squash_scale_carrier(
                approx["tables"]["caps_dim"], approx["integer_bits"],
                approx["operand_bits"],
            ) == "float32"
        trace = []
        artifact.bind(model, backend="int").predict(
            images, batch_size=8, trace=trace
        )
        traced = [r for r in trace if r["op"] == "squash"]
        batches = -(-len(images) // 8)
        assert len(traced) == batches * len(squashes)
        for record, op in zip(traced, squashes * batches):
            assert record["layer"] == op["layer"]
            bits = op["approx"]["operand_bits"] + 1
            assert record["dtype"] == str(k.storage_dtype(bits))
            assert record["scale_carrier"] == "float32"
        assert any(
            op["accumulator_bits"] > 16 for op in squashes
        )  # the datapath is wider than the stored result
        for mul, total in zip(trace, trace[1:]):
            if mul.get("fused") == "sum":
                assert total["op"] == "sum"
                assert mul["dtype"] == total["dtype"] != "int64"

    @pytest.mark.parametrize("family", ["shallow", "deep"])
    def test_plan_without_scale_carriers_gives_identical_codes(
        self, family, squash_zoo, monkeypatch
    ):
        """A plan saved before ``scale_carrier`` runs the scale stage on
        the op's float64 carrier, with the same codes and dtypes."""
        model, artifact, images = squash_zoo[family]
        legacy = copy_plan(artifact)
        for layer in legacy.lowering_plan["layers"]:
            for op in layer["ops"]:
                op.pop("scale_carrier", None)
        captured = []
        predict = k.int_capsule_predictions

        def capture(codes):
            captured.append(np.array(codes))
            return predict(codes)

        monkeypatch.setattr(k, "int_capsule_predictions", capture)
        traces = []
        for source in (artifact, legacy):
            traces.append([])
            source.bind(model, backend="int").predict(
                images, batch_size=8, trace=traces[-1]
            )
        split, whole = traces
        assert not any("scale_carrier" in r for r in whole)
        for record in split + whole:
            record.pop("table_id", None)  # an id(), differs per bind
            record.pop("scale_carrier", None)
        assert split == whole
        half = len(captured) // 2
        assert half and len(captured) == 2 * half
        for with_field, without in zip(captured[:half], captured[half:]):
            assert np.array_equal(with_field, without)

    @pytest.mark.parametrize("family", ["shallow", "deep"])
    def test_plan_without_squash_carriers_gives_identical_codes(
        self, family, squash_zoo, monkeypatch
    ):
        model, artifact, images = squash_zoo[family]
        legacy = copy_plan(artifact)
        for layer in legacy.lowering_plan["layers"]:
            for op in layer["ops"]:
                if op["op"] == "squash":
                    del op["carrier"]
        captured = []
        predict = k.int_capsule_predictions

        def capture(codes):
            captured.append(np.array(codes))
            return predict(codes)

        monkeypatch.setattr(k, "int_capsule_predictions", capture)
        traces = []
        for source in (artifact, legacy):
            traces.append([])
            source.bind(model, backend="int").predict(
                images, batch_size=8, trace=traces[-1]
            )
        carried, stripped = traces
        assert {
            r["carrier"] for r in carried if r["op"] == "squash"
        } == {"float64"}
        assert {
            r["carrier"] for r in stripped if r["op"] == "squash"
        } == {"int64"}
        for record in carried + stripped:
            record.pop("table_id", None)  # an id(), differs per bind
            if record["op"] == "squash":
                record["carrier"] = "int64"
        assert carried == stripped
        half = len(captured) // 2
        assert half and len(captured) == 2 * half
        for with_carrier, without in zip(captured[:half], captured[half:]):
            assert np.array_equal(with_carrier, without)


# ----------------------------------------------------------------------
# The walk's add: a work width proven from the operands
# ----------------------------------------------------------------------
class TestAddWidth:
    @staticmethod
    def walk(accumulator_bits):
        op = OpPlan(
            layer="L", op="add", kind=KIND_EXACT, out_exp=-4,
            accumulator_bits=accumulator_bits,
        )
        backend = SimpleNamespace(plan=None, _ops={"L": (op,)})
        return _PlanWalk(backend, None, None, None)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    @pytest.mark.parametrize("shift", [0, 1, 17])
    def test_extreme_codes_sum_exactly(self, dtype, shift):
        """Operands at their dtype's extremes, left-aligned by ``shift``,
        sum exactly and seal at the op's width."""
        info = np.iinfo(dtype)
        # int64 operands stay small enough for the sum to fit int64.
        top = info.max if info.bits < 64 else 2 ** (61 - shift) - 1
        low = -top - 1
        a = np.array([[low, top, 0, low], [top, 1, -1, top]], dtype)
        b = np.array([[low, top, low, 0], [top, -1, top, low]], dtype)
        exact = (a.astype(object) << shift) + b.astype(object)
        bits = max(int(abs(v)).bit_length() for v in exact.ravel()) + 1
        out = self.walk(bits).add(
            "L", _Codes(a, -4 + shift), _Codes(b, -4)
        )
        assert out.codes.dtype == k.storage_dtype(bits)
        assert out.codes.tolist() == exact.tolist()
        assert out.exp == -4

    def test_two_int16_squash_outputs_add_in_int32(self, monkeypatch):
        """The sum of two int16 operands is computed in int32 (int64 is
        never touched), then sealed at the op's width."""
        seen = []
        add = np.add

        def spy(*terms, dtype=None):
            seen.append(np.dtype(dtype))
            return add(*terms, dtype=dtype)

        monkeypatch.setattr(np, "add", spy)
        a = np.full((2, 3), -2 ** 15, np.int16)
        out = self.walk(17).add("L", _Codes(a, -4), _Codes(a, -4))
        assert seen == [np.dtype(np.int32)]
        assert out.codes.dtype == np.int32
        assert (out.codes == -2 ** 16).all()
