"""The int backend's hooks, routing softmax and votes at their widths.

The int kernels keep codes at their certified storage widths instead of
widening every routed array to int64:

* the quantization hook (:func:`~repro.backend.int_kernels.hook_rescale`)
  shifts, rounds and clips TRN/RTN/RTNE codes in their own dtype.  On
  int16, int32 and int64 codes, including each dtype's extremes, with
  shifts from -8 to 70, it equals the int64 schedule
  ``clip(shift_round(int64))`` and, for right shifts, the exact rational
  rounding;
* the routing softmax runs on the dtype its exponential ROM was cast to
  at bind (int32 where the ROM format and ``J`` prove it) and matches
  :func:`repro.hw.fixed_ref.fixed_softmax` bit for bit, on both sides of
  the short-axis fold threshold and at the first LUT format where int32
  would overflow;
* capsule votes convert straight into their sealed dtype and equal the
  int64 route;
* the batch-norm affine multiplies int16, int32 and int64 codes,
  extremes included, straight into int64 and equals the widened
  ``codes.astype(int64) * m + off``;
* under the fixed-point sanitizer every executed hook op reports one
  rounding call of its layer, with the hook's element count, and the
  labels do not change.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_backend import SCHEMES, make_ready, snap

from repro.analysis.interval import min_safe_bits
from repro.analysis.lowering import ApproxPlan
from repro.api.session import ServingModel
from repro.autograd.ops_nn import _MIN_FOLD_ROWS
from repro.backend import int_kernels as k
from repro.hw.fixed_ref import fixed_softmax
from repro.quant.fixed_point import FixedPointFormat

DTYPES = (np.int16, np.int32, np.int64)


def exact_round(code: int, shift: int, scheme: str) -> int:
    """``round(code / 2^shift)`` on unbounded integers (right shifts)."""
    value = Fraction(code, 2 ** shift)
    floor = value.numerator // value.denominator
    rest = value - floor
    if scheme == "TRN":
        return floor
    if scheme == "RTN":
        return floor + (rest >= Fraction(1, 2))
    if rest == Fraction(1, 2):
        return floor + (floor % 2)
    return floor + (rest > Fraction(1, 2))


# ----------------------------------------------------------------------
# Hooks
# ----------------------------------------------------------------------
class TestHookWidths:
    @settings(max_examples=300, deadline=None)
    @given(
        dtype=st.sampled_from(DTYPES),
        shift=st.integers(-8, 70),
        scheme=st.sampled_from(SCHEMES),
        integer_bits=st.integers(1, 8),
        fractional_bits=st.integers(1, 40),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_hook_matches_the_int64_schedule(
        self, dtype, shift, scheme, integer_bits, fractional_bits, seed
    ):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(seed)
        codes = np.concatenate([
            [info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max],
            rng.integers(info.min, info.max, size=40, endpoint=True),
        ]).astype(dtype)
        before = codes.copy()
        fmt = FixedPointFormat(integer_bits, fractional_bits)
        draw = rng.random(size=codes.shape) if scheme == "SR" else None

        got = k.hook_rescale(codes, shift, scheme, fmt, draw=draw)
        wide = k.shift_round(codes.astype(np.int64), shift, scheme, draw=draw)
        want = np.clip(wide, fmt.int_min, fmt.int_max)

        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(codes, before)  # input untouched
        if scheme != "SR" and shift >= 0:
            assert got.dtype == dtype  # no widening on the right shifts
            exact = [
                min(max(exact_round(int(c), shift, scheme), fmt.int_min),
                    fmt.int_max)
                for c in codes
            ]
            assert got.tolist() == exact

    def test_unknown_scheme_is_refused(self):
        with pytest.raises(ValueError, match="unknown rounding scheme"):
            k.shift_round(np.zeros(3, np.int16), 0, "RTZ")


# ----------------------------------------------------------------------
# Routing softmax
# ----------------------------------------------------------------------
def softmax_approx(integer_bits, operand_bits, logit_bits, count):
    return ApproxPlan(
        method="lut-softmax", domain_lo=-1.0, domain_hi=1.0,
        error_bound=1.0, operand_exp=-operand_bits,
        operand_bits=operand_bits, integer_bits=integer_bits,
        tables={"num_inputs": max(count, 2), "logit_bits": logit_bits},
    )


def reference_softmax(codes, approx, integer_bits):
    """Clip into the logit format, max-subtract, then the reference
    datapath :func:`fixed_softmax` on the LUT operand format."""
    fmt_logits = FixedPointFormat(
        integer_bits, approx.tables["logit_bits"]
    )
    fmt_sub = FixedPointFormat(approx.integer_bits, approx.operand_bits)
    codes = np.clip(codes.astype(np.int64), fmt_logits.int_min,
                    fmt_logits.int_max)
    return fixed_softmax(codes - codes.max(axis=-1, keepdims=True), fmt_sub)


class TestSoftmaxWidths:
    @settings(max_examples=60, deadline=None)
    @given(
        count=st.integers(1, 32),
        rows=st.sampled_from(
            (1, 7, _MIN_FOLD_ROWS - 1, _MIN_FOLD_ROWS, _MIN_FOLD_ROWS + 45)
        ),
        sub_integer_bits=st.integers(1, 6),
        data=st.data(),
        integer_bits=st.integers(1, 6),
        logit_bits=st.integers(1, 12),
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_int_softmax_matches_fixed_softmax(
        self, count, rows, sub_integer_bits, data, integer_bits,
        logit_bits, dtype, seed,
    ):
        operand_bits = data.draw(st.integers(1, 16 - sub_integer_bits))
        approx = softmax_approx(
            sub_integer_bits, operand_bits, logit_bits, count
        )
        fmt_logits = FixedPointFormat(integer_bits, logit_bits)
        rng = np.random.default_rng(seed)
        # Codes past the logit format too: the kernel clips them first.
        span = min(2 * fmt_logits.int_max, np.iinfo(dtype).max)
        codes = rng.integers(
            -span, span, size=(rows, count), endpoint=True
        ).astype(dtype)
        table = k.softmax_table(approx, integer_bits)
        got = k.int_softmax(codes, approx, integer_bits, table)
        want = reference_softmax(codes, approx, integer_bits)
        assert got.dtype == table.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("sub_integer_bits, operand_bits, dtype", [
        (2, 14, np.int32),  # widest 16-bit format int32 still proves
        (1, 15, np.int64),  # first one where T·2^QF reaches 2^31
    ])
    def test_work_dtype_at_the_int32_limit(
        self, sub_integer_bits, operand_bits, dtype
    ):
        approx = softmax_approx(sub_integer_bits, operand_bits, 8, 10)
        table = k.softmax_table(approx, 3)
        assert table.dtype == dtype
        rom_max = 2 ** (sub_integer_bits + 2 + operand_bits - 1) - 1
        fits = rom_max * 2 ** operand_bits < 2 ** 31
        assert fits == (dtype == np.int32)
        rng = np.random.default_rng(0)
        codes = rng.integers(-255, 256, size=(300, 10))
        codes[:, 0] = 255  # a max at the logit format's edge
        np.testing.assert_array_equal(
            k.int_softmax(codes, approx, 3, table),
            reference_softmax(codes, approx, 3),
        )

    def test_wide_axis_needs_a_wider_plan(self):
        approx = softmax_approx(2, 8, 8, 4)
        table = k.softmax_table(approx, 3)
        with pytest.raises(ValueError, match="num_inputs"):
            k.int_softmax(np.zeros((2, 5), np.int16), approx, 3, table)


# ----------------------------------------------------------------------
# Votes
# ----------------------------------------------------------------------
class TestVoteWidths:
    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.integers(1, 5),
        in_caps=st.integers(1, 6),
        out_caps=st.integers(1, 5),
        out_dim=st.integers(1, 4),
        in_dim=st.integers(1, 4),
        code_bits=st.integers(2, 9),
        prod_shift=st.integers(0, 5),
        carrier=st.sampled_from((None, "float32", "float64")),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_sealed_votes_equal_the_int64_route(
        self, batch, in_caps, out_caps, out_dim, in_dim, code_bits,
        prod_shift, carrier, seed,
    ):
        rng = np.random.default_rng(seed)
        top = 2 ** (code_bits - 1)
        u = rng.integers(-top, top, size=(batch, in_caps, in_dim))
        w = rng.integers(-top, top, size=(in_caps, out_caps, out_dim, in_dim))
        scaled = k.scaled_weight(w, prod_shift, carrier)
        wide = k.int_votes(u, scaled, carrier)
        np.testing.assert_array_equal(
            wide, np.einsum("ijod,bid->bijo", w, u) << prod_shift
        )
        bits = min_safe_bits(float(wide.min()), float(wide.max()))
        sealed = k.storage_dtype(bits)
        got = k.int_votes(u, scaled, carrier, out_dtype=sealed)
        assert wide.dtype == np.int64 and got.dtype == sealed
        np.testing.assert_array_equal(got, wide)

    def test_contractions_read_the_transposed_view(self):
        rng = np.random.default_rng(3)
        votes = rng.integers(-64, 64, size=(4, 6, 3, 5))
        coupling = rng.integers(0, 128, size=(4, 6, 3))
        activation = rng.integers(-64, 64, size=(4, 3, 5))
        for carrier in (None, "float32", "float64"):
            view = k.carrier_cast(votes, carrier).transpose(0, 2, 1, 3)
            copy = np.ascontiguousarray(view)
            assert not view.flags.c_contiguous
            for contract, operand in (
                (k.routing_weighted_sum, coupling),
                (k.routing_agreement, activation),
            ):
                np.testing.assert_array_equal(
                    contract(view, operand, carrier),
                    contract(copy, operand, carrier),
                )


class TestBatchnormWidths:
    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from(DTYPES),
        channels=st.integers(1, 5),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_affine_equals_the_widened_expression(self, dtype, channels, seed):
        info = np.iinfo(dtype)
        rng = np.random.default_rng(seed)
        edges = np.array(
            [info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max]
        )
        codes = np.concatenate([
            np.resize(edges, (2, channels, 1, 7)),
            rng.integers(info.min, info.max, size=(2, channels, 1, 7),
                         endpoint=True),
        ], axis=2).astype(dtype)
        before = codes.copy()
        multipliers = rng.integers(-2 ** 20, 2 ** 20, size=channels)
        multipliers[0] = 1
        offsets = rng.integers(-2 ** 40, 2 ** 40, size=channels)

        got = k.int_batchnorm(codes, multipliers, offsets)
        want = (
            codes.astype(np.int64) * multipliers[None, :, None, None]
            + offsets[None, :, None, None]
        )
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(codes, before)  # input untouched


# ----------------------------------------------------------------------
# Sanitizer on int tenants
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shallow_images(tiny_data):
    _, test = tiny_data
    return snap(test.images[:40])


class TestIntSanitizer:
    @pytest.mark.parametrize("scheme", ["RTN", "SR"])
    def test_every_hook_op_reports_one_call(
        self, trained_tiny, shallow_images, scheme
    ):
        artifact = make_ready(trained_tiny, scheme)
        plain = ServingModel(
            artifact.bind(trained_tiny, backend="int"), batch_size=16
        )
        sanitized = ServingModel(
            artifact.bind(trained_tiny, backend="int"), batch_size=16,
            sanitize=True,
        )
        np.testing.assert_array_equal(
            sanitized.predict(shallow_images), plain.predict(shallow_images)
        )

        trace = []
        artifact.bind(trained_tiny, backend="int").predict(
            shallow_images, batch_size=16, trace=trace
        )
        expected = {}
        for record in trace:
            if record["op"] == "act" or record["op"].startswith("routing:"):
                row = expected.setdefault(
                    record["layer"], {"calls": 0, "elements": 0}
                )
                row["calls"] += 1
                row["elements"] += int(np.prod(record["shape"]))
        assert expected  # the plan has hook ops
        layers = sanitized.sanitizer_report()["layers"]
        assert {
            layer: {"calls": row["calls"], "elements": row["elements"]}
            for layer, row in layers.items() if row["calls"]
        } == expected
