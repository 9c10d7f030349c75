"""Tests that the integer hardware reference matches float quantization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor
from repro.autograd.ops_nn import softmax as float_softmax
from repro.capsnet import squash as float_squash
from repro.hw import fixed_ref
from repro.quant import (
    FixedPointFormat,
    Truncation,
    dequantize_from_int,
    quantize,
    quantize_to_int,
)


class TestSaturateAddMul:
    FMT = FixedPointFormat(1, 6)

    def test_add_matches_float(self, rng):
        a = rng.uniform(-0.4, 0.4, 100)
        b = rng.uniform(-0.4, 0.4, 100)
        ca, cb = quantize_to_int(a, self.FMT), quantize_to_int(b, self.FMT)
        int_sum = dequantize_from_int(fixed_ref.fixed_add(ca, cb, self.FMT), self.FMT)
        float_sum = dequantize_from_int(ca, self.FMT) + dequantize_from_int(cb, self.FMT)
        assert np.allclose(int_sum, float_sum)

    def test_add_saturates(self):
        top = np.array([self.FMT.int_max])
        out = fixed_ref.fixed_add(top, top, self.FMT)
        assert out[0] == self.FMT.int_max

    def test_mul_matches_float_truncation(self, rng):
        """Integer multiply + arithmetic shift == float multiply + TRN."""
        a = rng.uniform(-0.9, 0.9, 200)
        b = rng.uniform(-0.9, 0.9, 200)
        ca, cb = quantize_to_int(a, self.FMT), quantize_to_int(b, self.FMT)
        int_prod = dequantize_from_int(
            fixed_ref.fixed_mul(ca, cb, self.FMT), self.FMT
        )
        exact = dequantize_from_int(ca, self.FMT) * dequantize_from_int(cb, self.FMT)
        float_prod = quantize(exact, self.FMT, Truncation())
        assert np.allclose(int_prod, float_prod)

    def test_mul_output_format_validation(self):
        wide = FixedPointFormat(1, 20)
        with pytest.raises(ValueError):
            fixed_ref.fixed_mul(np.array([1]), np.array([1]), self.FMT, wide)


class TestIntSqrt:
    def test_small_values(self):
        values = np.arange(0, 200)
        roots = fixed_ref.int_sqrt(values)
        assert (roots * roots <= values).all()
        assert ((roots + 1) * (roots + 1) > values).all()

    @given(st.integers(min_value=0, max_value=2**52))
    @settings(max_examples=200, deadline=None)
    def test_property_floor_sqrt(self, value):
        root = int(fixed_ref.int_sqrt(np.array([value]))[0])
        assert root * root <= value < (root + 1) * (root + 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fixed_ref.int_sqrt(np.array([-1]))

    def test_top_of_int64_does_not_wrap(self):
        """(root + 1)² overflows int64 once root reaches 3037000499;
        the upward correction must not take that wrapped square."""
        top = 3037000499
        edges = [2**63 - 1, top**2, top**2 + 1, top**2 - 1, 2**62]
        edges += [m * m - 1 for m in (2, 3, 2**16, 2**26, 2**31, top)]
        edges += [m * m for m in (2**26, 2**31, top)]
        roots = fixed_ref.int_sqrt(np.array(edges, dtype=np.int64))
        assert [int(r) for r in roots] == [math.isqrt(v) for v in edges]


class TestFixedSquash:
    @pytest.mark.parametrize("qf", [4, 6, 8, 10])
    def test_close_to_float_squash(self, rng, qf):
        fmt = FixedPointFormat(1, qf)
        s = rng.uniform(-0.9, 0.9, (20, 8))
        codes = quantize_to_int(s, fmt)
        int_out = dequantize_from_int(fixed_ref.fixed_squash(codes, fmt), fmt)
        float_out = float_squash(Tensor(dequantize_from_int(codes, fmt))).data
        # Integer divisions truncate; allow a few quantization steps.
        assert np.abs(int_out - float_out).max() <= 4 * fmt.eps

    def test_zero_capsule_maps_to_zero(self):
        fmt = FixedPointFormat(1, 8)
        out = fixed_ref.fixed_squash(np.zeros((2, 4), dtype=np.int64), fmt)
        assert (out == 0).all()

    def test_output_in_unit_ball(self, rng):
        fmt = FixedPointFormat(1, 8)
        codes = quantize_to_int(rng.uniform(-1, 1, (50, 8)), fmt)
        out = dequantize_from_int(fixed_ref.fixed_squash(codes, fmt), fmt)
        lengths = np.linalg.norm(out, axis=-1)
        assert (lengths <= 1.0 + 4 * fmt.eps).all()

    def test_axis_argument(self, rng):
        fmt = FixedPointFormat(1, 8)
        codes = quantize_to_int(rng.uniform(-0.5, 0.5, (3, 4, 5)), fmt)
        out = fixed_ref.fixed_squash(codes, fmt, axis=1)
        assert out.shape == codes.shape


class TestFixedSoftmax:
    @pytest.mark.parametrize("qf", [6, 8, 10])
    def test_close_to_float_softmax(self, rng, qf):
        fmt = FixedPointFormat(1, qf)
        b = rng.uniform(-0.9, 0.9, (10, 10))
        codes = quantize_to_int(b, fmt)
        int_out = dequantize_from_int(fixed_ref.fixed_softmax(codes, fmt), fmt)
        float_out = float_softmax(
            Tensor(dequantize_from_int(codes, fmt)), axis=-1
        ).data
        assert np.abs(int_out - float_out).max() <= 4 * fmt.eps

    def test_outputs_nearly_normalized(self, rng):
        fmt = FixedPointFormat(1, 8)
        codes = quantize_to_int(rng.uniform(-1, 1, (5, 10)), fmt)
        out = dequantize_from_int(fixed_ref.fixed_softmax(codes, fmt), fmt)
        # Truncating division loses at most eps per element.
        assert np.abs(out.sum(axis=-1) - 1.0).max() <= 10 * fmt.eps

    def test_lut_size_guard(self):
        with pytest.raises(ValueError):
            fixed_ref.exp_lut(FixedPointFormat(1, 20))

    def test_lut_covers_all_codes(self):
        fmt = FixedPointFormat(1, 4)
        table, out_fmt = fixed_ref.exp_lut(fmt)
        assert len(table) == fmt.num_levels
        assert out_fmt.integer_bits == 3
        # exp is positive and increasing.
        assert (table > 0).all()
        assert (np.diff(table) >= 0).all()
