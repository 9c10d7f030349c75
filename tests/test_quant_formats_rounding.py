"""Tests for fixed-point formats, rounding schemes and quantize kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import (
    FixedPointFormat,
    RoundToNearest,
    RoundToNearestEven,
    StochasticRounding,
    Truncation,
    dequantize_from_int,
    get_rounding_scheme,
    quantize,
    quantize_to_int,
)
from repro.quant.qcontext import scaled_quantize
from repro.quant.quantize import quantization_error, sqnr_db
from repro.quant.rounding import carrier_dtype


class TestFixedPointFormat:
    def test_paper_conventions(self):
        fmt = FixedPointFormat(1, 7)  # <1.7>
        assert fmt.wordlength == 8
        assert fmt.eps == pytest.approx(2**-7)
        assert fmt.min_value == -1.0
        assert fmt.max_value == pytest.approx(1.0 - 2**-7)
        assert fmt.num_levels == 256

    def test_integer_range(self):
        fmt = FixedPointFormat(1, 3)
        assert fmt.int_min == -8 and fmt.int_max == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedPointFormat(0, 4)
        with pytest.raises(ValueError):
            FixedPointFormat(1, -1)

    def test_clip(self):
        fmt = FixedPointFormat(1, 2)
        out = fmt.clip(np.array([-5.0, 0.1, 5.0]))
        assert np.allclose(out, [-1.0, 0.1, 0.75])

    def test_grid_and_representable(self):
        fmt = FixedPointFormat(1, 2)
        grid = fmt.grid()
        assert len(grid) == 8
        assert fmt.representable(grid).all()
        assert not fmt.representable(np.array([0.3])).any()

    def test_grid_refuses_large_formats(self):
        with pytest.raises(ValueError):
            FixedPointFormat(1, 20).grid()

    def test_from_wordlength(self):
        fmt = FixedPointFormat.from_wordlength(8)
        assert fmt.integer_bits == 1 and fmt.fractional_bits == 7

    def test_str(self):
        assert str(FixedPointFormat(1, 7)) == "<1.7>"


class TestRoundingValues:
    FMT = FixedPointFormat(1, 2)  # step 0.25

    def test_truncation_floors(self):
        out = Truncation().apply(np.array([0.30, -0.30]), self.FMT)
        assert np.allclose(out, [0.25, -0.50])

    def test_rtn_half_up(self):
        # 0.125 is exactly half-way between 0.0 and 0.25 -> rounds up.
        out = RoundToNearest().apply(np.array([0.125, -0.125]), self.FMT)
        assert np.allclose(out, [0.25, 0.0])

    def test_rtne_ties_to_even(self):
        # 0.125 -> code 0.5 -> ties to code 0; 0.375 -> code 1.5 -> code 2.
        out = RoundToNearestEven().apply(np.array([0.125, 0.375]), self.FMT)
        assert np.allclose(out, [0.0, 0.5])

    def test_saturation(self):
        for scheme in (Truncation(), RoundToNearest(), RoundToNearestEven()):
            out = scheme.apply(np.array([3.0, -3.0]), self.FMT)
            assert np.allclose(out, [self.FMT.max_value, self.FMT.min_value])

    def test_sr_bounds(self):
        scheme = StochasticRounding(seed=0)
        out = scheme.apply(np.full(1000, 0.30), self.FMT)
        assert set(np.round(out, 2)) <= {0.25, 0.50}

    def test_sr_unbiased(self):
        scheme = StochasticRounding(seed=0)
        out = scheme.apply(np.full(20000, 0.30), self.FMT)
        assert out.mean() == pytest.approx(0.30, abs=0.01)

    def test_sr_reseed_reproducible(self):
        scheme = StochasticRounding(seed=7)
        first = scheme.apply(np.full(100, 0.3), self.FMT)
        scheme.reseed()
        second = scheme.apply(np.full(100, 0.3), self.FMT)
        assert np.allclose(first, second)

    def test_trn_bias_is_negative_and_larger_than_rtn(self, rng):
        values = rng.uniform(-0.99, 0.99, 50000)
        trn_bias = quantization_error(values, self.FMT, Truncation()).mean()
        rtn_bias = quantization_error(values, self.FMT, RoundToNearest()).mean()
        assert trn_bias < 0
        assert abs(rtn_bias) < abs(trn_bias)

    def test_registry(self):
        assert isinstance(get_rounding_scheme("trn"), Truncation)
        assert isinstance(get_rounding_scheme("SR", seed=3), StochasticRounding)
        with pytest.raises(KeyError):
            get_rounding_scheme("nope")

    def test_complexity_ordering(self):
        # Paper Sec. III-B: TRN simplest, SR most complex.
        assert (
            Truncation().complexity
            < RoundToNearest().complexity
            <= RoundToNearestEven().complexity
            < StochasticRounding().complexity
        )


@st.composite
def format_and_values(draw):
    qi = draw(st.integers(min_value=1, max_value=3))
    qf = draw(st.integers(min_value=0, max_value=10))
    values = draw(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    return FixedPointFormat(qi, qf), np.array(values)


@st.composite
def carrier_edge_format_and_values(draw):
    """Formats on both sides of the float32-carrier bound (22–25 bits,
    plus short ones) with values at the carrier's edges."""
    wordlength = draw(st.sampled_from([4, 8, 12, 22, 23, 24, 25]))
    qi = draw(st.integers(min_value=1, max_value=3))
    fmt = FixedPointFormat(qi, wordlength - qi)
    codes = np.array(
        draw(
            st.lists(
                st.integers(min_value=fmt.int_min - 3, max_value=fmt.int_max + 3),
                min_size=1,
                max_size=10,
            )
        ),
        dtype=np.float64,
    )
    ties = ((codes + 0.5) * fmt.eps).astype(np.float32)
    plain = np.array(
        draw(
            st.lists(
                st.floats(
                    min_value=-4.0 * 2.0**qi,
                    max_value=4.0 * 2.0**qi,
                    allow_nan=False,
                    width=32,
                ),
                min_size=1,
                max_size=10,
            )
        ),
        dtype=np.float32,
    )
    tiny = np.finfo(np.float32).smallest_subnormal
    big = np.float32(2.0 ** (qi - 1))
    edges = np.array(
        [
            0.0,
            -0.0,
            tiny,
            -tiny,
            tiny * 3,
            -tiny * 2**20,
            # The float32 just below a half code (see RoundToNearest).
            np.nextafter(np.float32(0.5), np.float32(0.0)) * np.float32(fmt.eps),
            big,
            -big,
            big * 2,
            -big * 3,
            np.float32(3e38),
            np.float32(-3e38),
        ],
        dtype=np.float32,
    )
    values = np.concatenate(
        [
            plain,
            ties,
            np.nextafter(ties, np.float32(np.inf)),
            np.nextafter(ties, np.float32(-np.inf)),
            edges,
        ]
    )
    return fmt, values


def _bits(array):
    """Raw bit pattern (distinguishes ±0, compares NaN payloads)."""
    return array.view(np.uint32 if array.dtype == np.float32 else np.uint64)


def _assert_apply_matches_reference(fmt, values):
    """``apply`` equals the unfused float64 pipeline bit for bit."""
    scale = 2.0**fmt.fractional_bits

    def reference_apply(rounder, vals):
        codes = rounder(vals.astype(np.float64) * scale)
        codes = np.clip(codes, fmt.int_min, fmt.int_max)
        return (codes / scale).astype(vals.dtype)

    def sr_rounder(s):
        floor = np.floor(s)
        residue = s - floor
        draws = rng.random(size=s.shape)
        return floor + (draws < residue)

    rounders = {
        "TRN": lambda s: np.floor(s),
        "RTN": lambda s: np.floor(s + 0.5),
        "RTNE": lambda s: np.rint(s),
        "SR": sr_rounder,
    }
    with np.errstate(invalid="ignore", over="ignore"):
        for dtype in (np.float32, np.float64):
            vals = values.astype(dtype)
            for name, rounder in rounders.items():
                # SR: same seed => same draws => identical outputs.
                rng = np.random.default_rng(11)
                out = get_rounding_scheme(name, seed=11).apply(vals, fmt)
                expected = reference_apply(rounder, vals)
                assert out.dtype == vals.dtype
                np.testing.assert_array_equal(np.isnan(out), np.isnan(expected))
                finite = ~np.isnan(expected)
                np.testing.assert_array_equal(
                    _bits(out[finite]), _bits(expected[finite])
                )


class TestRoundingProperties:
    @given(format_and_values())
    @settings(max_examples=100, deadline=None)
    def test_all_outputs_representable(self, fmt_values):
        fmt, values = fmt_values
        for name in ("TRN", "RTN", "RTNE"):
            out = quantize(values, fmt, get_rounding_scheme(name))
            assert fmt.representable(out).all()

    @given(format_and_values())
    @settings(max_examples=100, deadline=None)
    def test_error_bounded_by_eps_in_range(self, fmt_values):
        fmt, values = fmt_values
        in_range = values[(values >= fmt.min_value) & (values <= fmt.max_value)]
        if len(in_range) == 0:
            return
        for name in ("TRN", "RTN", "RTNE"):
            err = np.abs(quantize(in_range, fmt, get_rounding_scheme(name)) - in_range)
            assert (err <= fmt.eps + 1e-12).all()

    @given(format_and_values())
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, fmt_values):
        fmt, values = fmt_values
        for name in ("TRN", "RTN", "RTNE"):
            scheme = get_rounding_scheme(name)
            once = quantize(values, fmt, scheme)
            twice = quantize(once, fmt, scheme)
            assert np.allclose(once, twice)

    @given(format_and_values())
    @settings(max_examples=50, deadline=None)
    def test_int_roundtrip(self, fmt_values):
        fmt, values = fmt_values
        codes = quantize_to_int(values, fmt)
        assert (codes >= fmt.int_min).all() and (codes <= fmt.int_max).all()
        floats = dequantize_from_int(codes, fmt)
        assert np.allclose(floats, quantize(values, fmt), atol=1e-12)

    @given(st.one_of(format_and_values(), carrier_edge_format_and_values()))
    @settings(max_examples=150, deadline=None)
    def test_fused_apply_matches_unfused_reference(self, fmt_values):
        """The fused apply pipeline — in-place scratch, float32 carrier
        for float32 inputs of ≤ 23-bit formats — is bit-identical to the
        original float64 temporary-per-step formulation, for both float
        dtypes and every scheme (SR with matched seeds).  Formats of
        22–25 bits straddle the carrier bound; values include half-code
        ties, saturating magnitudes, subnormals and signed zeros."""
        _assert_apply_matches_reference(*fmt_values)

    @given(carrier_edge_format_and_values())
    @settings(max_examples=50, deadline=None)
    def test_fused_apply_matches_reference_on_nonfinite(self, fmt_values):
        fmt, values = fmt_values
        specials = np.array([np.inf, -np.inf, np.nan, -np.nan])
        _assert_apply_matches_reference(fmt, np.concatenate([values, specials]))

    def test_rtn_float32_carrier_below_half_tie(self):
        """float32 ``y + 0.5`` rounds ``0.5 − 2^-25`` up to 1.0; RTN must
        still round that code coordinate to 0, like float64 arithmetic."""
        below_half = np.nextafter(np.float32(0.5), np.float32(0.0))
        for qf in (0, 7, 22):
            fmt = FixedPointFormat(1, qf)
            x = np.array([below_half, -below_half], dtype=np.float32) * np.float32(
                fmt.eps
            )
            assert carrier_dtype(x.dtype, fmt) is np.float32
            out = RoundToNearest().apply(x, fmt)
            np.testing.assert_array_equal(out, [0.0, 0.0])
            assert out.dtype == np.float32

    def test_rtn_float32_carrier_sweep_matches_float64(self):
        """Every float32 code coordinate in [1/4, 1/2) and (−1, −1/4] —
        where float32 ``y + 0.5`` can round to within an ulp of an
        integer — rounds as in float64 arithmetic."""
        fmt = FixedPointFormat(23, 0)  # code coordinate == value
        for lo, hi, sign in ((0.25, 0.5, 1), (0.25, 1.0, -1)):
            first = int(np.float32(lo).view(np.int32))
            last = int(np.float32(hi).view(np.int32))
            for start in range(first, last, 1 << 22):
                bits = np.arange(start, min(start + (1 << 22), last), dtype=np.int32)
                values = np.float32(sign) * bits.view(np.float32)
                out = RoundToNearest().apply(values, fmt)
                expected = np.floor(values.astype(np.float64) + 0.5)
                np.testing.assert_array_equal(
                    _bits(out), _bits(expected.astype(np.float32))
                )

    def test_sr_float32_carrier_residue_is_exact(self):
        """SR compares its draws with the exact residue: for ``y = −2^-30``
        float32 ``y − floor(y)`` would round ``1 − 2^-30`` up to 1.0, and a
        draw between the two would then round up instead of down."""

        class FixedDraws:
            def random(self, size):
                return np.full(size, 1.0 - 2.0**-31)

        fmt = FixedPointFormat(1, 7)
        x = np.array([-(2.0**-30)], dtype=np.float32) * np.float32(fmt.eps)
        assert carrier_dtype(x.dtype, fmt) is np.float32
        out = StochasticRounding(rng=FixedDraws()).apply(x, fmt)
        np.testing.assert_array_equal(out, [-fmt.eps])

    @given(
        format_and_values(),
        st.integers(min_value=-6, max_value=8),
        st.sampled_from(["TRN", "RTN", "RTNE", "SR"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_scaled_quantize_matches_reference(self, fmt_values, exponent, name):
        """``scaled_quantize`` rescales in place but gives the bits of
        ``scale * quantize(data / scale)`` for power-of-two scales."""
        fmt, values = fmt_values
        scale = 2.0**exponent
        for dtype in (np.float32, np.float64):
            data = values.astype(dtype)
            out = scaled_quantize(data, fmt, get_rounding_scheme(name, seed=3), scale)
            expected = scale * quantize(
                data / scale, fmt, get_rounding_scheme(name, seed=3)
            )
            assert out.dtype == expected.dtype == dtype
            np.testing.assert_array_equal(_bits(out), _bits(expected))

    def test_apply_does_not_mutate_input(self):
        fmt = FixedPointFormat(1, 3)
        values = np.array([0.11, -0.52, 0.77], dtype=np.float64)
        backup = values.copy()
        for name in ("TRN", "RTN", "RTNE", "SR"):
            get_rounding_scheme(name).apply(values, fmt)
            np.testing.assert_array_equal(values, backup)


class TestQuantizeKernels:
    def test_dequantize_range_check(self):
        fmt = FixedPointFormat(1, 2)
        with pytest.raises(ValueError):
            dequantize_from_int(np.array([100]), fmt)

    def test_sqnr_increases_with_bits(self, rng):
        values = rng.standard_normal(5000) * 0.3
        sqnrs = [sqnr_db(values, FixedPointFormat(1, q)) for q in (2, 4, 6, 8)]
        assert sqnrs == sorted(sqnrs)
        # ~6 dB per bit is the textbook slope.
        assert 8 < sqnrs[1] - sqnrs[0] < 16

    def test_sqnr_infinite_for_exact(self):
        fmt = FixedPointFormat(1, 4)
        assert sqnr_db(fmt.grid(), fmt) == float("inf")
