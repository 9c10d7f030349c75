"""Tests for convolution, pooling, activations, softmax and norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import (
    Tensor,
    conv2d,
    gradcheck,
    log_softmax,
    relu,
    sigmoid,
    softmax,
    vector_norm,
)
from repro.autograd.ops_nn import (
    _axis_max,
    avg_pool2d,
    conv_gemm,
    conv_geometry,
    conv_output_shape,
    conv_patches,
    conv_scatter,
    conv_weight_matrix,
    max_pool2d,
)


def naive_conv2d(x, w, b, stride=1, padding=0):
    """Straightforward quadruple-loop reference convolution."""
    batch, _, height, width = x.shape
    filters, channels, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - kh) // stride + 1
    out_w = (x.shape[3] - kw) // stride + 1
    out = np.zeros((batch, filters, out_h, out_w))
    for n in range(batch):
        for f in range(filters):
            for i in range(out_h):
                for j in range(out_w):
                    patch = x[n, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[n, f, i, j] = (patch * w[f]).sum()
            if b is not None:
                out[n, f] += b[f]
    return out


class TestConvOutputShape:
    def test_basic(self):
        assert conv_output_shape(28, 28, 9) == (20, 20)

    def test_stride_padding(self):
        assert conv_output_shape(20, 20, 9, 2) == (6, 6)
        assert conv_output_shape(28, 28, 3, 2, 1) == (14, 14)

    def test_empty_output_raises(self):
        with pytest.raises(ValueError):
            conv_output_shape(4, 4, 9)


class TestIm2col:
    def test_adjointness(self, rng):
        """conv_scatter is the exact adjoint of conv_patches:
        <Px, y> == <x, P'y>, also for C = 1 and a non-square kernel."""
        for shape, kernel, stride, padding in (
            ((2, 3, 8, 8), (3, 3), 2, 1),
            ((2, 1, 7, 6), (3, 2), 1, 0),
            ((2, 3, 7, 6), (3, 2), 2, 1),
            ((2, 1, 7, 6), (3, 2), 1, 2),
        ):
            x = rng.standard_normal(shape)
            geom = conv_geometry(
                shape, kernel, (stride, stride), (padding, padding)
            )
            y = rng.standard_normal(conv_patches(x, geom).shape)
            lhs = (conv_patches(x, geom) * y).sum()
            back = conv_scatter(y, geom)
            assert back.shape == shape
            assert lhs == pytest.approx((x * back).sum(), rel=1e-10)

    def test_values_identity_kernel(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        rows = conv_patches(x, conv_geometry(x.shape, (1, 1), (1, 1), (0, 0)))
        assert np.allclose(rows.reshape(4, 4), x[0, 0])


@st.composite
def conv_cases(draw):
    """(x, w, b, stride, padding): C in 1..4, kernels 1/3/9, stride 1-2,
    padding 0-1; ``x`` is a non-contiguous view half the time."""
    channels = draw(st.integers(1, 4))
    kernel = draw(st.sampled_from([1, 3, 9]))
    stride = draw(st.integers(1, 2))
    padding = draw(st.integers(0, 1))
    height = max(1, kernel - 2 * padding) + draw(st.integers(0, 4))
    width = max(1, kernel - 2 * padding) + draw(st.integers(0, 4))
    batch = draw(st.integers(1, 3))
    filters = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        x = rng.standard_normal((batch, height, width, channels))
        x = x.transpose(0, 3, 1, 2)  # NCHW view of NHWC memory
    else:
        x = rng.standard_normal((batch, channels, height, width))
    w = rng.standard_normal((filters, channels, kernel, kernel))
    b = rng.standard_normal(filters)
    return x, w, b, stride, padding


class TestConvLowering:
    """The channels-last lowering: patch rows, one GEMM, NCHW output."""

    @settings(max_examples=60, deadline=None)
    @given(case=conv_cases())
    def test_matches_naive(self, case):
        x, w, b, stride, padding = case
        x32, w32, b32 = (a.astype(np.float32) for a in (x, w, b))
        out = conv2d(Tensor(x32), Tensor(w32), Tensor(b32), stride, padding)
        assert out.data.flags.c_contiguous and out.data.dtype == np.float32
        ref = naive_conv2d(x32, w32, b32, stride, padding)
        assert out.shape == ref.shape
        assert np.allclose(out.data, ref, atol=1e-4)

    @settings(max_examples=60, deadline=None)
    @given(
        case=conv_cases(),
        dtype=st.sampled_from([np.int16, np.int32, np.int64]),
    )
    def test_integer_codes_are_exact(self, case, dtype):
        """Integer codes of any width lower exactly."""
        x, w, _, stride, padding = case
        x = np.rint(x * 20).astype(dtype)
        w = np.rint(w * 20).astype(np.int64)
        geom = conv_geometry(
            x.shape, w.shape[2:], (stride, stride), (padding, padding)
        )
        patches = conv_patches(x, geom, np.dtype(np.int64))
        out = conv_gemm(patches, conv_weight_matrix(w), geom)
        ref = naive_conv2d(x.astype(np.int64), w, None, stride, padding)
        assert np.array_equal(out.reshape(ref.shape), ref.astype(np.int64))


class TestConv2d:
    @pytest.mark.parametrize(
        "stride,padding", [(1, 0), (2, 0), (1, 1), (2, 2)]
    )
    def test_matches_naive(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 9, 9)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding)
        ref = naive_conv2d(x, w, b, stride, padding)
        assert np.allclose(out.data, ref, atol=1e-4)

    def test_no_bias(self, rng):
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        out = conv2d(Tensor(x), Tensor(w))
        assert np.allclose(out.data, naive_conv2d(x, w, None), atol=1e-4)

    def test_gradcheck(self, rng):
        # (C, kernel, stride, padding); C = 1 is the first convs' shape.
        for channels, kernel, stride, padding in (
            (2, 3, 2, 1), (1, 3, 1, 1), (1, 5, 2, 0), (6, 3, 2, 1), (2, 9, 1, 1),
        ):
            size = kernel + 3
            x = rng.standard_normal((2, channels, size, size))
            w = rng.standard_normal((3, channels, kernel, kernel))
            b = rng.standard_normal(3)
            assert gradcheck(
                lambda a, ww, bb: conv2d(a, ww, bb, stride, padding),
                [x, w, b],
            )


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradcheck(self, rng):
        x = rng.standard_normal((2, 2, 4, 4))
        assert gradcheck(lambda a: max_pool2d(a, 2), [x])

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = avg_pool2d(x, 2)
        assert np.allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradcheck(self, rng):
        x = rng.standard_normal((2, 2, 4, 4))
        assert gradcheck(lambda a: avg_pool2d(a, 2), [x])

    def test_max_pool_padding_values(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4))
        out = max_pool2d(x, 2, stride=2, padding=1)
        # Padded border holds -inf, so corners are the lone real values.
        assert out.shape == (1, 1, 3, 3)
        assert np.allclose(
            out.data[0, 0], [[0, 2, 3], [8, 10, 11], [12, 14, 15]]
        )

    def test_avg_pool_padding_counts_zeros(self):
        x = Tensor(np.full((1, 1, 2, 2), 4.0, dtype=np.float32))
        out = avg_pool2d(x, 2, stride=2, padding=1)
        # Every 2x2 window covers one real cell and three zero pads.
        assert out.shape == (1, 1, 2, 2)
        assert np.allclose(out.data[0, 0], 1.0)

    @pytest.mark.parametrize("pool", [max_pool2d, avg_pool2d])
    def test_pool_padding_gradcheck(self, pool, rng):
        x = rng.standard_normal((2, 2, 4, 4))
        assert gradcheck(lambda a: pool(a, 3, 2, 1), [x])

    @pytest.mark.parametrize("pool", [max_pool2d, avg_pool2d])
    def test_pool_empty_output_raises_like_conv(self, pool, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)).astype(np.float32))
        with pytest.raises(ValueError, match="output would be empty"):
            pool(x, kernel=5)
        with pytest.raises(ValueError, match="output would be empty"):
            pool(x, kernel=(2, 5), stride=1)

    @pytest.mark.parametrize("pool", [max_pool2d, avg_pool2d])
    def test_pool_rejects_padding_ge_kernel(self, pool, rng):
        """Padding >= kernel would create windows made entirely of
        padding (a max pool would emit -inf); rejected up front."""
        x = Tensor(rng.standard_normal((1, 1, 4, 4)).astype(np.float32))
        with pytest.raises(ValueError, match="padding"):
            pool(x, kernel=2, stride=2, padding=2)

    @pytest.mark.parametrize("pool", [max_pool2d, avg_pool2d])
    def test_pool_rejects_bad_hyperparameters(self, pool, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)).astype(np.float32))
        with pytest.raises(ValueError, match="kernel"):
            pool(x, kernel="2")
        with pytest.raises(ValueError, match="stride"):
            pool(x, kernel=2, stride=(1, 2, 3))
        with pytest.raises(ValueError, match="padding"):
            pool(x, kernel=2, padding=1.5)


class TestActivations:
    def test_relu_values_and_grad(self):
        a = Tensor(np.array([-1.0, 0.5]), requires_grad=True)
        out = relu(a)
        assert np.allclose(out.data, [0, 0.5])
        out.sum().backward()
        assert np.allclose(a.grad, [0, 1])

    def test_sigmoid_range(self, rng):
        out = sigmoid(Tensor(rng.standard_normal(100)))
        assert (out.data > 0).all() and (out.data < 1).all()

    def test_sigmoid_gradcheck(self, rng):
        assert gradcheck(sigmoid, [rng.standard_normal(10)])


class TestSoftmax:
    def test_normalizes(self, rng):
        out = softmax(Tensor(rng.standard_normal((4, 7))), axis=1)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)

    def test_stable_with_large_inputs(self):
        out = softmax(Tensor(np.array([1000.0, 1000.0])), axis=0)
        assert np.allclose(out.data, [0.5, 0.5])

    def test_gradcheck(self, rng):
        assert gradcheck(lambda a: softmax(a, axis=-1), [rng.standard_normal((3, 5))])

    @pytest.mark.parametrize(
        "shape,axis", [((64, 8, 10), 2), ((64, 8, 10), -1), ((7, 40, 9), 0),
                       ((300, 1), 1), ((6, 5, 10), 2), ((3, 40), 1), ((9,), 0)]
    )
    def test_short_axis_max_identical_to_reduction(self, shape, axis, rng):
        """The sliced max fold gives the exact softmax of the reduction
        form, for float32 and float64, with ±inf and NaN present."""
        for dtype in (np.float32, np.float64):
            x = rng.standard_normal(shape).astype(dtype)
            x.flat[::7] = np.inf
            x.flat[3::11] = -np.inf
            x.flat[5::13] = np.nan
            x.flat[1::17] = -0.0
            np.testing.assert_array_equal(
                _axis_max(x, axis), x.max(axis=axis, keepdims=True)
            )
            with np.errstate(invalid="ignore"):
                expected = np.exp(x - x.max(axis=axis, keepdims=True))
                expected = expected / expected.sum(axis=axis, keepdims=True)
                out = softmax(Tensor(x), axis=axis).data
            assert out.dtype == dtype
            np.testing.assert_array_equal(out, expected)

    def test_log_softmax_consistent(self, rng):
        x = rng.standard_normal((3, 5))
        assert np.allclose(
            log_softmax(Tensor(x), axis=1).data,
            np.log(softmax(Tensor(x), axis=1).data),
            atol=1e-6,
        )

    def test_log_softmax_gradcheck(self, rng):
        assert gradcheck(
            lambda a: log_softmax(a, axis=-1), [rng.standard_normal((3, 5))]
        )


class TestVectorNorm:
    def test_values(self):
        out = vector_norm(Tensor(np.array([[3.0, 4.0]])), axis=1)
        assert out.data[0] == pytest.approx(5.0, rel=1e-4)

    def test_keepdims(self):
        out = vector_norm(Tensor(np.ones((2, 3))), axis=1, keepdims=True)
        assert out.shape == (2, 1)

    def test_gradcheck(self, rng):
        x = rng.standard_normal((4, 6)) + 0.5  # keep away from 0
        assert gradcheck(lambda a: vector_norm(a, axis=1), [x])

    def test_zero_vector_finite_grad(self):
        a = Tensor(np.zeros((1, 3)), requires_grad=True)
        vector_norm(a, axis=1).sum().backward()
        assert np.isfinite(a.grad).all()
