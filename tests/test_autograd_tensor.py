"""Tests for the core Tensor type and its backward rules."""

import numpy as np
import pytest

from repro.autograd import Tensor, concatenate, gradcheck, no_grad, stack
from repro.autograd.tensor import _unbroadcast


class TestConstruction:
    def test_wraps_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float32

    def test_preserves_float64(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_casts_int_to_float32(self):
        t = Tensor(np.arange(4))
        assert t.dtype == np.float32

    def test_detach_cuts_graph(self):
        t = Tensor([1.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_item_and_len(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)
        assert len(Tensor(np.zeros((4, 2)))) == 4


class TestArithmeticValues:
    def test_add_sub_mul_div(self):
        a = Tensor([2.0, 4.0])
        b = Tensor([1.0, 2.0])
        assert np.allclose((a + b).data, [3, 6])
        assert np.allclose((a - b).data, [1, 2])
        assert np.allclose((a * b).data, [2, 8])
        assert np.allclose((a / b).data, [2, 2])

    def test_scalar_operands(self):
        a = Tensor([2.0])
        assert np.allclose((a + 1).data, [3])
        assert np.allclose((1 + a).data, [3])
        assert np.allclose((1 - a).data, [-1])
        assert np.allclose((4 / a).data, [2])
        assert np.allclose((a**2).data, [4])

    def test_neg(self):
        assert np.allclose((-Tensor([1.0, -2.0])).data, [-1, 2])

    def test_maximum_values(self):
        a = Tensor([1.0, 5.0, 3.0])
        assert np.allclose(a.maximum(3.0).data, [3, 5, 3])

    def test_exp_log_sqrt(self):
        a = Tensor([1.0, 4.0])
        assert np.allclose(a.sqrt().data, [1, 2])
        assert np.allclose(a.log().data, np.log([1.0, 4.0]))
        assert np.allclose(a.exp().data, np.exp([1.0, 4.0]))

    def test_tensor_exponent_rejected(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])


class TestBackwardBasics:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1, 1])
        assert np.allclose(b.grad, [1, 1])

    def test_mul_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [3, 4])
        assert np.allclose(b.grad, [1, 2])

    def test_grad_accumulates_across_backward_calls(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        (a * 2).sum().backward()
        assert np.allclose(a.grad, [4.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_backward_seed_shape_mismatch(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2).backward(np.ones(3))

    def test_diamond_graph_accumulates_once_per_path(self):
        # y = a*a + a*a should give dy/da = 4a.
        a = Tensor([3.0], requires_grad=True)
        b = a * a
        (b + b).sum().backward()
        assert np.allclose(a.grad, [12.0])

    def test_broadcast_add_backward(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3,)
        assert np.allclose(b.grad, [2, 2, 2])

    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad


class TestGradcheckElementwise:
    def test_mul_div(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 2.0, (3, 4))
        y = rng.uniform(0.5, 2.0, (3, 4))
        assert gradcheck(lambda a, b: a * b / (a + b), [x, y])

    def test_exp_log_sqrt_chain(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.5, 2.0, (5,))
        assert gradcheck(lambda a: (a.exp().log() * a.sqrt()), [x])

    def test_pow(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.5, 2.0, (4,))
        assert gradcheck(lambda a: a**3, [x])

    def test_maximum(self):
        # Stay away from ties, where the subgradient is ambiguous.
        x = np.array([0.2, 1.7, -0.5, 2.2])
        y = np.array([0.9, 0.1, 0.4, -1.0])
        assert gradcheck(lambda a, b: a.maximum(b), [x, y])


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert a.sum(axis=1).shape == (2,)
        assert a.sum(axis=1, keepdims=True).shape == (2, 1)
        assert a.sum().item() == 15

    def test_mean(self):
        a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        assert a.mean().item() == pytest.approx(2.5)
        assert np.allclose(a.mean(axis=0).data, [1.5, 2.5, 3.5])

    def test_sum_backward_negative_axis(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 3, 4))
        assert gradcheck(lambda a: a.sum(axis=-1), [x])

    def test_mean_backward(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 4))
        assert gradcheck(lambda a: a.mean(axis=1), [x])

    def test_max_values_and_backward(self):
        a = Tensor(np.array([[1.0, 5.0], [7.0, 2.0]]), requires_grad=True)
        m = a.max(axis=1)
        assert np.allclose(m.data, [5, 7])
        m.sum().backward()
        assert np.allclose(a.grad, [[0, 1], [1, 0]])


class TestShapes:
    def test_reshape_transpose_roundtrip(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 4))
        assert gradcheck(lambda a: a.reshape(6, 4).transpose(1, 0), [x])

    def test_swapaxes_and_expand_squeeze(self):
        a = Tensor(np.zeros((2, 3)))
        assert a.swapaxes(0, 1).shape == (3, 2)
        assert a.expand_dims(0).shape == (1, 2, 3)
        assert a.expand_dims(0).squeeze(0).shape == (2, 3)

    def test_flatten(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert a.flatten(1).shape == (2, 12)

    def test_getitem_backward(self):
        a = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
        a[0].sum().backward()
        assert np.allclose(a.grad, [[1, 1, 1], [0, 0, 0]])

    def test_getitem_gradcheck(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 5))
        assert gradcheck(lambda a: a[1:3, ::2], [x])

    def test_concatenate_and_stack(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.zeros((2, 2)), requires_grad=True)
        cat = concatenate([a, b], axis=0)
        assert cat.shape == (4, 2)
        st = stack([a, b], axis=1)
        assert st.shape == (2, 2, 2)
        cat.sum().backward()
        assert np.allclose(a.grad, np.ones((2, 2)))
        assert np.allclose(b.grad, np.ones((2, 2)))


class TestMatmul:
    def test_2d_values(self):
        a = Tensor(np.eye(2) * 2)
        b = Tensor(np.ones((2, 3)))
        assert np.allclose((a @ b).data, 2 * np.ones((2, 3)))

    def test_2d_gradcheck(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        assert gradcheck(lambda x, y: x @ y, [a, b])

    def test_batched_gradcheck(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 2))
        assert gradcheck(lambda x, y: x @ y, [a, b])

    def test_broadcast_batched_gradcheck(self):
        # The broadcast pattern of the former CapsFC vote kernel (now one
        # GEMM per input capsule, gradchecked in test_capsnet_layers_models).
        rng = np.random.default_rng(9)
        w = rng.standard_normal((1, 3, 5, 2, 4))
        u = rng.standard_normal((2, 3, 1, 4, 1))
        assert gradcheck(lambda x, y: x @ y, [w, u])

    def test_vector_matmul(self):
        a = Tensor(np.ones(3))
        m = Tensor(np.eye(3))
        assert (a @ m).shape == (3,)
        assert (m @ a).shape == (3,)


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert _unbroadcast(g, (2, 3)) is g

    def test_sum_leading(self):
        g = np.ones((4, 2, 3))
        assert _unbroadcast(g, (2, 3)).shape == (2, 3)

    def test_sum_kept_dims(self):
        g = np.ones((4, 2, 3))
        out = _unbroadcast(g, (1, 3))
        assert out.shape == (1, 3)
        assert np.allclose(out, 8 * np.ones((1, 3)))
