"""Neural-network operations: convolution, activations, softmax, norms.

A convolution is lowered so that its inner loop is one large matrix
multiplication — the only way to get acceptable throughput from a
pure-NumPy engine.  The lowering is shared with the integer backend
(:func:`repro.backend.int_kernels.int_conv2d`), which runs it on its
GEMM carriers:

* one pass casts, transposes and zero-pads the input into NHWC;
* one strided copy builds the ``(B·oh·ow, kh·kw·C)`` patch rows;
* one GEMM multiplies them by the ``(kh·kw·C, F)`` weight rows;
* one pass writes the C-contiguous NCHW output (adding the bias).

Each output is one ``kh·kw·C``-term dot product, the patch extraction
the paper's hardware accelerator reference (CapsAcc, DATE 2019)
performs in its systolic array, so MAC counts derived from this code
path match the analytical model in :mod:`repro.hw`.
"""

from __future__ import annotations

import numbers
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor, grad_enabled

IntPair = Union[int, Tuple[int, int]]


def as_pair(value: IntPair, name: str = "value") -> Tuple[int, int]:
    """Normalize an int-or-pair spatial hyperparameter to ``(h, w)``.

    Accepts any integral scalar (including numpy integers) or a
    2-sequence of them; anything else raises ``ValueError`` naming the
    offending parameter.  Shared by the op-level and module-level
    (:class:`repro.nn.conv.Conv2d`) normalization so the two cannot
    drift.
    """
    def integral(v) -> bool:
        # bool is Integral but a True/False kernel size or stride is a
        # misplaced flag, not a dimension.
        return isinstance(v, numbers.Integral) and not isinstance(v, bool)

    if integral(value):
        return (int(value), int(value))
    if isinstance(value, (str, bytes)):
        raise ValueError(f"{name} must be an int or a pair, got {value!r}")
    try:
        pair = tuple(value)
    except TypeError:
        raise ValueError(
            f"{name} must be an int or a pair, got {value!r}"
        ) from None
    if len(pair) != 2 or not all(integral(v) for v in pair):
        raise ValueError(f"{name} must be an int or a pair, got {value!r}")
    return (int(pair[0]), int(pair[1]))


def _output_hw(
    height: int, width: int, kh: int, kw: int, sh: int, sw: int, ph: int, pw: int
) -> Tuple[int, int]:
    out_h = (height + 2 * ph - kh) // sh + 1
    out_w = (width + 2 * pw - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"convolution output would be empty: input {height}x{width}, "
            f"kernel {kh}x{kw}, stride {sh}x{sw}, padding {ph}x{pw}"
        )
    return out_h, out_w


def conv_output_shape(
    height: int, width: int, kernel: IntPair, stride: IntPair = 1, padding: IntPair = 0
) -> Tuple[int, int]:
    """Spatial output shape of a 2-D convolution (floor semantics)."""
    return _output_hw(
        height, width, *as_pair(kernel), *as_pair(stride), *as_pair(padding)
    )


class ConvGeometry(NamedTuple):
    """Shape of one 2-D convolution, computed once per call."""

    batch: int
    channels: int
    height: int
    width: int
    kh: int
    kw: int
    sh: int
    sw: int
    ph: int
    pw: int
    out_h: int
    out_w: int


def conv_geometry(
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> ConvGeometry:
    """The :class:`ConvGeometry` of a convolution over ``(B, C, H, W)``
    input, from already-normalized ``(h, w)`` pairs (as
    :class:`repro.nn.conv.Conv2d` stores them; see :func:`as_pair`)."""
    batch, channels, height, width = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h, out_w = _output_hw(height, width, kh, kw, sh, sw, ph, pw)
    return ConvGeometry(
        batch, channels, height, width, kh, kw, sh, sw, ph, pw, out_h, out_w
    )


def conv_weight_matrix(weight: np.ndarray) -> np.ndarray:
    """``(F, C, kh, kw)`` filters as the ``(kh·kw·C, F)`` weight rows
    that multiply :func:`conv_patches`."""
    return weight.transpose(2, 3, 1, 0).reshape(-1, weight.shape[0])


def conv_patches(
    x: np.ndarray, geom: ConvGeometry, dtype: Optional[np.dtype] = None
) -> np.ndarray:
    """``(B·oh·ow, kh·kw·C)`` patch rows of ``x`` (``(B, C, H, W)``, any
    strides) as ``dtype``.

    One pass casts, transposes and zero-pads ``x`` into NHWC, and one
    strided copy builds the rows, whose row-major ``(kh, kw, C)`` order
    matches :func:`conv_weight_matrix`.
    """
    g = geom
    dtype = x.dtype if dtype is None else dtype
    padded = (np.zeros if g.ph or g.pw else np.empty)(
        (g.batch, g.height + 2 * g.ph, g.width + 2 * g.pw, g.channels),
        dtype=dtype,
    )
    padded[:, g.ph : g.ph + g.height, g.pw : g.pw + g.width, :] = (
        x.transpose(0, 2, 3, 1)
    )
    # One strided view over the padded input and one copy of it.
    s_b, s_h, s_w, s_c = padded.strides
    window = (g.batch, g.out_h, g.out_w, g.kh, g.kw, g.channels)
    steps = (s_b, s_h * g.sh, s_w * g.sw, s_h, s_w, s_c)
    patches = np.empty(window, dtype=dtype)
    patches[...] = np.lib.stride_tricks.as_strided(
        padded, window, steps, writeable=False
    )
    return patches.reshape(g.batch * g.out_h * g.out_w, -1)


def conv_scatter(patches: np.ndarray, geom: ConvGeometry) -> np.ndarray:
    """Adjoint of :func:`conv_patches`: sum patch rows back into a
    ``(B, C, H, W)`` image (a view of NHWC memory)."""
    g = geom
    padded = np.zeros(
        (g.batch, g.height + 2 * g.ph, g.width + 2 * g.pw, g.channels),
        dtype=patches.dtype,
    )
    patches = patches.reshape(g.batch, g.out_h, g.out_w, g.kh, g.kw, g.channels)
    for i in range(g.kh):
        rows = slice(i, i + g.sh * g.out_h, g.sh)
        for j in range(g.kw):
            cols = slice(j, j + g.sw * g.out_w, g.sw)
            padded[:, rows, cols, :] += patches[:, :, :, i, j, :]
    padded = padded.transpose(0, 3, 1, 2)
    return padded[:, :, g.ph : g.ph + g.height, g.pw : g.pw + g.width]


def conv_gemm(
    patches: np.ndarray, w_mat: np.ndarray, geom: ConvGeometry
) -> np.ndarray:
    """The convolution's one GEMM, as a ``(B, F, oh·ow)`` transposed
    view of the ``(B·oh·ow, F)`` product."""
    product = patches @ w_mat
    return product.reshape(geom.batch, -1, product.shape[1]).transpose(0, 2, 1)


def gemm_epilogue(
    product: np.ndarray, bias: Optional[np.ndarray], dtype: np.dtype
) -> np.ndarray:
    """``product + bias`` (``bias`` broadcastable, or ``None``) as a
    C-contiguous ``dtype`` array, written in one pass: in place when
    ``product`` already is one, else converted as it is written
    (``dtype`` may be an integer type the caller's bound proves exact)."""
    if product.flags.c_contiguous and product.dtype == dtype:
        if bias is not None:
            product += bias
        return product
    out = np.empty(product.shape, dtype=dtype)
    if bias is None:
        np.copyto(out, product, casting="unsafe")
    else:
        np.add(product, bias, out=out, casting="unsafe")
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D convolution (cross-correlation) over ``(B, C, H, W)`` input.

    ``weight`` has shape ``(F, C, kh, kw)``; ``bias`` shape ``(F,)``.
    One GEMM of the :func:`conv_patches` of ``x`` against
    :func:`conv_weight_matrix`; the output is C-contiguous NCHW.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    filters, _, kh, kw = weight.shape
    geom = conv_geometry(
        x.shape, (kh, kw), as_pair(stride, "stride"),
        as_pair(padding, "padding"),
    )
    dtype = np.result_type(x.data, weight.data)
    w_mat = conv_weight_matrix(weight.data)
    patches = conv_patches(x.data, geom, dtype)
    out = gemm_epilogue(
        conv_gemm(patches, w_mat, geom),
        None if bias is None else bias.data[:, None],
        dtype,
    ).reshape(geom.batch, filters, geom.out_h, geom.out_w)

    needs_grad = grad_enabled() and (
        x.requires_grad
        or weight.requires_grad
        or (bias is not None and bias.requires_grad)
    )
    if not needs_grad:
        return Tensor(out)

    def backward_fn(grad: np.ndarray) -> None:
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, filters)
        if weight.requires_grad or weight._backward_fn:
            grad_w = (patches.T @ grad_mat).reshape(kh, kw, -1, filters)
            weight._accumulate(grad_w.transpose(3, 2, 0, 1))
        if bias is not None and (bias.requires_grad or bias._backward_fn):
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad or x._backward_fn:
            x._accumulate(conv_scatter(grad_mat @ w_mat.T, geom))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor(out, True, parents, backward_fn)


def _pool_geometry(
    x: Tensor, kernel: IntPair, stride: Optional[IntPair], padding: IntPair
) -> Tuple[int, int, int, int, int, int, int, int]:
    """Shared pooling shape math, validated like :func:`conv2d`.

    Routes the output-shape computation through
    :func:`conv_output_shape`, so a configuration yielding an empty
    output raises the same ``ValueError`` a convolution would instead of
    being accepted silently.
    """
    kh, kw = as_pair(kernel, "kernel")
    sh, sw = as_pair(stride if stride is not None else kernel, "stride")
    ph, pw = as_pair(padding, "padding")
    if ph >= kh or pw >= kw:
        # With padding < kernel every window overlaps at least one real
        # cell; beyond that, windows fall entirely inside the padding
        # and a max pool would emit -inf.
        raise ValueError(
            f"pooling padding ({ph}, {pw}) must be smaller than the "
            f"kernel ({kh}, {kw})"
        )
    _, _, height, width = x.shape
    out_h, out_w = conv_output_shape(height, width, (kh, kw), (sh, sw), (ph, pw))
    return kh, kw, sh, sw, ph, pw, out_h, out_w


def max_pool2d(
    x: Tensor,
    kernel: IntPair,
    stride: Optional[IntPair] = None,
    padding: IntPair = 0,
) -> Tensor:
    """Max pooling over ``(B, C, H, W)`` input (used by CNN baselines).

    ``stride`` defaults to ``kernel``; padded positions hold ``-inf`` so
    they never win a window.  Shape validation matches :func:`conv2d`.
    """
    x = as_tensor(x)
    kh, kw, sh, sw, ph, pw, out_h, out_w = _pool_geometry(
        x, kernel, stride, padding
    )
    batch, channels, height, width = x.shape
    data = x.data
    if ph or pw:
        data = np.pad(
            data, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=-np.inf
        )

    windows = np.empty((batch, channels, out_h, out_w, kh * kw), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            windows[..., i * kw + j] = data[
                :, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw
            ]
    arg = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]

    if not (grad_enabled() and x.requires_grad):
        return Tensor(out)

    def backward_fn(grad: np.ndarray) -> None:
        grad_pad = np.zeros(
            (batch, channels, height + 2 * ph, width + 2 * pw), dtype=x.dtype
        )
        offsets_i = arg // kw
        offsets_j = arg % kw
        b_idx, c_idx, oh_idx, ow_idx = np.indices(arg.shape)
        rows = oh_idx * sh + offsets_i
        cols_ = ow_idx * sw + offsets_j
        np.add.at(grad_pad, (b_idx, c_idx, rows, cols_), grad)
        if ph or pw:
            grad_pad = grad_pad[:, :, ph : ph + height, pw : pw + width]
        x._accumulate(grad_pad)

    return Tensor(out, True, (x,), backward_fn)


def avg_pool2d(
    x: Tensor,
    kernel: IntPair,
    stride: Optional[IntPair] = None,
    padding: IntPair = 0,
) -> Tensor:
    """Average pooling over ``(B, C, H, W)`` input.

    ``stride`` defaults to ``kernel``; padded positions count as zeros
    in the average (the window divisor is always ``kh * kw``).  Shape
    validation matches :func:`conv2d`.
    """
    x = as_tensor(x)
    kh, kw, sh, sw, ph, pw, out_h, out_w = _pool_geometry(
        x, kernel, stride, padding
    )
    batch, channels, height, width = x.shape
    data = x.data
    if ph or pw:
        data = np.pad(data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))

    out = np.zeros((batch, channels, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            out += data[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw]
    out /= kh * kw

    if not (grad_enabled() and x.requires_grad):
        return Tensor(out)

    def backward_fn(grad: np.ndarray) -> None:
        grad_pad = np.zeros(
            (batch, channels, height + 2 * ph, width + 2 * pw), dtype=x.dtype
        )
        share = grad / (kh * kw)
        for i in range(kh):
            for j in range(kw):
                grad_pad[
                    :, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw
                ] += share
        if ph or pw:
            grad_pad = grad_pad[:, :, ph : ph + height, pw : pw + width]
        x._accumulate(grad_pad)

    return Tensor(out, True, (x,), backward_fn)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    x = as_tensor(x)
    out = np.maximum(x.data, 0.0)
    if not (grad_enabled() and x.requires_grad):
        return Tensor(out)

    mask = x.data > 0

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor(out, True, (x,), backward_fn)


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid ``1 / (1 + exp(-x))``."""
    x = as_tensor(x)
    out = 1.0 / (1.0 + np.exp(-x.data))
    if not (grad_enabled() and x.requires_grad):
        return Tensor(out)

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad * out * (1.0 - out))

    return Tensor(out, True, (x,), backward_fn)


#: Longest axis :func:`axis_fold` folds slice by slice.
_SHORT_AXIS = 16
#: Fewest rows (reductions) for which folding beats NumPy's reduction:
#: below it the fold's per-slice call overhead costs more than the rows.
_MIN_FOLD_ROWS = 256


def axis_fold(data: np.ndarray, axis: int, ufunc: np.ufunc) -> np.ndarray:
    """``ufunc.reduce(data, axis=axis, keepdims=True)``, fast for short
    axes.

    NumPy reduces a short axis one tiny row at a time; folding ``ufunc``
    over the axis's slices makes every step one pass over all rows
    instead (~10x faster for the 10 output capsules the routing softmax
    normalises over at batch 64).  The fold reduces in axis order, so
    use it where the order cannot change the result: a maximum, or an
    integer sum.  The result keeps ``data``'s dtype (an integer sum is
    not widened).
    """
    length = data.shape[axis]
    if (
        length == 0
        or length > _SHORT_AXIS
        or data.size < _MIN_FOLD_ROWS * length
    ):
        return ufunc.reduce(data, axis=axis, keepdims=True, dtype=data.dtype)
    lead = (slice(None),) * (axis % data.ndim)
    out = data[lead + (slice(0, 1),)].copy()
    for index in range(1, length):
        ufunc(out, data[lead + (slice(index, index + 1),)], out=out)
    return out


def _axis_max(data: np.ndarray, axis: int) -> np.ndarray:
    """``data.max(axis=axis, keepdims=True)`` by :func:`axis_fold`."""
    return axis_fold(data, axis, np.maximum)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (Eq. 1 of the paper)."""
    x = as_tensor(x)
    shifted = x.data - _axis_max(x.data, axis)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=axis, keepdims=True)
    if not (grad_enabled() and x.requires_grad):
        return Tensor(out)

    def backward_fn(grad: np.ndarray) -> None:
        dot = (grad * out).sum(axis=axis, keepdims=True)
        x._accumulate(out * (grad - dot))

    return Tensor(out, True, (x,), backward_fn)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log of the softmax, computed stably (used by cross-entropy)."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_sum
    if not (grad_enabled() and x.requires_grad):
        return Tensor(out)

    softmax_vals = np.exp(out)

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad - softmax_vals * grad.sum(axis=axis, keepdims=True))

    return Tensor(out, True, (x,), backward_fn)


def vector_norm(
    x: Tensor, axis: int = -1, keepdims: bool = False, eps: float = 1e-8
) -> Tensor:
    """Euclidean norm along ``axis`` with an epsilon-safe gradient.

    The capsule length ``||v||`` is the class-instantiation probability in
    CapsNets, so this op appears both in the margin loss and in inference
    argmax.  The ``eps`` inside the square root keeps the gradient finite
    for zero vectors.
    """
    x = as_tensor(x)
    squared = (x.data * x.data).sum(axis=axis, keepdims=True)
    norm = np.sqrt(squared + eps)
    out = norm if keepdims else np.squeeze(norm, axis=axis)
    if not (grad_enabled() and x.requires_grad):
        return Tensor(out)

    def backward_fn(grad: np.ndarray) -> None:
        grad_k = grad if keepdims else np.expand_dims(grad, axis)
        x._accumulate(grad_k * x.data / norm)

    return Tensor(out, True, (x,), backward_fn)
