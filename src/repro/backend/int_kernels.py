"""Vectorized numpy integer kernels for the int inference backend.

Every kernel operates on two's-complement integer *codes*: a code ``c``
on grid ``2^e`` represents the value ``c · 2^e``.  The grids and shift
amounts come from a certified :class:`repro.analysis.lowering
.LoweringPlan`, so each kernel is the executable form of one plan op:

* multiply-accumulate ops (conv / linear / votes) are exact on the
  plan's output grid: the weights are pre-scaled onto it
  (:func:`scaled_weight`) and biases join by exact left shift; their
  GEMMs, bias add included, run on the plan's float *carrier* when it
  records one;
* rescales are the certified shift schedule (:func:`shift_round`),
  which the replay oracle :func:`repro.analysis.qlower.replay_plan`
  runs against the float fixed-point path for every rounding scheme;
* squash is written here once (:func:`squash_codes`) and runs on the
  carriers its plan op records: its per-capsule stage on float64 when
  the plan proves every intermediate below ``2^52`` (int64 with an
  integer-only square root otherwise), its full-size scale stage on
  float32 when the plan proves it below ``2^24``.  It matches the
  reference datapath :func:`repro.hw.fixed_ref.fixed_squash` bit for
  bit;
* softmax and batch-norm are integer table lookups and affines
  (softmax through a prebuilt exponential ROM so bound models build
  each table once, not per forward).

Codes stay at their certified storage widths (:func:`storage_dtype`)
instead of widening to int64 between ops:

* **hooks** (:func:`hook_rescale`, and the squash operand rescale of
  :func:`int_squash`): TRN, RTN and RTNE right shifts round in the
  input's own dtype and clip in place.  A right shift never grows a
  code, so nothing overflows, for any shift.  Left shifts and SR run
  on int64;
* **softmax** (:func:`int_softmax`): runs in the dtype its ROM was cast
  to at bind (:func:`softmax_table`), int32 when the ROM format and the
  op's input count prove every table entry shifted by ``QF`` and every
  row sum below ``2^31``, int64 otherwise;
* **MACs** (:func:`int_conv2d`, :func:`int_linear`, :func:`int_votes`)
  and the routing contractions (:func:`routing_weighted_sum`,
  :func:`routing_agreement`): the carrier result (shifted products
  plus the shifted bias) converts once, straight into the op's sealed
  dtype, exact because the certificate bounds the result by that
  width;
* **squash** (:func:`int_squash`): the clipped operand is stored at its
  format's wordlength and the result is written once at ``QF + 1``
  bits, which hold every output (``|v| < 2^QF``), however wide the
  datapath in between.

Floats exist in exactly three places, each line with an explicit
``QL044`` suppression, and the qlint ``intflow`` checker guards the rest
of the file — and the in-repo functions it reaches through its imports
— against float leaks:

* the stochastic-rounding residue comparison, part of the certified
  replay recipe (the float path draws the same uniforms);
* the carrier helpers (:func:`carrier_cast` / :func:`carrier_matmul`,
  and the convolution lowering of :mod:`repro.autograd.ops_nn` that
  :func:`int_conv2d` runs on carrier arrays), which run integer GEMMs
  on float32/float64 BLAS.  They are exact by the bound the lowering
  plan records for each carrier (every operand, product and partial
  sum is an integer the carrier represents, in any summation order),
  and they hand back integer codes;
* the squash carriers' floor division, truncating division and square
  root (:func:`_floor_div`, :func:`_trunc_div`, :func:`_isqrt`), exact
  by the bounds :func:`squash_codes` states.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd.ops_nn import (
    axis_fold,
    conv_gemm,
    conv_geometry,
    conv_patches,
    conv_weight_matrix,
    gemm_epilogue,
)
from repro.hw.fixed_ref import exp_lut, saturate
from repro.lint.sanitizer import active_sanitizer
from repro.quant.fixed_point import FixedPointFormat

#: Rescale roundings :func:`shift_round` knows (``exact``: the plan's
#: name for a left shift).
_SCHEMES = frozenset({"TRN", "exact", "RTN", "RTNE", "SR"})


#: Plan carrier name -> float GEMM dtype.  The plan proves the bound
#: (:func:`repro.analysis.lowering.choose_carrier`); this table only
#: names the dtype.
_CARRIER_DTYPES = {
    "float32": np.dtype(np.float32),  # qlint: disable=QL044
    "float64": np.dtype(np.float64),  # qlint: disable=QL044
}


def _carrier_dtype(carrier: Optional[str]) -> np.dtype:
    if carrier is None:
        return np.dtype(np.int64)
    return _CARRIER_DTYPES[carrier]


def carrier_cast(codes: np.ndarray, carrier: Optional[str]) -> np.ndarray:
    """Integer codes as a C-contiguous array of the carrier dtype (int64
    without a carrier).  Exact: the plan's bound covers every operand."""
    return np.ascontiguousarray(codes, dtype=_carrier_dtype(carrier))


def carrier_matmul(
    a: np.ndarray,
    b: np.ndarray,
    carrier: Optional[str],
    axes: Optional[Tuple[int, ...]] = None,
    out_dtype: np.dtype = np.dtype(np.int64),
) -> np.ndarray:
    """``a @ b`` on integer codes, computed on ``carrier``, as
    ``out_dtype`` (int64 unless the caller holds a tighter bound).

    With a float carrier the GEMM is BLAS; the plan's bound makes every
    product and partial sum an exactly representable integer, so the
    float result *is* the integer result and converts back losslessly.
    Without one, the product runs on int64.  ``axes`` permutes the
    product's axes; the result is C-contiguous in that order.  Either
    operand may be a strided view: matmul takes strided batches.
    """
    dtype = _carrier_dtype(carrier)
    product = np.matmul(np.asarray(a, dtype), np.asarray(b, dtype))
    if axes is not None:
        product = product.transpose(axes)
    return np.ascontiguousarray(product, dtype=out_dtype)


def storage_dtype(bits: Optional[int]) -> np.dtype:
    """Smallest standard integer dtype holding ``bits``-bit codes.

    ``bits`` follows the certificate's ``min_safe_bits`` convention
    (two's-complement width including the sign bit); ``None`` means
    unknown and keeps the wide accumulator dtype.
    """
    if bits is None:
        return np.dtype(np.int64)
    if bits <= 16:
        return np.dtype(np.int16)
    if bits <= 32:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def narrow(codes: np.ndarray, bits: Optional[int]) -> np.ndarray:
    """Store ``codes`` at the certified width (no copy when they are
    already stored at it; the hooks, softmax and MACs compute at their
    widths, the other kernels widen as they need)."""
    if bits is None:
        return codes
    return np.asarray(codes).astype(storage_dtype(bits), copy=False)


def shift_round(
    codes: np.ndarray,
    shift: int,
    scheme: str,
    draw: Optional[np.ndarray] = None,
    gen: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Integer rescale ``round(code / 2^shift)`` per rounding scheme.

    The certified rescale schedule the replay oracle checks: left
    shifts (``shift < 0``) are exact; right shifts round by the
    artifact's own scheme.  Returns a new array the caller may modify
    in place.

    TRN, RTN and RTNE right shifts (and ``shift == 0``, the identity
    for every scheme) compute in the codes' own integer dtype: with
    ``q = c >> s``, RTN adds bit ``s - 1`` of ``c`` (for ``s >= 2`` as
    ``((c >> (s - 1)) + 1) >> 1``, one pass fewer: ``c >> (s - 1)`` is
    at most half the dtype's maximum, so the ``+ 1`` fits) and RTNE
    compares the remainder ``c & (2^s - 1)`` against the half.  No
    intermediate is wider than ``|c|``, so nothing overflows for any
    ``s``, also past the dtype's width, where NumPy's ``c >> s`` is the
    sign (``-1`` or ``0``) and RTNE's result is 0.  Left shifts and SR
    run on int64.
    SR consumes exactly one uniform array of ``codes.shape`` — either
    ``draw`` (pre-drawn, used to stay in lockstep with the float path's
    hook stream) or one draw from ``gen``.
    """
    codes = np.asarray(codes)
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown rounding scheme '{scheme}'")
    if shift == 0:
        return codes.copy()
    if shift < 0:
        return np.asarray(codes, np.int64) << (-shift)
    s = shift
    if scheme == "SR":
        codes = np.asarray(codes, np.int64)
        q = codes >> s
        residue = (codes - (q << s)).astype(np.float64) / float(2 ** s)  # qlint: disable=QL044
        if draw is None:
            draw = gen.random(size=codes.shape)
        return q + (draw < residue).astype(np.int64)
    if scheme == "RTNE" and s >= 8 * codes.dtype.itemsize:
        return np.zeros_like(codes)  # |c / 2^s| <= 1/2, ties to even 0
    if scheme == "RTN" and s > 1:
        q = codes >> (s - 1)
        q += 1
        q >>= 1
        return q
    q = codes >> s
    if scheme == "RTN":
        half_bit = codes >> (s - 1)
        half_bit &= 1
        q += half_bit
    elif scheme == "RTNE":
        remainder = codes & ((1 << s) - 1)
        # Round up iff remainder > half, or == half with q odd; the
        # threshold ``half - (q & 1)`` stays inside the dtype.
        threshold = q & 1
        np.subtract(1 << (s - 1), threshold, out=threshold)
        q += remainder > threshold
    return q


def hook_rescale(
    codes: np.ndarray,
    shift: int,
    rounding: str,
    fmt: FixedPointFormat,
    draw: Optional[np.ndarray] = None,
    label: Optional[str] = None,
) -> np.ndarray:
    """Quantization-hook rescale: certified shift + clip into ``fmt``.

    This is exactly the replayed schedule :func:`shift_round` → clip
    that the lowering oracle proves bit-identical to ``scaled_quantize``
    on the float path.  The clip runs in place on the shifted codes,
    in their dtype (:func:`shift_round`).  Under an active
    fixed-point sanitizer the pre-clip codes are reported as one
    rounding call of layer ``label``, as the float path's hooks do.
    """
    out = shift_round(codes, shift, rounding, draw=draw)
    sanitizer = active_sanitizer()
    if sanitizer is not None:
        sanitizer.record_rounding(out, fmt.int_min, fmt.int_max, label=label)
    return np.clip(out, fmt.int_min, fmt.int_max, out=out)


def scaled_weight(
    codes: np.ndarray, prod_shift: int, carrier: Optional[str]
) -> np.ndarray:
    """Weight codes times ``2^prod_shift`` as a C-contiguous carrier
    array: the MAC kernels' weight operand, whose products land on the
    op's output grid directly.

    Exact: the shift is a power of two, and the plan's carrier bound
    ``Σ|w|·max|x|·2^prod_shift (+ |b|·2^bias_shift)`` covers every
    scaled product and partial sum.  Bound models build it once per
    weight (``IntBackend._carried``).
    """
    if prod_shift < 0:
        raise ValueError("grid alignment shifts must be left (exact)")
    return carrier_cast(np.asarray(codes, np.int64) << prod_shift, carrier)


def conv_weight(
    codes: np.ndarray, prod_shift: int, carrier: Optional[str]
) -> np.ndarray:
    """``(F, C, kh, kw)`` weight codes as :func:`int_conv2d`'s operand:
    the :func:`repro.autograd.ops_nn.conv_weight_matrix` of the
    :func:`scaled_weight`."""
    return scaled_weight(
        conv_weight_matrix(np.asarray(codes)), prod_shift, carrier
    )


def linear_weight(
    codes: np.ndarray, prod_shift: int, carrier: Optional[str]
) -> np.ndarray:
    """``(units, fan_in)`` weight codes as :func:`int_linear`'s
    ``(fan_in, units)`` operand (:func:`scaled_weight`)."""
    return scaled_weight(np.asarray(codes).T, prod_shift, carrier)


def _carried_bias(
    bias: Optional[np.ndarray], bias_shift: int, carrier: Optional[str]
) -> Optional[np.ndarray]:
    """Bias codes ``b·2^bias_shift`` on the carrier (``None``: no bias)."""
    return None if bias is None else scaled_weight(bias, bias_shift, carrier)


def int_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    bias_shift: int = 0,
    carrier: Optional[str] = None,
    out_dtype: np.dtype = np.dtype(np.int64),
) -> np.ndarray:
    """Integer convolution on codes; exact on the output grid.

    ``weight`` is the :func:`conv_weight` operand, already scaled by
    ``2^prod_shift`` onto the plan's output grid; ``bias_shift``
    left-aligns the bias codes onto it (both shifts are exact:
    ``out_exp = min(product_exp, bias_exp)``).  The convolution is the
    float path's channels-last lowering (:mod:`repro.autograd.ops_nn`)
    on the carrier:

    * one pass casts ``x`` to the carrier, in NHWC order and zero-padded;
    * one strided copy builds the ``(B·oh·ow, kh·kw·C)`` patch rows;
    * one GEMM multiplies them by the ``(kh·kw·C, F)`` weight rows;
    * one pass adds the bias in the carrier and writes the result as a
      C-contiguous NCHW ``out_dtype`` array.

    Pass the op's sealed dtype (:func:`storage_dtype` of its
    ``accumulator_bits``) as ``out_dtype``: the certificate bounds the
    result by that width, and the carrier bound covers every partial
    sum, so the result converts once, straight from the carrier.
    """
    geom = conv_geometry(x.shape, kernel, stride, padding)
    patches = conv_patches(x, geom, _carrier_dtype(carrier))
    bias = _carried_bias(bias, bias_shift, carrier)
    out = gemm_epilogue(
        conv_gemm(patches, weight, geom),
        None if bias is None else bias[:, None],
        out_dtype,
    )
    return out.reshape(geom.batch, -1, geom.out_h, geom.out_w)


def int_linear(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    bias_shift: int = 0,
    carrier: Optional[str] = None,
    out_dtype: np.dtype = np.dtype(np.int64),
) -> np.ndarray:
    """Integer dense layer ``x @ W.T (+ bias)``, exact on the plan grid.

    ``weight`` is the :func:`linear_weight` operand (scaled by
    ``2^prod_shift``); the bias joins in the carrier and the result
    converts once into ``out_dtype``, as in :func:`int_conv2d`.
    """
    product = np.matmul(carrier_cast(x, carrier), weight)
    return gemm_epilogue(
        product, _carried_bias(bias, bias_shift, carrier), out_dtype
    )


def int_votes(
    u: np.ndarray,
    weight: np.ndarray,
    carrier: Optional[str] = None,
    out_dtype: np.dtype = np.dtype(np.int64),
) -> np.ndarray:
    """Capsule vote projection ``û_{j|i} = W_ij × u_i`` on codes.

    ``weight`` is ``(I, J, D_out, D_in)`` (the :func:`scaled_weight`
    operand, so the votes land on the plan's output grid), ``u`` is
    ``(B, I, D_in)``; the result is ``(B, I, J, D_out)``.  Like the
    float path's ``CapsFC.votes`` it is one GEMM per input capsule,
    ``(I, B, D_in) @ (I, D_in, J·D_out)``; the contraction is exact, so
    the summation order is irrelevant.

    The product converts straight into ``out_dtype``.  Pass the op's
    sealed dtype (:func:`storage_dtype` of its ``accumulator_bits``):
    the certificate bounds the votes by that width.
    """
    in_caps, out_caps, out_dim, in_dim = weight.shape
    w_t = np.asarray(weight).reshape(in_caps, -1, in_dim).transpose(0, 2, 1)
    votes = carrier_matmul(
        np.asarray(u).transpose(1, 0, 2), w_t, carrier, axes=(1, 0, 2),
        out_dtype=out_dtype,
    )
    return votes.reshape(votes.shape[0], in_caps, out_caps, out_dim)


def routing_weighted_sum(
    votes_t: np.ndarray,
    coupling: np.ndarray,
    carrier: Optional[str],
    out_dtype: np.dtype = np.dtype(np.int64),
) -> np.ndarray:
    """Routing ``mul`` + ``sum`` ``s_j = Σ_i c_ij û_{j|i}`` as one
    batched matmul ``(B,J,1,I) @ (B,J,I,D)``, with no product array.

    ``votes_t`` is the votes as ``(B, J, I, D)`` already on the carrier
    (:func:`carrier_cast`; a transposed view of the ``(B, I, J, D)``
    votes serves), ``coupling`` is ``(B, I, J)``; returns
    ``(B, J, D)`` as ``out_dtype`` (pass the ``sum`` op's sealed dtype:
    the certificate bounds the sums by it).
    """
    batch, out_caps, _, out_dim = votes_t.shape
    c = np.asarray(coupling).transpose(0, 2, 1)[:, :, None, :]
    sums = carrier_matmul(c, votes_t, carrier, out_dtype=out_dtype)
    return sums.reshape(batch, out_caps, out_dim)


def routing_agreement(
    votes_t: np.ndarray,
    activation: np.ndarray,
    carrier: Optional[str],
    out_dtype: np.dtype = np.dtype(np.int64),
) -> np.ndarray:
    """Routing ``mul`` + ``sum`` ``a_ij = û_{j|i} · v_j`` as one batched
    matmul ``(B,J,I,D) @ (B,J,D,1)``, with no product array.

    ``votes_t`` as for :func:`routing_weighted_sum`, ``activation`` is
    ``(B, J, D)``; returns ``(B, I, J)`` as ``out_dtype``.
    """
    batch, out_caps, in_caps, _ = votes_t.shape
    agreement = carrier_matmul(
        votes_t, np.asarray(activation)[..., None], carrier,
        axes=(0, 2, 1, 3), out_dtype=out_dtype,
    )
    return agreement.reshape(batch, in_caps, out_caps)


def int_relu(codes: np.ndarray) -> np.ndarray:
    """ReLU on codes (sign is grid-independent)."""
    return np.maximum(codes, 0)


def int_pool_sum(codes: np.ndarray, kernel: int) -> np.ndarray:
    """Average pooling as a window *sum*: the ``/window`` of the float
    path is a pure grid reinterpretation (``out_exp -= log2(window²)``
    in the plan), so the integer op is just the exact window sum."""
    x = np.asarray(codes, np.int64)
    b, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(
            f"pool window {kernel} does not tile input {h}x{w}"
        )
    view = x.reshape(b, c, h // kernel, kernel, w // kernel, kernel)
    return view.sum(axis=(3, 5))


def int_batchnorm(
    codes: np.ndarray, multipliers: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Per-channel integer affine ``m_c · code + B_c`` from the plan's
    batch-norm tables (output lands on the plan's ``2^out_exp`` grid)."""
    m = np.asarray(multipliers, np.int64)[None, :, None, None]
    off = np.asarray(offsets, np.int64)[None, :, None, None]
    out = np.multiply(codes, m, dtype=np.int64)  # no int64 copy of codes
    return np.add(out, off, out=out)


def _floor_div(
    numerator: np.ndarray, denominator: np.ndarray, carrier: Optional[str]
) -> np.ndarray:
    """``⌊n / d⌋`` for integers ``n >= 0`` and ``d >= 1`` on ``carrier``."""
    if carrier is None:
        return numerator // denominator
    return np.floor(numerator / denominator)  # qlint: disable=QL044 (squash carrier)


def _trunc_div(
    numerator: np.ndarray,
    denominator: np.ndarray,
    carrier: Optional[str],
    out_dtype: np.dtype = np.dtype(np.int64),
) -> np.ndarray:
    """``n / d`` rounded toward zero as ``out_dtype``, for integers
    ``n`` and ``d >= 1`` whose quotient fits it.  On a carrier it
    divides ``numerator`` in place (the caller's temporary) and the
    cast truncates."""
    if carrier is None:
        quotient = np.abs(numerator) // denominator
        quotient = np.where(numerator < 0, -quotient, quotient)
        return quotient.astype(out_dtype, copy=False)
    return np.divide(numerator, denominator, out=numerator).astype(out_dtype)  # qlint: disable=QL044 (squash carrier)


def _isqrt(values: np.ndarray, carrier: Optional[str]) -> np.ndarray:
    """Elementwise ``isqrt`` of non-negative integers on ``carrier``.

    Without a carrier it is the base-4 digit-by-digit square root:
    integer compares, subtractions and shifts only, exact on all of
    int64.
    """
    if carrier is not None:
        return np.floor(np.sqrt(values))  # qlint: disable=QL044 (squash carrier)
    top = int(values.max(initial=0)).bit_length()
    bit = 1 << (2 * ((top - 1) // 2)) if top else 0
    rest = values.copy()
    root = np.zeros_like(values)
    while bit:
        trial = root + bit
        fits = rest >= trial
        rest = np.where(fits, rest - trial, rest)
        root = np.where(fits, (root >> 1) + bit, root >> 1)
        bit >>= 2
    return root


def squash_codes(
    codes: np.ndarray,
    fractional_bits: int,
    axis: int = -1,
    carrier: Optional[str] = None,
    scale_carrier: Optional[str] = None,
    out_dtype: np.dtype = np.dtype(np.int64),
) -> np.ndarray:
    """Integer squash (Eq. 2) of capsule codes in a ⟨QI.QF⟩ format.

    ``codes`` must already lie in the format (:func:`int_squash` clips
    them).  With ``QF = fractional_bits`` the datapath is

    * ``N2 = Σ c²`` over ``axis`` (grid ``2^-2QF``);
    * ``ratio = ⌊N2 · 2^QF / (2^2QF + N2)⌋``, i.e. ``‖s‖²/(1+‖s‖²)`` at
      QF bits;
    * ``norm = isqrt(N2)`` (grid ``2^-QF``);
    * ``v = c · ratio / norm`` truncated toward zero (0 where ``norm``
      is 0, which forces every ``c`` of the capsule to 0).

    Each output satisfies ``|v| <= ratio < 2^QF`` (``c² <= N2``), so it
    fits the format without saturation, and any ``out_dtype`` of at
    least ``QF + 1`` bits holds it: the result is written once, as
    ``out_dtype``.  It is bit-identical to
    :func:`repro.hw.fixed_ref.fixed_squash`.

    The datapath is split by size.  The capsule stage (``N2``,
    ``ratio``, ``norm``: one value per capsule) runs on ``carrier``;
    ``N2`` is summed on integers (squares of int8/int16 codes in int32,
    wider codes in int64, summed in int64) and only the per-capsule sum
    moves to the carrier.  The full-size scale stage (``v``) runs on
    ``scale_carrier``, or on ``carrier`` when that is ``None``.

    ``carrier`` is the plan op's carrier.  ``"float64"`` is exact when
    ``B = caps_dim · int_max² · 2^QF < 2^52``
    (:func:`repro.analysis.lowering.squash_bound`).  ``B`` bounds
    ``N2 · 2^QF``, ``N2`` and ``|c| · ratio``, and it forces
    ``QF <= 17``, so the denominator ``2^2QF + N2`` stays below
    ``2^53`` too.  Then:

    * every product and sum is an integer below ``2^53``, so float64
      computes it exactly, in any order;
    * ``⌊fl(n/d)⌋ = ⌊n/d⌋`` for integers ``0 <= n < 2^53`` and
      ``d >= 1``.  An integer quotient is represented exactly.
      Otherwise ``n/d`` lies at least ``1/d`` below the next integer,
      and the rounding error is at most ``(n/d) · 2^-53 < 1/d``, so
      ``fl(n/d)`` cannot reach it.  Rounding is sign-symmetric, so
      truncation toward zero is exact the same way;
    * ``⌊fl(√n)⌋ = isqrt(n)`` for integers ``n < 2^52``.  With
      ``r = isqrt(n) < 2^26``, ``√n <= √((r+1)² - 1)`` lies more than
      ``1/(2(r+1))`` below ``r + 1``, while the rounding error is below
      ``(r+1) · 2^-53 <= 1/(2(r+1))``.

    ``scale_carrier`` ``"float32"`` is exact when, with ``W`` the
    operand wordlength, ``2^(W-1) · (2^QF - 1) < 2^24`` and every
    ``norm < 2^24``
    (:func:`repro.analysis.lowering.choose_squash_scale_carrier`).
    The argument is the float64 one with ``2^24`` in place of
    ``2^53``: ``c``, ``ratio < 2^QF`` and ``norm`` are integers below
    ``2^24``, so float32 holds them and the product
    ``|c · ratio| <= 2^(W-1) · (2^QF - 1)`` exactly; and for
    ``|n| < 2^24`` the rounding error of ``fl(n/d)`` is at most
    ``(|n|/d) · 2^-24 < 1/d``, so truncating it gives ``trunc(n/d)``.

    Without a carrier (``None``: plans saved before squash carriers, or
    ``B >= 2^52``) the capsule stage runs on int64 with ``//`` and the
    integer-only :func:`_isqrt`, and so does the scale stage unless
    ``scale_carrier`` names a float.
    """
    qf = fractional_bits
    codes = np.asarray(codes)
    square = np.int32 if codes.dtype.itemsize <= 2 else np.int64
    norm2 = carrier_cast(
        np.square(codes, dtype=square).sum(
            axis=axis, keepdims=True, dtype=np.int64
        ),
        carrier,
    )
    ratio = _floor_div(norm2 * (1 << qf), norm2 + (1 << (2 * qf)), carrier)
    norm = np.maximum(_isqrt(norm2, carrier), 1)
    scale = scale_carrier or carrier
    c = carrier_cast(codes, scale)
    ratio = carrier_cast(ratio, scale)
    # In place on a carrier copy; the int64 route may alias ``codes``.
    numerator = c * ratio if c is codes else np.multiply(c, ratio, out=c)
    return _trunc_div(numerator, carrier_cast(norm, scale), scale, out_dtype)


def int_squash(
    codes: np.ndarray,
    rescale,
    approx,
    axis: int = -1,
    gen: Optional[np.random.Generator] = None,
    carrier: Optional[str] = None,
    scale_carrier: Optional[str] = None,
) -> np.ndarray:
    """Certified squash: operand rescale onto the op format, then the
    integer datapath :func:`squash_codes` on the op's ``carrier`` and
    ``scale_carrier``.  Output codes live on grid ``2^operand_exp``,
    stored at ``QF + 1`` bits (:func:`storage_dtype`), which hold every
    output; the clipped operand is stored at its format's wordlength."""
    fmt_op = FixedPointFormat(approx.integer_bits, approx.operand_bits)
    operand = shift_round(codes, rescale.shift, rescale.rounding, gen=gen)
    operand = np.clip(
        operand, fmt_op.int_min, fmt_op.int_max,
        out=np.empty(operand.shape, storage_dtype(fmt_op.wordlength)),
    )
    return squash_codes(
        operand, fmt_op.fractional_bits, axis=axis, carrier=carrier,
        scale_carrier=scale_carrier,
        out_dtype=storage_dtype(fmt_op.fractional_bits + 1),
    )


def _softmax_formats(
    approx, integer_bits: int
) -> Tuple[FixedPointFormat, FixedPointFormat]:
    """(logit hook format, max-subtracted LUT operand format) of a
    lut-softmax op."""
    qdr = int(approx.tables.get("logit_bits", approx.operand_bits))
    return (
        FixedPointFormat(integer_bits, qdr),
        FixedPointFormat(approx.integer_bits, approx.operand_bits),
    )


#: Exclusive bound of the int32 softmax datapath.
_INT32_LIMIT = 2 ** 31


def softmax_table(approx, integer_bits: int) -> np.ndarray:
    """The exponential ROM of a lut-softmax op, cast to the op's work
    dtype: int32 when :func:`int_softmax`'s bound holds for the ROM
    format and the op's ``num_inputs``, int64 otherwise.  Bound models
    build it once, at ``bind()``."""
    fmt_logits, fmt_sub = _softmax_formats(approx, integer_bits)
    table, rom = exp_lut(fmt_sub)
    count = int(approx.tables.get("num_inputs", 2))
    fits = (
        rom.int_max << fmt_sub.fractional_bits < _INT32_LIMIT
        and count * rom.int_max < _INT32_LIMIT
        and fmt_logits.wordlength < 31
    )
    return table.astype(np.int32 if fits else np.int64)


def int_softmax(
    codes: np.ndarray, approx, integer_bits: int, table: np.ndarray
) -> np.ndarray:
    """Certified routing softmax over the last axis.

    Logit codes are clipped into the hook format, max-subtracted
    (exact; logits and the subtraction format share one grid by
    construction — see the qlower softmax derivation) and pushed
    through the exponential ROM ``table``
    (:func:`softmax_table`): ``e = table[c]``, ``total = Σ e`` and
    ``out = (e << QF) // max(total, 1)``, as
    :func:`repro.hw.fixed_ref.fixed_softmax` computes, bit for bit.
    The two ``saturate`` calls are the datapath's sanitizer hooks.

    Everything runs in the ROM's dtype.  int32 is exact when, with
    ``T`` the ROM format's ``int_max`` and ``J`` the op's
    ``num_inputs`` (at least the axis length):

    * ``T · 2^QF < 2^31``: every entry is at most ``T``, so
      ``e << QF`` fits;
    * ``J · T < 2^31``: the sum of at most ``J`` entries fits;
    * the logit format is narrower than 31 bits, so ``c - max(c)``
      fits.

    Otherwise :func:`softmax_table` keeps the ROM int64, where the
    plan's accumulator bound holds.  The max and the sum fold the short
    capsule axis slice by slice (:func:`repro.autograd.ops_nn
    .axis_fold`); both are exact in any order.
    """
    fmt_logits, fmt_sub = _softmax_formats(approx, integer_bits)
    if codes.shape[-1] > int(approx.tables.get("num_inputs", 2)):
        raise ValueError(
            f"softmax over {codes.shape[-1]} inputs exceeds the op's "
            f"num_inputs"
        )
    logits = np.clip(
        codes, fmt_logits.int_min, fmt_logits.int_max,
        out=np.empty(codes.shape, table.dtype),
    )
    logits -= axis_fold(logits, -1, np.maximum)
    index = np.subtract(
        saturate(logits, fmt_sub), fmt_sub.int_min, dtype=np.intp
    )
    exps = table[index]
    total = axis_fold(exps, -1, np.add)
    np.maximum(total, 1, out=total)
    exps <<= fmt_sub.fractional_bits
    exps //= total
    return saturate(exps, fmt_sub)


def int_capsule_predictions(codes: np.ndarray) -> np.ndarray:
    """Class prediction from capsule codes ``(B, J, D)``: squared-norm
    argmax (monotone in capsule length, so it matches the float path's
    length argmax)."""
    c = np.asarray(codes, np.int64)
    return (c * c).sum(axis=-1).argmax(axis=-1).astype(np.int64)


def int_logit_predictions(codes: np.ndarray) -> np.ndarray:
    """Class prediction from logit codes ``(B, J)``."""
    return np.asarray(codes).argmax(axis=-1).astype(np.int64)
