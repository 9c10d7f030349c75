"""Bit-accurate integer reference implementations of fixed-point ops.

The Q-CapsNets search simulates quantization in floating point ("fake
quantization": snap to the grid, keep floats).  A deployed accelerator
computes with the raw two's-complement codes instead.  This module
implements the datapath ops — multiply, add, squash, softmax — directly
on integer codes, so the test suite can verify that the float
simulation and the integer hardware agree bit-for-bit (exactly for
mul/add, within documented bounds for the iterative/LUT ops).

Conventions: codes are ``int64`` arrays; a code ``c`` in format ⟨QI.QF⟩
represents the value ``c · 2^-QF``.  All ops saturate, as hardware
datapaths do.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.lint.sanitizer import active_sanitizer
from repro.quant.fixed_point import FixedPointFormat


def saturate(codes: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
    """Clamp integer codes into the representable range of ``fmt``."""
    sanitizer = active_sanitizer()
    if sanitizer is not None:
        sanitizer.record_saturation(codes, fmt.int_min, fmt.int_max)
    return np.clip(codes, fmt.int_min, fmt.int_max)


def fixed_add(
    a: np.ndarray, b: np.ndarray, fmt: FixedPointFormat
) -> np.ndarray:
    """Saturating addition of two code arrays in the same format."""
    return saturate(np.asarray(a, np.int64) + np.asarray(b, np.int64), fmt)


def fixed_mul(
    a: np.ndarray,
    b: np.ndarray,
    fmt: FixedPointFormat,
    out_fmt: FixedPointFormat | None = None,
) -> np.ndarray:
    """Saturating multiplication with truncating rescale.

    The 2N-bit product has 2·QF fractional bits; shifting right by QF
    (an arithmetic shift = floor = the TRN rounding scheme) returns to
    the working format.
    """
    out_fmt = out_fmt if out_fmt is not None else fmt
    product = np.asarray(a, np.int64) * np.asarray(b, np.int64)
    shift = fmt.fractional_bits + fmt.fractional_bits - out_fmt.fractional_bits
    if shift < 0:
        raise ValueError("output format has more fractional bits than the product")
    return saturate(product >> shift, out_fmt)


def int_sqrt(values: np.ndarray) -> np.ndarray:
    """Exact elementwise floor-integer square root of non-negative int64."""
    values = np.asarray(values, np.int64)
    if (values < 0).any():
        raise ValueError("int_sqrt requires non-negative inputs")
    roots = np.floor(np.sqrt(values.astype(np.float64))).astype(np.int64)
    # Float sqrt can be off by one for large inputs; correct both ways.
    # The upward check divides instead of squaring: (roots + 1)² wraps
    # int64 once roots reaches 3037000499 (inputs from 3037000499² on).
    roots = np.where(roots * roots > values, roots - 1, roots)
    nxt = roots + 1
    roots = np.where(nxt <= values // nxt, nxt, roots)
    return roots


def fixed_squash(
    codes: np.ndarray, fmt: FixedPointFormat, axis: int = -1
) -> np.ndarray:
    """Integer-only squash (Eq. 2) on capsule codes.

    Computes ``v = s · ||s||² / ((1 + ||s||²) · ||s||)`` entirely with
    integer multiplies, adds, shifts and an integer square root:

    * ``N2 = Σ c²`` carries 2·QF fractional bits;
    * ``ratio = N2 / (2^2QF + N2)`` is produced at QF bits by one
      integer division (hardware: Newton-Raphson reciprocal);
    * ``norm = isqrt(N2)`` carries QF fractional bits;
    * ``v = (c · ratio) / norm`` lands back at QF bits.

    The result matches the float squash quantized to ``fmt`` within a
    few ULPs (division truncation replaces the float path's rounding).
    """
    codes = saturate(np.asarray(codes, np.int64), fmt)
    qf = fmt.fractional_bits
    moved = np.moveaxis(codes, axis, -1)

    norm2 = (moved * moved).sum(axis=-1, keepdims=True)  # scale 2^-2qf
    one = np.int64(1) << (2 * qf)
    denominator = one + norm2
    # ratio = n²/(1+n²) at qf bits (floor division = truncation).
    ratio = (norm2 << qf) // denominator
    norm_codes = int_sqrt(norm2)  # sqrt(N2·2^-2qf) = isqrt(N2)·2^-qf

    scaled = moved * ratio  # scale 2^-2qf
    with np.errstate(divide="ignore"):
        result = np.where(
            norm_codes > 0,
            # Truncating division keeps signs symmetric.
            _signed_div(scaled, norm_codes),  # scale 2^-qf
            0,
        )
    result = saturate(result, fmt)
    return np.moveaxis(result, -1, axis)


def _signed_div(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Truncating (round-toward-zero) integer division, vectorized."""
    quotient = np.abs(numerator) // np.abs(denominator)
    return np.sign(numerator) * np.sign(denominator) * quotient


def exp_lut(fmt: FixedPointFormat, guard_bits: int = 2) -> Tuple[np.ndarray, FixedPointFormat]:
    """Exponential lookup table over every representable input code.

    Returns ``(table, out_fmt)`` where ``table[c - int_min]`` holds the
    output code of ``exp(c · 2^-QF)`` in a widened format with
    ``guard_bits`` extra integer bits (``e^1 ≈ 2.72`` overflows ⟨1.QF⟩).
    In hardware this is a ROM indexed by the input code.
    """
    if fmt.wordlength > 16:
        raise ValueError(f"LUT for {fmt} would need 2^{fmt.wordlength} entries")
    out_fmt = FixedPointFormat(fmt.integer_bits + guard_bits, fmt.fractional_bits)
    codes = np.arange(fmt.int_min, fmt.int_max + 1, dtype=np.int64)
    values = np.exp(codes.astype(np.float64) * fmt.eps)  # qlint: disable=QL044 (bind-time ROM build)
    table = np.clip(
        np.floor(values * 2.0**out_fmt.fractional_bits).astype(np.int64),
        out_fmt.int_min,
        out_fmt.int_max,
    )
    return table, out_fmt


def fixed_softmax(
    codes: np.ndarray, fmt: FixedPointFormat, axis: int = -1
) -> np.ndarray:
    """Integer-only softmax (Eq. 1) on logit codes.

    Exponentials come from a ROM (:func:`exp_lut`), the sum is an
    integer accumulation, and the normalization is one integer division
    per element (hardware: shared Newton-Raphson reciprocal).  Outputs
    are coupling-coefficient codes in ``fmt`` (values in [0, 1), so the
    1-integer-bit format always suffices).
    """
    codes = saturate(np.asarray(codes, np.int64), fmt)
    table, _ = exp_lut(fmt)
    moved = np.moveaxis(codes, axis, -1)
    exps = table[moved - fmt.int_min]
    total = exps.sum(axis=-1, keepdims=True)
    qf = fmt.fractional_bits
    result = (exps << qf) // np.maximum(total, 1)
    result = saturate(result, fmt)
    return np.moveaxis(result, -1, axis)
