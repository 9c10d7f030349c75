"""Rounding schemes (paper Sec. II-B).

Each scheme maps real values onto the grid of a
:class:`~repro.quant.fixed_point.FixedPointFormat`:

* **Truncation (TRN)** — drop the extra fractional digits:
  ``xq = floor(x / eps) * eps``.  For uniformly distributed inputs this
  introduces a negative average error (bias) of ``-eps/2``.
* **Round-to-nearest (RTN)** — half-up rule of the paper's Eq. 3:
  ``xq = floor(x/eps + 1/2) * eps``.  Bias is ``+eps/2 · P(half-way)``,
  negligible for continuous inputs.
* **Round-to-nearest-even (RTNE)** — IEEE-style tie-to-even, listed in
  the paper's scheme-selection order (Sec. III-B).
* **Stochastic rounding (SR)** — Eq. 4: round up with probability equal
  to the fractional residue.  Unbiased (``E[xq] = x``) but requires a
  hardware random-number generator; the paper ranks it the most complex.

All schemes saturate out-of-range values to the format's min/max, as a
fixed-point hardware datapath would.

Carrier dtype
-------------
:meth:`RoundingScheme.apply` rounds in a private scratch buffer, the
*carrier*.  It is float32 when the input is float32 and the format's
wordlength is at most :data:`FLOAT32_CARRIER_MAX_WORDLENGTH` (23), and
float64 otherwise.  Both carriers give bit-identical outputs:

* ``y = x · 2^QF`` is exact in float32 (a power-of-two scale of a
  float32), and so is every floor, ``rint`` and every clipped code
  (``|code| ≤ 2^22``) and its rescale.  Where a pre-clip code differs
  between carriers, ``|y| ≥ 2^23`` (or ``y`` overflowed to ±inf), so
  the code saturates to the same bound either way.
* Two steps are *not* exact in float32: RTN's ``y + 1/2``, whose floor
  differs from float64 arithmetic for a single input that is pinned
  first (see :class:`RoundToNearest`), and SR's residue ``y − floor(y)``,
  which is always taken in float64 (see :class:`StochasticRounding`).

The SR draw stream is the same on both carriers.  The narrower scratch
buffer halves the memory traffic of the hottest kernel of every
quantized forward.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

import numpy as np

from repro.lint.sanitizer import active_sanitizer
from repro.quant.fixed_point import FixedPointFormat

#: Widest format rounded on a float32 carrier: its clipped codes satisfy
#: ``|code| ≤ 2^22``, so a float32 ``y`` whose rounding could differ from
#: float64 arithmetic (``|y| ≥ 2^23``) saturates on both carriers.
FLOAT32_CARRIER_MAX_WORDLENGTH = 23

#: ``0.5 − 2^-25``, the largest float32 below one half (see
#: :class:`RoundToNearest`).
_F32_BELOW_HALF = np.nextafter(np.float32(0.5), np.float32(0.0))


def carrier_dtype(dtype: np.dtype, fmt: FixedPointFormat) -> type:
    """Scratch dtype :meth:`RoundingScheme.apply` rounds ``dtype`` in."""
    if dtype == np.float32 and fmt.wordlength <= FLOAT32_CARRIER_MAX_WORDLENGTH:
        return np.float32
    return np.float64


class RoundingScheme:
    """Base class: subclasses implement :meth:`_round_codes`.

    The public entry point :meth:`apply` scales values to integer codes,
    delegates the rounding decision, saturates, and scales back.
    """

    #: Short identifier used in configs, result tables and the registry.
    name: str = "base"
    #: Relative hardware-complexity rank used by the paper's selection
    #: criteria (lower = simpler; TRN < RTN ≈ RTNE < SR).
    complexity: int = 0

    def _round_codes(self, scaled: np.ndarray) -> np.ndarray:
        """Map real-valued integer-grid coordinates to integer codes.

        ``scaled`` is a float32 or float64 scratch buffer (the carrier)
        owned by the caller; implementations may round in place and
        return it (every caller passes a freshly allocated array).  The
        returned codes keep the carrier dtype.
        """
        raise NotImplementedError

    def apply(self, values: np.ndarray, fmt: FixedPointFormat) -> np.ndarray:
        """Quantize ``values`` onto the grid of ``fmt``; same shape/dtype.

        This is the hottest call of every quantized evaluation, so the
        scale → round → clip → rescale pipeline is fused onto a single
        scratch buffer: one allocation for the scratch plus the final
        dtype cast, instead of a fresh temporary per step.  The scratch
        is float32 for float32 inputs of at most 23-bit formats and
        float64 otherwise (see the module docstring for why both give
        the same bits).  Outputs are bit-identical to the unfused
        float64 pipeline.
        """
        values = np.asarray(values)
        scale = 2.0**fmt.fractional_bits
        work = carrier_dtype(values.dtype, fmt)
        scaled = np.multiply(values, scale, dtype=work)  # private scratch
        codes = self._round_codes(scaled)
        sanitizer = active_sanitizer()
        if sanitizer is not None:
            # Reads the pre-clip codes only: outputs stay bit-identical.
            sanitizer.record_rounding(codes, fmt.int_min, fmt.int_max)
        np.clip(codes, fmt.int_min, fmt.int_max, out=codes)
        codes /= scale
        return codes.astype(values.dtype, copy=False)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Truncation(RoundingScheme):
    """TRN — floor toward negative infinity (delete the LSBs)."""

    name = "TRN"
    complexity = 0

    def _round_codes(self, scaled: np.ndarray) -> np.ndarray:
        return np.floor(scaled, out=scaled)


class RoundToNearest(RoundingScheme):
    """RTN — round half-up (paper Eq. 3: ``xq = floor(x + eps/2)``).

    On a float32 carrier (``|y| < 2^23``) ``y + 1/2`` can round.
    Rounding is monotone and integers are representable, so ``floor``
    changes only if the sum rounds up onto the next integer.  That
    happens for exactly one input, ``y = 1/2 − 2^-25``, whose sum
    ``1 − 2^-25`` is a tie that rounds to the even neighbour 1.0 (an
    exhaustive check over every float32 with ``|y| < 2^23`` finds no
    other).  That input is pinned to 0 (same code) before the add.
    """

    name = "RTN"
    complexity = 1

    def _round_codes(self, scaled: np.ndarray) -> np.ndarray:
        if scaled.dtype == np.float32:
            tie = scaled == _F32_BELOW_HALF
            if np.count_nonzero(tie):  # cheaper per call than tie.any()
                scaled[tie] = 0.0
        scaled += 0.5
        return np.floor(scaled, out=scaled)


class RoundToNearestEven(RoundingScheme):
    """RTNE — round half to even (banker's rounding)."""

    name = "RTNE"
    complexity = 2

    def _round_codes(self, scaled: np.ndarray) -> np.ndarray:
        return np.rint(scaled, out=scaled)


class StochasticRounding(RoundingScheme):
    """SR — round up with probability equal to the fractional residue.

    Parameters
    ----------
    rng:
        Random generator; pass a seeded generator for reproducible
        experiments.  :meth:`reseed` restores a known stream before each
        evaluation so that search results are deterministic.
    """

    name = "SR"
    complexity = 3

    def __init__(self, rng: Optional[np.random.Generator] = None, seed: int = 0):
        self._seed = seed
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def reseed(self, seed: Optional[int] = None) -> None:
        """Reset the random stream (used before each quantized evaluation)."""
        self.rng = np.random.default_rng(self._seed if seed is None else seed)

    def get_state(self) -> dict:
        """Snapshot of the RNG stream position (a plain state dict).

        The prefix-reuse engine stores this at every stage boundary: a
        resumed evaluation restores it so downstream draws continue from
        exactly the position an uninterrupted run would have reached.
        """
        return self.rng.bit_generator.state

    def set_state(self, state: dict) -> None:
        """Restore a stream position captured by :meth:`get_state`."""
        self.rng.bit_generator.state = state

    def _round_codes(self, scaled: np.ndarray) -> np.ndarray:
        floor = np.floor(scaled)
        # The residue is always taken in float64: in float32, y − floor(y)
        # rounds for y ∈ (−1/2, 0) (e.g. 1 − 2^-30 becomes 1.0), which
        # would move the draw threshold.  A float64 carrier reuses its
        # scratch buffer.
        out = scaled if scaled.dtype == np.float64 else None
        residue = np.subtract(scaled, floor, out=out, dtype=np.float64)
        draws = self.rng.random(size=scaled.shape)
        floor += draws < residue
        return floor

    def __repr__(self) -> str:
        return f"StochasticRounding(seed={self._seed})"


#: Registry of scheme constructors keyed by paper name.
ROUNDING_SCHEMES: Dict[str, Type[RoundingScheme]] = {
    "TRN": Truncation,
    "RTN": RoundToNearest,
    "RTNE": RoundToNearestEven,
    "SR": StochasticRounding,
}


def get_rounding_scheme(name: str, seed: int = 0) -> RoundingScheme:
    """Instantiate a scheme by name (``TRN``/``RTN``/``RTNE``/``SR``)."""
    key = name.upper()
    if key not in ROUNDING_SCHEMES:
        raise KeyError(
            f"unknown rounding scheme '{name}'; "
            f"available: {sorted(ROUNDING_SCHEMES)}"
        )
    if key == "SR":
        return StochasticRounding(seed=seed)
    return ROUNDING_SCHEMES[key]()
