"""Inference plans — snapshotted, resumable evaluation state per config.

An :class:`InferencePlan` is the unit of work of the search evaluator
(:class:`~repro.framework.evaluate.Evaluator`): everything needed to
evaluate one quantization configuration over the test split, advanced
one batch at a time.  A plan lives only while its evaluation is
incomplete; the evaluator drops it — and with it the pre-quantized
weights — once the last batch has run.  Two properties make
partial evaluations composable with exact (bit-identical) results:

* **Snapshot isolation.**  The plan quantizes with a
  :class:`~repro.quant.qcontext.FixedPointQuant` context, which clones
  the configuration at construction.  The search algorithms mutate
  configs in place between probes; a plan created for a config can never
  be desynchronized by those later mutations, and the pre-quantized
  weight tensors held in the context's cache always correspond to the
  wordlengths the plan reports.
* **Stream privacy.**  Stochastic rounding draws from an RNG; the plan
  owns a private scheme instance seeded exactly as a monolithic
  evaluation would be.  Batches are consumed strictly in dataset order,
  so a plan advanced ``k`` batches now and finished later has consumed
  the same random stream — and produced the same predictions — as one
  uninterrupted full pass, even when evaluations of other configurations
  ran in between.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.quant.config import QuantizationConfig
from repro.quant.qcontext import FixedPointQuant
from repro.quant.rounding import RoundingScheme, StochasticRounding


def config_signature(config: QuantizationConfig) -> Tuple:
    """Hashable identity of a configuration (for memoization)."""
    return (
        config.integer_bits,
        tuple(config.qw_vector()),
        tuple(config.qa_vector()),
        tuple(config.qdr_vector()),
    )


def floor_threshold(floor: float, total: int) -> int:
    """Minimum correct count whose accuracy meets ``floor``.

    Returns the smallest integer ``c`` with
    ``100.0 * c / total >= floor`` under float arithmetic — the same
    comparison made on a full-split accuracy — or ``total + 1`` when no
    count satisfies the floor (accuracy floors above 100% are
    unreachable by construction).
    """
    if total <= 0:
        raise ValueError(f"total must be positive, got {total}")
    if floor <= 0.0:
        return 0
    guess = int(math.ceil(floor * total / 100.0))
    guess = min(max(guess, 0), total + 1)
    # Float rounding in ceil() can land one step off either way; settle
    # on the exact boundary of the float comparison itself.
    while guess > 0 and 100.0 * (guess - 1) / total >= floor:
        guess -= 1
    while guess <= total and 100.0 * guess / total < floor:
        guess += 1
    return guess


class InferencePlan:
    """Resumable evaluation state for one quantization configuration.

    Parameters
    ----------
    config:
        Configuration to evaluate (snapshotted; later caller mutations
        are invisible to the plan).
    scheme:
        Rounding scheme.  Stochastic rounding is replaced by a private
        instance so interleaved evaluations of other plans cannot
        perturb this plan's random stream.
    seed:
        Seed for the (private) stochastic-rounding stream.
    scales:
        Calibrated power-of-two pre-scaling factors (see
        :mod:`repro.quant.calibrate`).
    """

    def __init__(
        self,
        config: QuantizationConfig,
        scheme: RoundingScheme,
        seed: int = 0,
        scales: Optional[Dict[str, float]] = None,
    ):
        if isinstance(scheme, StochasticRounding):
            scheme = StochasticRounding(seed=seed)
        self.context = FixedPointQuant(config, scheme, seed=seed, scales=scales)
        self.context.reset()
        #: The snapshotted configuration the plan evaluates.
        self.config = self.context.config
        #: Correct predictions over the batches consumed so far.
        self.correct = 0
        #: Samples consumed so far (in dataset order).
        self.samples_seen = 0
        #: Index of the next batch to consume.
        self.next_batch = 0

    def record_batch(self, correct: int, samples: int) -> None:
        """Account one consumed batch (evaluator-internal)."""
        self.correct += correct
        self.samples_seen += samples
        self.next_batch += 1
