"""Quantized-accuracy evaluation — the ``test(quant(model, ...))``
primitive of the paper's Algorithms 1-3.

The search loops mostly ask whether a candidate configuration's
accuracy clears a fixed floor; they rarely need the accuracy itself.
The :class:`Evaluator` owns the trained model and the test split and
serves both queries batch by batch:

* :meth:`Evaluator.meets_floor` — the floor verdict, with an **exact
  early exit**: batches stop as soon as accumulated correct predictions
  reach the floor (success) or the remaining samples cannot reach it
  (failure).  The verdict is precisely ``accuracy(config) >= floor`` for
  the full-split accuracy, never an approximation.
* :meth:`Evaluator.accuracy` — the exact full-split accuracy, resuming
  any partial progress an earlier verdict left behind.

Partial progress lives in an :class:`~repro.engine.plan.InferencePlan`
per configuration, in a bounded LRU of :data:`MAX_PLANS` *incomplete*
plans.  A configuration whose last batch has run moves its exact
accuracy into one memo and drops its plan (releasing its pre-quantized
weights): the greedy searches revisit configurations (e.g. the +1
restore step of Algorithm 2), and stochastic rounding is seeded per
plan, so accuracy is a pure function of (config, scheme) and the memo
is exact.

Every batch runs through a :class:`~repro.engine.StagedExecutor`, which
resumes it from the deepest cross-config prefix activation it has
cached (bit-identical results; see :mod:`repro.engine.staged`).
``prefix_cache_bytes=0`` turns that cache off: every stage then runs on
every batch.
"""

from __future__ import annotations

import weakref
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.engine import (
    DEFAULT_PREFIX_CACHE_BYTES,
    InferencePlan,
    StagedExecutor,
    config_signature,
    floor_threshold,
)
from repro.nn.module import Module
from repro.nn.trainer import default_predictions
from repro.quant.calibrate import calibrate_scales
from repro.quant.config import QuantizationConfig
from repro.quant.qcontext import FixedPointQuant
from repro.quant.rounding import RoundingScheme, get_rounding_scheme

__all__ = ["Evaluator", "MAX_PLANS", "config_signature"]

#: Bound on retained incomplete plans (each holds pre-quantized
#: weights).  The search loops have high config locality, so a small
#: bound suffices.  Eviction is least-recently-used and only costs time:
#: a re-created plan replays from batch 0 with an identical stream.
MAX_PLANS = 16

#: (id(images), id(labels), batch_size) -> (weakrefs, token).  Sweeps
#: build one evaluator per scheme/budget over the *same* arrays; the
#: memo pays the O(dataset-bytes) CRC once per split instead of once
#: per evaluator.  Hits are validated by object identity through the
#: weakrefs, so a recycled id can never serve a stale token.
_split_token_memo: Dict[Tuple, Tuple] = {}
_SPLIT_TOKEN_MEMO_MAX = 64


def _split_token(
    images: np.ndarray, labels: np.ndarray, batch_size: int
) -> Tuple:
    """Content identity of an evaluation split at a given batch size.

    Namespaces batch indices inside a shared prefix cache: two
    evaluators share entries only when their data, batch shapes *and*
    batch boundaries coincide.  A CRC over the raw bytes keeps the
    token content-based, so re-generated but identical splits still
    share; the hash is memoized per array object (see above).
    """
    key = (id(images), id(labels), batch_size)
    memoized = _split_token_memo.get(key)
    if memoized is not None:
        images_ref, labels_ref, token = memoized
        if images_ref() is images and labels_ref() is labels:
            return token
    token = (
        images.shape,
        images.dtype.str,
        labels.dtype.str,
        batch_size,
        zlib.crc32(np.ascontiguousarray(images).tobytes()),
        zlib.crc32(np.ascontiguousarray(labels).tobytes()),
    )
    try:
        if len(_split_token_memo) >= _SPLIT_TOKEN_MEMO_MAX:
            _split_token_memo.clear()
        _split_token_memo[key] = (
            weakref.ref(images), weakref.ref(labels), token
        )
    except TypeError:  # non-weakrefable array subclass: skip the memo
        pass
    return token


class Evaluator:
    """Accuracy oracle for quantization configurations.

    Parameters
    ----------
    model:
        Trained model exposing a ``stages()`` decomposition (assumed
        frozen while plans are live — they cache quantized weights).
        A model without one raises ``TypeError``.
    images, labels:
        Test split; every plan consumes it in the same batch order.
    scheme:
        Rounding scheme applied to every array (stochastic rounding is
        re-instantiated per plan; see :class:`InferencePlan`).
    batch_size:
        Evaluation batch size — also the early-exit granularity.
    seed:
        Seed of every plan's stochastic-rounding stream.
    prefix_cache_bytes:
        Byte cap of the prefix-activation cache of the executor this
        evaluator builds; ``0`` stores nothing.  Ignored when
        ``staged_executor`` is given.
    staged_executor:
        Pass a prebuilt :class:`~repro.engine.StagedExecutor` over the
        same model instance to share its prefix cache with sibling
        evaluators (the per-scheme frameworks of the selection sweep, a
        budget grid).  Results are bit-identical with or without
        sharing — the scheme-aware fingerprints decide what may be
        reused.
    scales:
        Precomputed calibration scales — skips the calibration forward
        pass entirely (by default the test images calibrate the
        per-array power-of-two pre-scaling; see
        :mod:`repro.quant.calibrate`).  Calibration is scheme-independent,
        so sibling per-scheme evaluators over one model/split (a session,
        a scheme sweep) can share one dict instead of each re-measuring
        it.
    """

    def __init__(
        self,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        scheme: RoundingScheme,
        batch_size: int = 128,
        seed: int = 0,
        prefix_cache_bytes: int = DEFAULT_PREFIX_CACHE_BYTES,
        staged_executor: Optional[StagedExecutor] = None,
        scales: Optional[Dict[str, float]] = None,
    ):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.total = int(labels.shape[0])
        if self.total == 0:
            raise ValueError("cannot evaluate on an empty split")
        if staged_executor is None:
            staged_executor = StagedExecutor(model, max_bytes=prefix_cache_bytes)
        elif staged_executor.model is not model:
            raise ValueError(
                "shared StagedExecutor wraps a different model instance; "
                "prefix activations would be meaningless for this evaluator"
            )
        #: Staged prefix-reuse executor, possibly shared with sibling
        #: evaluators over the same model.
        self.executor = staged_executor
        self.model = model
        self.images = images
        self.labels = labels
        self.scheme = scheme
        self.batch_size = batch_size
        self.seed = seed
        #: Batches in one full pass over the split.
        self.num_batches = -(-self.total // batch_size)
        #: Content identity of (split, batch size) — namespaces this
        #: evaluator's batch indices inside a (possibly shared) prefix
        #: cache so equal indices of different splits never collide.
        self.split = _split_token(images, labels, batch_size)
        #: Configurations evaluated over the full split (memo misses).
        self.eval_count = 0
        #: Batches actually run through the model.
        self.batches_evaluated = 0
        self._cache: Dict[Tuple, float] = {}
        self._plans: "OrderedDict[Tuple, InferencePlan]" = OrderedDict()
        self._fp32_accuracy: Optional[float] = None
        if scales is None:
            scales = calibrate_scales(model, images, batch_size=batch_size)
        self.scales = scales

    @classmethod
    def from_spec(
        cls,
        spec,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        scheme=None,
        staged_executor: Optional[StagedExecutor] = None,
        scales: Optional[Dict[str, float]] = None,
    ) -> "Evaluator":
        """Construct from a declarative :class:`repro.api.QuantSpec`.

        ``spec`` supplies ``batch_size``, ``seed`` and the
        prefix-cache byte budget (``cache_bytes``); ``scheme`` defaults
        to the spec's first scheme and may be a name or an instance.
        ``staged_executor`` injects a session-shared prefix cache and
        ``scales`` a session-shared calibration result.
        """
        if scheme is None:
            scheme = spec.schemes[0]
        if isinstance(scheme, str):
            scheme = get_rounding_scheme(scheme, seed=spec.seed)
        return cls(
            model,
            images,
            labels,
            scheme,
            batch_size=spec.batch_size,
            seed=spec.seed,
            prefix_cache_bytes=spec.cache_bytes,
            staged_executor=staged_executor,
            scales=scales,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def accuracy_fp32(self) -> float:
        """Full-precision accuracy (the paper's ``accFP32``), memoized.

        The pass runs as an all-FP32 configuration (identity
        quantization hooks).  Its prefix-cache entries are
        *scheme-free*, so when several per-scheme evaluators share one
        staged executor, every branch after the first resumes the whole
        baseline pass from the cache — the cross-scheme sharing the
        Sec. III-B sweep exploits.  It counts its batches but not as an
        ``eval_count`` evaluation.
        """
        if self._fp32_accuracy is None:
            config = QuantizationConfig.uniform(list(self.model.quant_layers))
            plan = self._consume(config_signature(config), config)
            self._fp32_accuracy = 100.0 * plan.correct / self.total
        return self._fp32_accuracy

    def accuracy(self, config: QuantizationConfig) -> float:
        """Exact accuracy (%) of the model quantized with ``config``."""
        key = config_signature(config)
        value = self._cache.get(key)
        if value is None:
            value = self._memoize(key, self._consume(key, config))
        return value

    def meets_floor(self, config: QuantizationConfig, floor: float) -> bool:
        """Exactly ``accuracy(config) >= floor``, early-exiting batches.

        Runs batches only until the verdict is decided; the partial
        progress stays in the config's plan, so a later
        :meth:`accuracy` call resumes instead of restarting.
        """
        key = config_signature(config)
        value = self._cache.get(key)
        if value is not None:
            return value >= floor
        threshold = floor_threshold(floor, self.total)
        plan = self._consume(key, config, threshold)
        if plan.samples_seen == self.total:
            # A verdict near the floor can consume the whole split; keep
            # the exact accuracy that fell out.
            self._memoize(key, plan)
        return plan.correct >= threshold

    def quant_context(
        self, config: QuantizationConfig, seed: Optional[int] = None
    ) -> FixedPointQuant:
        """Build a ready-to-use context for external inference runs."""
        context = FixedPointQuant(
            config,
            self.scheme,
            seed=self.seed if seed is None else seed,
            scales=self.scales,
        )
        context.reset()
        return context

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def _memoize(self, key: Tuple, plan: InferencePlan) -> float:
        value = 100.0 * plan.correct / self.total
        self._cache[key] = value
        self.eval_count += 1
        return value

    def _consume(
        self,
        key: Tuple,
        config: QuantizationConfig,
        threshold: Optional[int] = None,
    ) -> InferencePlan:
        """Advance ``config``'s plan until ``plan.correct >= threshold``
        is decided — or, without a threshold, to the end of the split.

        A plan that reaches the end is dropped from the LRU before it is
        returned, releasing its pre-quantized weights.
        """
        plan = self._plans.get(key)
        if plan is None:
            plan = InferencePlan(
                config, self.scheme, seed=self.seed, scales=self.scales
            )
            self._plans[key] = plan
            while len(self._plans) > MAX_PLANS:
                self._plans.popitem(last=False)
        else:
            self._plans.move_to_end(key)

        def undecided() -> bool:
            unseen = self.total - plan.samples_seen
            if threshold is None:
                return unseen > 0
            # Success once the correct count reaches the threshold;
            # failure once the unseen samples cannot lift it there.
            return plan.correct < threshold <= plan.correct + unseen

        with self._inference_mode():
            while undecided():
                self._advance(plan)
        if plan.samples_seen == self.total:
            del self._plans[key]
        return plan

    @contextmanager
    def _inference_mode(self):
        """Eval mode for a whole query, restored afterwards (hoisted out
        of the per-batch path — mode toggles walk every module)."""
        was_training = self.model.training
        self.model.eval()
        try:
            yield
        finally:
            if was_training:
                self.model.train()

    def _advance(self, plan: InferencePlan) -> None:
        """Run the plan's next batch through the executor (caller holds
        :meth:`_inference_mode`)."""
        start = plan.next_batch * self.batch_size
        stop = min(start + self.batch_size, self.total)
        with no_grad():
            outputs = self.executor.run(
                plan.next_batch, Tensor(self.images[start:stop]),
                plan.context, split=self.split,
            )
            predictions = default_predictions(outputs)
        correct = int((predictions == self.labels[start:stop]).sum())
        plan.record_batch(correct, stop - start)
        self.batches_evaluated += 1
