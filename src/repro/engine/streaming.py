"""Streaming accuracy evaluation with exact early exit.

Algorithm 1's search is dominated by full-test-set accuracy
measurements, yet almost every call site only needs the *verdict* of a
comparison against a fixed floor: the binary-search probes of Steps 1
and 3B, every trailing-layer decrement of Algorithm 2 and every routing
decrement of Algorithm 3 ask "does this config still meet ``acc_min``?"
and discard the number.  The :class:`StreamingEvaluator` answers those
questions batch by batch and stops as soon as the verdict is decided:

* **success exit** — accumulated correct predictions already reach the
  floor threshold; the remaining batches can only add to the count;
* **failure exit** — even if every remaining sample were correct the
  threshold would be missed.

Both exits are *exact*: :meth:`StreamingEvaluator.meets_floor` returns
precisely ``accuracy(config) >= floor`` for the full-split accuracy
(``100.0 * correct / total`` in float arithmetic, matching
:func:`repro.nn.trainer.evaluate_accuracy`), never an approximation.
Partial progress is kept per configuration in an
:class:`~repro.engine.plan.InferencePlan`, so a later exact
:meth:`accuracy` call — the framework still reports exact full-set
numbers for every packaged model — resumes from the batches already
consumed instead of restarting.
"""

from __future__ import annotations

import math
import weakref
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.engine.plan import InferencePlan, config_signature
from repro.engine.staged import DEFAULT_PREFIX_CACHE_BYTES, StagedExecutor
from repro.nn.module import Module
from repro.nn.trainer import default_predictions
from repro.quant.config import QuantizationConfig
from repro.quant.rounding import RoundingScheme


#: (id(images), id(labels), batch_size) -> (weakrefs, token).  Sweeps
#: build one evaluator per scheme/budget over the *same* arrays; the
#: memo pays the O(dataset-bytes) CRC once per split instead of once
#: per evaluator.  Hits are validated by object identity through the
#: weakrefs, so a recycled id can never serve a stale token.
_split_token_memo: Dict[Tuple, Tuple] = {}
_SPLIT_TOKEN_MEMO_MAX = 64


def split_token(
    images: np.ndarray, labels: np.ndarray, batch_size: int
) -> Tuple:
    """Content identity of an evaluation split at a given batch size.

    Used to namespace batch indices inside a shared prefix cache: two
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


def floor_threshold(floor: float, total: int) -> int:
    """Minimum correct count whose accuracy meets ``floor``.

    Returns the smallest integer ``c`` with
    ``100.0 * c / total >= floor`` under float arithmetic — the same
    comparison the naive path performs on a full-split accuracy — or
    ``total + 1`` when no count satisfies the floor (accuracy floors
    above 100% are unreachable by construction).
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


def floor_oracle(evaluator) -> Callable[[QuantizationConfig, float], bool]:
    """Adapt an evaluator into a ``meets(config, floor) -> bool`` callable.

    Uses the evaluator's early-exit :meth:`meets_floor` when it has one;
    otherwise falls back to comparing a full accuracy measurement, which
    keeps synthetic test oracles (and any third-party evaluator exposing
    only ``accuracy``) working unchanged.
    """
    meets = getattr(evaluator, "meets_floor", None)
    if meets is not None:
        return meets
    return lambda config, floor: evaluator.accuracy(config) >= floor


class StreamingEvaluator:
    """Batched inference engine over a fixed model and test split.

    Parameters
    ----------
    model:
        Trained model whose forward accepts ``q=`` (assumed frozen for
        the engine's lifetime — plans cache quantized weights).
    images, labels:
        Test split; every plan consumes it in the same batch order.
    scheme:
        Rounding scheme shared by all plans (stochastic rounding is
        re-instantiated per plan; see :class:`InferencePlan`).
    batch_size:
        Evaluation batch size — also the early-exit granularity.
    seed:
        Seed for per-plan stochastic-rounding streams.
    scales:
        Calibrated pre-scaling factors passed to every plan.
    max_plans:
        Bound on retained plans (an *incomplete* plan holds
        pre-quantized weights; completed plans release them).  The
        search loops have high config locality, so a small bound
        suffices.  Eviction is least-recently-used and only costs
        re-evaluation time: a re-created plan replays from batch 0
        with an identical stream, so results are unaffected.
    use_prefix_cache:
        Resume forward passes from cached cross-config prefix
        activations (default; requires the model to expose a
        ``stages()`` decomposition — models without one silently fall
        back to whole-model forwards).  ``False`` always runs the full
        forward, for A/B measurement — results are bit-identical either
        way (see :mod:`repro.engine.staged`).
    prefix_cache_bytes:
        Byte cap of the boundary-activation cache.
    executor:
        Pass a prebuilt :class:`StagedExecutor` to *share* its prefix
        cache with other evaluators over the same model (the per-scheme
        frameworks of the selection sweep, a budget grid).  Must wrap
        the same model instance; when given, ``use_prefix_cache`` /
        ``prefix_cache_bytes`` are ignored.  Results are bit-identical
        with or without sharing — the scheme-aware fingerprints decide
        what may be reused (see :mod:`repro.engine.staged`).
    """

    def __init__(
        self,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        scheme: RoundingScheme,
        batch_size: int = 128,
        seed: int = 0,
        scales: Optional[Dict[str, float]] = None,
        max_plans: int = 16,
        use_prefix_cache: bool = True,
        prefix_cache_bytes: int = DEFAULT_PREFIX_CACHE_BYTES,
        executor: Optional[StagedExecutor] = None,
    ):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if max_plans <= 0:
            raise ValueError(f"max_plans must be positive, got {max_plans}")
        if executor is not None and executor.model is not model:
            raise ValueError(
                "shared StagedExecutor wraps a different model instance; "
                "prefix activations would be meaningless for this evaluator"
            )
        self.model = model
        self.images = images
        self.labels = labels
        self.scheme = scheme
        self.batch_size = batch_size
        self.seed = seed
        self.scales = scales
        self.max_plans = max_plans
        self.total = int(labels.shape[0])
        if self.total == 0:
            raise ValueError("cannot evaluate on an empty split")
        self.num_batches = -(-self.total // batch_size)
        self._plans: "OrderedDict[tuple, InferencePlan]" = OrderedDict()
        #: Staged prefix-reuse executor (None when disabled or when the
        #: model has no stages() decomposition); possibly shared with
        #: other evaluators over the same model.
        if executor is not None:
            self.executor: Optional[StagedExecutor] = executor
        else:
            self.executor = (
                StagedExecutor(model, max_bytes=prefix_cache_bytes)
                if use_prefix_cache and callable(getattr(model, "stages", None))
                else None
            )
        #: Content identity of (split, batch size) — namespaces this
        #: evaluator's batch indices inside a (possibly shared) prefix
        #: cache so equal indices of different splits never collide.
        self.split_token: Optional[Tuple] = (
            split_token(images, labels, batch_size)
            if self.executor is not None
            else None
        )
        #: Batches actually run through the model (the bench metric).
        self.batches_evaluated = 0
        #: Configurations evaluated over the full split.
        self.full_runs = 0
        #: Floor verdicts decided before the split was exhausted.
        self.early_exits = 0

    def share_executor(self, executor: StagedExecutor) -> bool:
        """Adopt a shared prefix-reuse executor (e.g. one built by a
        sibling evaluator of a scheme sweep).

        Returns False — leaving the evaluator untouched — when this
        evaluator runs without an executor (``use_prefix_cache=False``
        or a stage-less model) or when ``executor`` wraps a different
        model instance; sharing is an optimization, never a requirement.
        """
        if self.executor is None or executor.model is not self.model:
            return False
        if executor is not self.executor:
            self.executor = executor  # split_token already set: an own
            # executor existed, and the token only depends on the split.
        return True

    # ------------------------------------------------------------------
    # Plan management
    # ------------------------------------------------------------------
    def plan_for(self, config: QuantizationConfig) -> InferencePlan:
        """Get or create the (resumable) plan for ``config``."""
        key = config_signature(config)
        plan = self._plans.get(key)
        if plan is None:
            plan = InferencePlan(
                config, self.scheme, seed=self.seed, scales=self.scales
            )
            self._plans[key] = plan
            while len(self._plans) > self.max_plans:
                self._evict()
        else:
            self._plans.move_to_end(key)
        return plan

    def _evict(self) -> None:
        """Drop one plan: the least-recently-used *completed* one if any
        (its accuracy is memoized upstream, so the entry is dead weight),
        else the least-recently-used overall — incomplete plans hold
        real partial progress worth keeping."""
        victim = next(
            (key for key, plan in self._plans.items() if plan.complete), None
        )
        if victim is not None:
            del self._plans[victim]
        else:
            self._plans.popitem(last=False)

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
        """Run the plan's next batch through the model (caller holds
        :meth:`_inference_mode`)."""
        start = plan.next_batch * self.batch_size
        stop = min(start + self.batch_size, self.total)
        with no_grad():
            batch = Tensor(self.images[start:stop])
            if self.executor is not None:
                outputs = self.executor.run(
                    plan.next_batch, batch, plan.context,
                    split=self.split_token,
                )
            else:
                outputs = self.model(batch, q=plan.context)
            predictions = default_predictions(outputs)
        correct = int((predictions == self.labels[start:stop]).sum())
        plan.record_batch(correct, stop - start)
        self.batches_evaluated += 1
        if plan.next_batch == self.num_batches:
            plan.final_accuracy = 100.0 * plan.correct / self.total
            plan.release_weights()
            self.full_runs += 1

    @property
    def stage_executions(self) -> int:
        """Stage callables actually run (``batches * num_stages`` when
        the prefix cache is disabled — every batch runs every stage)."""
        if self.executor is not None:
            return self.executor.stage_executions
        return self.batches_evaluated * self._num_stages()

    @property
    def stages_skipped(self) -> int:
        """Stage callables skipped by prefix reuse (0 when disabled)."""
        return self.executor.stages_skipped if self.executor is not None else 0

    def _num_stages(self) -> int:
        stages = getattr(self.model, "stages", None)
        return len(stages()) if callable(stages) else 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def cached_accuracy(self, config: QuantizationConfig) -> Optional[float]:
        """Exact accuracy if this config's plan already ran to the end
        (``None`` otherwise) — no batches run, no plan created."""
        plan = self._plans.get(config_signature(config))
        return plan.final_accuracy if plan is not None else None

    def accuracy(self, config: QuantizationConfig) -> float:
        """Exact full-split accuracy (%), resuming any partial progress."""
        plan = self.plan_for(config)
        with self._inference_mode():
            while plan.next_batch < self.num_batches:
                self._advance(plan)
        return plan.final_accuracy

    def meets_floor(self, config: QuantizationConfig, floor: float) -> bool:
        """Exactly ``accuracy(config) >= floor``, with early exit.

        Runs batches only until the verdict is decided: ``True`` as soon
        as the accumulated correct count guarantees the floor, ``False``
        as soon as the remaining samples cannot reach it.
        """
        plan = self.plan_for(config)
        threshold = floor_threshold(floor, self.total)

        def verdict() -> Optional[bool]:
            if plan.correct >= threshold:
                return True
            if plan.correct + (self.total - plan.samples_seen) < threshold:
                return False
            return None

        with self._inference_mode():
            while verdict() is None:
                self._advance(plan)
        decided = verdict()
        if plan.next_batch < self.num_batches:
            self.early_exits += 1
        return decided
