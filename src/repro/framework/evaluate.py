"""Quantized-accuracy evaluation — the ``test(quant(model, ...))``
primitive of the paper's Algorithms 1-3.

The :class:`Evaluator` owns the trained model and the test split and
serves two queries:

* :meth:`Evaluator.accuracy` — exact full-split accuracy, memoized: the
  greedy searches revisit configurations (e.g. the +1 restore step of
  Algorithm 2), and stochastic rounding is seeded per evaluation so
  accuracy is a pure function of (config, scheme) — making the cache
  exact, not approximate.
* :meth:`Evaluator.meets_floor` — the floor verdict the search loops
  actually need, served by the batched inference engine
  (:class:`~repro.engine.StreamingEvaluator`) with exact early exit:
  batches stop as soon as the comparison is decided, and the partial
  progress is kept so a later exact ``accuracy`` call resumes instead
  of restarting.

``use_engine=False`` selects the naive path (every query runs the full
split); it exists for A/B measurement — see
``benchmarks/bench_engine_speedup.py`` — and produces identical results.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.engine import (
    DEFAULT_PREFIX_CACHE_BYTES,
    StreamingEvaluator,
    config_signature,
)
from repro.nn.module import Module
from repro.nn.trainer import default_predictions, evaluate_accuracy
from repro.quant.calibrate import calibrate_scales
from repro.quant.config import QuantizationConfig
from repro.quant.qcontext import FixedPointQuant
from repro.quant.rounding import RoundingScheme, get_rounding_scheme

__all__ = ["Evaluator", "config_signature"]


class Evaluator:
    """Accuracy oracle for quantization configurations.

    Parameters
    ----------
    model:
        Trained CapsNet (any module whose forward accepts ``q=``).
    images, labels:
        Test split used for every accuracy measurement.
    scheme:
        Rounding scheme applied to every array.
    batch_size:
        Evaluation batch size (throughput knob and, with the engine,
        the early-exit granularity).
    seed:
        Seed restored before each evaluation (stochastic rounding).
    scales:
        Precomputed calibration scales — skips the calibration forward
        pass entirely (by default the test images calibrate the
        per-array power-of-two pre-scaling; see
        :mod:`repro.quant.calibrate`).  Calibration is scheme-independent,
        so sibling per-scheme evaluators over one model/split (a session,
        a scheme sweep) can share one dict instead of each re-measuring
        it.
    use_engine:
        Route queries through the batched inference engine (default).
        ``False`` evaluates every query over the full split — same
        results, more batches.
    use_prefix_cache:
        Let the engine resume forward passes from cached cross-config
        prefix activations (default; only effective with the engine and
        a model exposing ``stages()``).  ``False`` runs every batch
        through the whole model — same results, more stage executions;
        see ``benchmarks/bench_prefix_cache.py``.
    prefix_cache_bytes:
        Byte cap of the engine's boundary-activation cache.
    staged_executor:
        Pass a prebuilt :class:`~repro.engine.StagedExecutor` to share
        its prefix cache with sibling evaluators over the same model
        (the per-scheme frameworks of the selection sweep, a budget
        grid).  Results are bit-identical with or without sharing.
    """

    def __init__(
        self,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        scheme: RoundingScheme,
        batch_size: int = 128,
        seed: int = 0,
        use_engine: bool = True,
        use_prefix_cache: bool = True,
        prefix_cache_bytes: int = DEFAULT_PREFIX_CACHE_BYTES,
        staged_executor=None,
        scales: Optional[Dict[str, float]] = None,
    ):
        self.model = model
        self.images = images
        self.labels = labels
        self.scheme = scheme
        self.batch_size = batch_size
        self.seed = seed
        #: Full-split quantized evaluations performed (cache misses).
        self.eval_count = 0
        #: Floor verdicts served (cache hits included).
        self.probe_count = 0
        self._cache: Dict[Tuple, float] = {}
        self._fp32_accuracy: Optional[float] = None
        self._naive_batches = 0
        if scales is None:
            scales = calibrate_scales(model, images, batch_size=batch_size)
        self.scales = scales
        self.engine: Optional[StreamingEvaluator] = (
            StreamingEvaluator(
                model,
                images,
                labels,
                scheme,
                batch_size=batch_size,
                seed=seed,
                scales=self.scales,
                use_prefix_cache=use_prefix_cache,
                prefix_cache_bytes=prefix_cache_bytes,
                executor=staged_executor,
            )
            if use_engine
            else None
        )

    @classmethod
    def from_spec(
        cls,
        spec,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        scheme=None,
        staged_executor=None,
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

    @property
    def staged_executor(self):
        """The engine's prefix-reuse executor (None without the engine)."""
        return self.engine.executor if self.engine is not None else None

    def share_executor(self, executor) -> bool:
        """Adopt a sibling evaluator's staged executor (best-effort;
        see :meth:`repro.engine.StreamingEvaluator.share_executor`)."""
        if self.engine is None:
            return False
        return self.engine.share_executor(executor)

    def _null_config(self) -> Optional[QuantizationConfig]:
        """An all-FP32 config for this model (None when the model does
        not name its quantization layers)."""
        layers = getattr(self.model, "quant_layers", None)
        if layers is None:
            return None
        return QuantizationConfig.uniform(list(layers))

    @property
    def num_batches(self) -> int:
        """Batches in one full pass over the split."""
        if self.engine is not None:
            return self.engine.num_batches
        return -(-int(self.labels.shape[0]) // self.batch_size)

    @property
    def batches_evaluated(self) -> int:
        """Quantized-evaluation batches run so far (engine or naive)."""
        if self.engine is not None:
            return self.engine.batches_evaluated
        return self._naive_batches

    def accuracy_fp32(self) -> float:
        """Full-precision accuracy (the paper's ``accFP32``), memoized.

        Shared-evaluator sweeps run several framework instances against
        one Evaluator; the FP32 pass is identical every time, so it is
        computed once per instance.

        With the engine, the pass runs as an all-FP32 configuration
        (identity quantization hooks — bit-identical to the naive
        evaluation).  Its prefix-cache entries are *scheme-free*, so
        when several per-scheme evaluators share one staged executor,
        every branch after the first resumes the whole baseline pass
        from the cache — the cross-scheme sharing the Sec. III-B sweep
        exploits.
        """
        if self._fp32_accuracy is None:
            null_config = self._null_config()
            if self.engine is not None and null_config is not None:
                self._fp32_accuracy = self.engine.accuracy(null_config)
            else:
                self._fp32_accuracy = evaluate_accuracy(
                    self.model,
                    self.images,
                    self.labels,
                    batch_size=self.batch_size,
                    predict_fn=default_predictions,
                )
                # Keep batch accounting symmetric with the engine path,
                # which runs (and counts) the pass as a null config.
                self._naive_batches += self.num_batches
        return self._fp32_accuracy

    def accuracy(self, config: QuantizationConfig) -> float:
        """Exact accuracy (%) of the model quantized with ``config``."""
        key = config_signature(config)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self.engine is not None:
            value = self.engine.accuracy(config)
        else:
            context = self.quant_context(config)
            value = evaluate_accuracy(
                self.model,
                self.images,
                self.labels,
                batch_size=self.batch_size,
                q=context,
                predict_fn=default_predictions,
            )
            self._naive_batches += self.num_batches
        self.eval_count += 1
        self._cache[key] = value
        return value

    def meets_floor(self, config: QuantizationConfig, floor: float) -> bool:
        """Exactly ``accuracy(config) >= floor``, early-exiting batches.

        The engine stops as soon as accumulated correct predictions
        guarantee the floor or accumulated errors make it unreachable;
        partial batch results stay cached per config, so a later
        :meth:`accuracy` call resumes instead of restarting.
        """
        self.probe_count += 1
        key = config_signature(config)
        cached = self._cache.get(key)
        if cached is not None:
            return cached >= floor
        if self.engine is not None:
            verdict = self.engine.meets_floor(config, floor)
            # A verdict near the floor can consume the whole split;
            # keep the exact accuracy that fell out rather than
            # recomputing it after the plan is evicted.
            value = self.engine.cached_accuracy(config)
            if value is not None:
                self.eval_count += 1
                self._cache[key] = value
            return verdict
        return self.accuracy(config) >= floor

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
