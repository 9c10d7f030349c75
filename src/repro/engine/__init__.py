"""Batched inference engine for the quantization search.

The search loops of Algorithms 1-3 mostly ask whether a candidate
configuration's accuracy clears a fixed floor — they rarely need the
accuracy itself.  This subsystem answers those floor questions with an
**exact early exit** over the evaluation batches:

* :class:`~repro.engine.plan.InferencePlan` — snapshotted, resumable
  per-configuration evaluation state (cloned config, pre-quantized
  weights, private stochastic-rounding stream, per-batch counters);
* :class:`~repro.engine.streaming.StreamingEvaluator` — the engine:
  ``meets_floor(config, floor)`` stops as soon as the verdict is
  decided, ``accuracy(config)`` resumes partial progress to an exact
  full-split number;
* :func:`~repro.engine.streaming.floor_oracle` — adapter the framework
  algorithms use so any evaluator (including the synthetic oracles in
  the test suite) can serve floor verdicts;
* :class:`~repro.engine.staged.StagedExecutor` — staged forward engine
  with cross-config activation prefix reuse: models expose a
  ``stages()`` decomposition, and a probe that differs from an already
  evaluated configuration only from layer ``k`` down resumes every
  batch from the cached boundary activation at ``k-1`` (bit-identical
  results, including under stochastic rounding — see
  :mod:`repro.engine.staged`).

The framework's :class:`~repro.framework.evaluate.Evaluator` routes all
of Algorithm 1 through this engine by default; see
``benchmarks/bench_engine_speedup.py`` for the measured reduction in
evaluated batches and ``benchmarks/bench_prefix_cache.py`` for the
stage-level work avoided by prefix reuse.

:mod:`repro.engine.parallel` adds the process-level dimension: a
deterministic :class:`~repro.engine.parallel.ForkPool` fans independent
Algorithm-1 branches (one per rounding scheme or memory budget) and —
for the deterministic schemes — independent evaluation batches across
forked workers with copy-on-write access to the parent's weights, test
split and warm caches, merging results by task order so every outcome
is bit-identical to the sequential run.
"""

from repro.engine.parallel import (
    ForkPool,
    batch_parallel_safe,
    default_workers,
    drain_stats,
    fork_available,
    run_branches,
)
from repro.engine.plan import InferencePlan, config_signature
from repro.engine.pool import ExecutorPool, WorkerCrash, WorkerError
from repro.engine.staged import (
    DEFAULT_PREFIX_CACHE_BYTES,
    PrefixCache,
    StagedExecutor,
    prefix_activity,
    stage_fingerprints,
)
from repro.engine.streaming import (
    StreamingEvaluator,
    floor_oracle,
    floor_threshold,
    split_token,
)

__all__ = [
    "DEFAULT_PREFIX_CACHE_BYTES",
    "ExecutorPool",
    "ForkPool",
    "InferencePlan",
    "PrefixCache",
    "StagedExecutor",
    "StreamingEvaluator",
    "WorkerCrash",
    "WorkerError",
    "batch_parallel_safe",
    "config_signature",
    "default_workers",
    "drain_stats",
    "floor_oracle",
    "floor_threshold",
    "fork_available",
    "prefix_activity",
    "run_branches",
    "split_token",
    "stage_fingerprints",
]
