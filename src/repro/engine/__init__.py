"""Batched inference engine for the quantization search.

The search loops of Algorithms 1-3 run on
:class:`~repro.framework.evaluate.Evaluator`, which answers floor
verdicts with an exact early exit over the evaluation batches.  This
package holds the machinery underneath it:

* :class:`~repro.engine.plan.InferencePlan` — snapshotted, resumable
  per-configuration evaluation state (cloned config, pre-quantized
  weights, private stochastic-rounding stream, per-batch counters), and
  :func:`~repro.engine.plan.floor_threshold`, the exact correct-count
  pivot of a floor comparison;
* :class:`~repro.engine.staged.StagedExecutor` — staged forward engine
  with cross-config activation prefix reuse: models expose a
  ``stages()`` decomposition, and a probe that differs from an already
  evaluated configuration only from layer ``k`` down resumes every
  batch from the cached boundary activation at ``k-1`` (bit-identical
  results, including under stochastic rounding — see
  :mod:`repro.engine.staged`).  ``benchmarks/bench_prefix_cache.py``
  measures the stage-level work avoided by prefix reuse.

:mod:`repro.engine.parallel` adds the process-level dimension: a
deterministic :class:`~repro.engine.parallel.ForkPool` fans independent
Algorithm-1 branches (one per rounding scheme or memory budget) across
forked workers with copy-on-write access to the parent's weights, test
split and warm caches, merging results by task order so every outcome
is bit-identical to the sequential run.  Within one branch the batches
run in-process, in dataset order.
"""

from repro.engine.parallel import (
    ForkPool,
    drain_stats,
    fork_available,
    run_branches,
)
from repro.engine.plan import InferencePlan, config_signature, floor_threshold
from repro.engine.pool import ExecutorPool, WorkerCrash, WorkerError
from repro.engine.staged import (
    DEFAULT_PREFIX_CACHE_BYTES,
    PrefixCache,
    StagedExecutor,
    prefix_activity,
    stage_fingerprints,
)

__all__ = [
    "DEFAULT_PREFIX_CACHE_BYTES",
    "ExecutorPool",
    "ForkPool",
    "InferencePlan",
    "PrefixCache",
    "StagedExecutor",
    "WorkerCrash",
    "WorkerError",
    "config_signature",
    "drain_stats",
    "floor_threshold",
    "fork_available",
    "prefix_activity",
    "run_branches",
    "stage_fingerprints",
]
