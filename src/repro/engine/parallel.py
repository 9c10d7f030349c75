"""Parallel branch execution for the quantization search.

The paper runs the Sec. III-B rounding-scheme library search as
parallel branches of Algorithm 1 — "the framework runs Algorithm 1 once
per rounding scheme" — and the branches are embarrassingly parallel:
each owns its evaluator, its quantized-weight caches and (for
stochastic rounding) a private RNG stream, so no branch can observe
another.  The budget grid of
:func:`~repro.framework.pareto.sweep_memory_budgets` is likewise a set
of independent Algorithm-1 runs.  One search, by contrast, runs its
evaluation batches in-process and in dataset order.

This module fans those independent branches across **forked** worker
processes:

* :class:`ForkPool` — a minimal deterministic process pool.  Workers
  are forked per :meth:`ForkPool.map` call, so they inherit the
  parent's current state — trained weights, test split, calibration
  scales and any warm prefix cache — as copy-on-write memory, with no
  serialization of inputs.  Only results cross the process boundary.
  The parent executes the first task shard itself while the children
  run, so its core never idles.  Results are merged **by task
  index**, so the output order (and therefore everything derived from
  it) is independent of worker scheduling;
* :func:`run_branches` — named branch fan-out (one branch per rounding
  scheme or memory budget), merged back into a dict preserving the
  caller's branch order.

Determinism
-----------

``ForkPool.map(fn, n)`` returns exactly ``[fn(0), ..., fn(n-1)]``.
Workers communicate results through a queue tagged with the task index;
the parent reorders on receipt.  A worker exception is re-raised in the
parent (lowest task index first) with the child traceback attached.
When ``workers <= 1``, the platform cannot fork, or there is only one
task, the pool degrades to an inline loop — same results, no processes.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import traceback
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

#: Seconds a result drain blocks before re-checking worker liveness.
#: The drain is a *blocking* ``Queue.get`` — results wake it the moment
#: they arrive, so this bounds only how long a silent worker death
#: (hard kill, no reported failure) can go unnoticed; it is not a poll
#: period and adds no idle tail to a healthy ``map``.
_LIVENESS_TIMEOUT_S = 5.0

#: Process-wide drain counters: results received vs. waits that hit
#: the liveness timeout without one.  Timeouts should stay ~0 on a
#: healthy run — ``bench_scheme_selection`` asserts that, guarding
#: against a busy-wait (or short-poll) regression in the drain loop.
_drain_stats = {"results": 0, "timeouts": 0}


def drain_stats() -> Dict[str, int]:
    """Snapshot of the process-wide result-drain counters."""
    return dict(_drain_stats)


def fork_available() -> bool:
    """True when ``fork``-start workers can be used *from this process*.

    Daemonic processes (our own pool workers) may not spawn children,
    so a branch that is itself running inside a fork pool reports False
    and any nested fan-out (say, a ``select`` called from inside a
    forked branch) degrades to inline execution instead of crashing.
    """
    try:
        if multiprocessing.current_process().daemon:
            return False
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


def _shards(num_items: int, workers: int) -> List[List[int]]:
    """Contiguous near-equal index shards (no empty shards)."""
    workers = min(workers, num_items)
    bounds = np.linspace(0, num_items, workers + 1).astype(int)
    return [
        list(range(bounds[i], bounds[i + 1]))
        for i in range(workers)
        if bounds[i] < bounds[i + 1]
    ]


def _child_main(fn: Callable[[int], T], indices: Sequence[int], results) -> None:
    """Worker body: run ``fn`` over ``indices``, ship (index, ok, payload)."""
    for index in indices:
        try:
            results.put((index, True, fn(index)))
        except BaseException:
            results.put((index, False, traceback.format_exc()))
            return


class ForkPool:
    """Deterministic fork-per-call process pool.

    Parameters
    ----------
    workers:
        Concurrent worker processes per :meth:`map` call.  ``1`` (or a
        platform without ``fork``) runs tasks inline in the parent —
        the results are identical by construction, which is what makes
        ``workers`` a pure throughput knob.

    Forking at call time (rather than keeping long-lived workers) is
    deliberate: every ``map`` sees the parent's *current* memory —
    models stay frozen during a search, but caches warm up between
    calls, and a freshly forked worker inherits them for free.  The
    pool keeps no state between calls and owns no processes afterwards.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        #: Tasks executed through forked children (0 while inline).
        self.forked_tasks = 0
        #: Tasks the parent ran itself alongside the children (its core
        #: would otherwise idle, and its cache writes persist).
        self.parent_tasks = 0
        #: map() calls served inline (workers/platform/task-count said no).
        self.inline_calls = 0

    def map(self, fn: Callable[[int], T], num_items: int) -> List[T]:
        """``[fn(0), ..., fn(num_items - 1)]``, possibly in parallel.

        ``fn`` may be a closure: with the ``fork`` start method the
        child inherits it directly — nothing but the *results* is ever
        pickled.  Results are returned in task order regardless of
        which worker finished first.
        """
        if num_items < 0:
            raise ValueError(f"num_items must be >= 0, got {num_items}")
        if num_items == 0:
            return []
        if self.workers <= 1 or num_items <= 1 or not fork_available():
            self.inline_calls += 1
            return [fn(index) for index in range(num_items)]

        # The parent runs the first shard itself (below, while the
        # children work): its core would otherwise idle in the drain
        # loop, one fewer process is forked, and whatever the
        # parent-shard tasks store in caches *persists* across map()
        # calls, whereas child caches die with the child.
        parent_shard, *child_shards = _shards(num_items, self.workers)

        context = multiprocessing.get_context("fork")
        results_queue = context.Queue()
        processes = [
            context.Process(
                target=_child_main, args=(fn, shard, results_queue), daemon=True
            )
            for shard in child_shards
        ]
        for process in processes:
            process.start()

        received: Dict[int, object] = {}
        failures: Dict[int, str] = {}
        shard_of = {index: shard for shard in child_shards for index in shard}
        # Child-task results the drain still waits for.
        pending = set(shard_of)
        try:
            for index in parent_shard:
                # Exception, not BaseException: a KeyboardInterrupt in
                # the parent must abort immediately (the finally joins
                # the children), not be reported as a task failure.
                try:
                    received[index] = fn(index)
                except Exception:
                    failures[index] = traceback.format_exc()
                    break  # mirror a failed worker: abandon the shard
            while pending:
                try:
                    index, ok, payload = results_queue.get(
                        timeout=_LIVENESS_TIMEOUT_S
                    )
                except queue_module.Empty:
                    # Liveness check only on timeout: the blocking get
                    # already returned every result the children sent.
                    _drain_stats["timeouts"] += 1
                    alive = any(p.is_alive() for p in processes)
                    if not alive and results_queue.empty():
                        if failures:
                            break  # a reported failure explains the gap
                        raise RuntimeError(
                            f"parallel workers died without reporting "
                            f"results for tasks {sorted(pending)}"
                        )
                    continue
                _drain_stats["results"] += 1
                pending.discard(index)
                if ok:
                    received[index] = payload
                else:
                    failures[index] = str(payload)
                    # A failed task stops its worker: the rest of its
                    # shard never arrives, so stop waiting for it.
                    pending.difference_update(
                        later for later in shard_of[index] if later > index
                    )
        finally:
            for process in processes:
                process.join(timeout=5)
                if process.is_alive():  # pragma: no cover - stuck child
                    process.terminate()
                    process.join()
            results_queue.close()

        if failures:
            first = min(failures)
            raise RuntimeError(
                f"parallel task {first} failed:\n{failures[first]}"
            )
        self.forked_tasks += num_items - len(parent_shard)
        self.parent_tasks += len(parent_shard)
        return [received[index] for index in range(num_items)]

def run_branches(
    branches: Sequence[Tuple[str, Callable[[], T]]], workers: int = 1
) -> Dict[str, T]:
    """Run named independent branches, merging results by branch name.

    The returned dict preserves the order of ``branches`` — with
    per-branch results independent of each other (each branch owns its
    state), the merged outcome is identical to running the branches
    sequentially, whatever the worker scheduling did.
    """
    names = [name for name, _ in branches]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate branch names: {duplicates}")
    thunks = [thunk for _, thunk in branches]
    results = ForkPool(workers).map(lambda index: thunks[index](), len(branches))
    return dict(zip(names, results))


__all__ = [
    "ForkPool",
    "drain_stats",
    "fork_available",
    "run_branches",
]
