"""Tests for the parallel branch executor and shared prefix cache.

Two contracts are pinned here:

* **Determinism** — the parallel scheme sweep (workers 1/2/3) produces
  a :class:`SelectionOutcome` bit-identical to the sequential path for
  all four rounding schemes, SR included: path, winner, per-scheme
  model configs and accuracies.  Likewise the parallel budget sweep.
* **Isolation** — sharing one staged executor across evaluators never
  leaks between SR streams (different seeds / schemes), while the
  legitimately shareable state (scheme-free FP32 prefixes, equal
  deterministic configs across seeds) is actually shared.
"""

import time

import pytest

from repro.engine import (
    ForkPool,
    StagedExecutor,
    config_signature,
    fork_available,
    run_branches,
)
from repro.engine.parallel import _shards
from repro.framework import (
    Evaluator,
    QCapsNets,
    scheme_search,
    sweep_memory_budgets,
)
from repro.quant import QuantizationConfig, get_rounding_scheme
from repro.quant.rounding import StochasticRounding

LAYERS = ["L1", "L2", "L3"]
SCHEMES = ("TRN", "RTN", "RTNE", "SR")


def _uniform(bits):
    return QuantizationConfig.uniform(LAYERS, qw=bits, qa=bits)


def _evaluator(model, test, scheme, seed=0, **kwargs):
    return Evaluator(
        model, test.images, test.labels,
        get_rounding_scheme(scheme, seed=seed),
        batch_size=32, seed=seed, **kwargs,
    )


def _outcome_key(outcome):
    """Everything the selection decided, as comparable plain data."""
    def model_key(model):
        if model is None:
            return None
        return (model.scheme_name, config_signature(model.config),
                model.accuracy)

    return (
        outcome.path,
        model_key(outcome.best),
        model_key(outcome.best_memory_model),
        model_key(outcome.best_accuracy_model),
        {
            name: {
                label: (m.accuracy, config_signature(m.config))
                for label, m in result.models().items()
            }
            for name, result in outcome.per_scheme.items()
        },
        list(outcome.per_scheme),
    )


# ----------------------------------------------------------------------
# ForkPool mechanics
# ----------------------------------------------------------------------
class TestForkPool:
    def test_results_ordered_by_task_index(self):
        pool = ForkPool(3)
        assert pool.map(lambda i: i * 10, 8) == [i * 10 for i in range(8)]

    def test_inline_fallback_single_worker(self):
        pool = ForkPool(1)
        assert pool.map(lambda i: i + 1, 4) == [1, 2, 3, 4]
        assert pool.inline_calls == 1
        assert pool.forked_tasks == 0

    def test_single_task_stays_inline(self):
        pool = ForkPool(4)
        assert pool.map(lambda i: "x", 1) == ["x"]
        assert pool.forked_tasks == 0

    def test_empty(self):
        assert ForkPool(2).map(lambda i: i, 0) == []

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_worker_exception_reraised_with_traceback(self):
        with pytest.raises(RuntimeError, match="ZeroDivisionError"):
            ForkPool(2).map(lambda i: 1 // 0, 4)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_parent_runs_first_shard_in_process(self):
        """The first shard executes in the parent (its side effects are
        visible afterwards); the rest runs in children (theirs are not),
        so caches the parent's branches warm outlive the map() call."""
        seen = []
        pool = ForkPool(2)
        result = pool.map(lambda i: seen.append(i) or i, 6)
        assert result == list(range(6))
        assert seen == [0, 1, 2]          # parent shard only
        assert pool.parent_tasks == 3
        assert pool.forked_tasks == 3

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_closures_cross_fork_without_pickling(self):
        payload = {"base": 100}  # closed over, never pickled
        result = ForkPool(2).map(lambda i: payload["base"] + i, 5)
        assert result == [100, 101, 102, 103, 104]

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ForkPool(0)
        with pytest.raises(ValueError):
            ForkPool(2).map(lambda i: i, -1)

    def test_shards_cover_and_preserve_order(self):
        for items, workers in [(8, 3), (3, 8), (1, 1), (7, 2), (16, 4)]:
            shards = _shards(items, workers)
            flat = [i for shard in shards for i in shard]
            assert flat == list(range(items))
            assert all(shard for shard in shards)
            assert len(shards) <= workers

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    @pytest.mark.parametrize("workers, failing", [
        (3, {4}),     # middle of a child shard ([3, 4, 5])
        (3, {4, 6}),  # two child shards fail; the lowest is reported
        (2, {1}),     # parent shard ([0, 1, 2, 3])
        (3, {1}),     # parent shard ([0, 1, 2])
    ])
    def test_failed_task_raises_without_liveness_wait(
        self, monkeypatch, workers, failing
    ):
        """A failed task abandons the rest of its shard; the drain must
        stop waiting for those results instead of sitting out the
        liveness timeout."""
        monkeypatch.setattr(
            "repro.engine.parallel._LIVENESS_TIMEOUT_S", 30.0
        )

        def task(index):
            if index in failing:
                raise ZeroDivisionError(f"task {index}")
            return index

        start = time.monotonic()
        with pytest.raises(RuntimeError) as error:
            ForkPool(workers).map(task, 9)
        assert time.monotonic() - start < 10.0
        assert f"parallel task {min(failing)} failed" in str(error.value)
        assert "ZeroDivisionError" in str(error.value)


class TestRunBranches:
    def test_merges_by_name_preserving_order(self):
        result = run_branches(
            [("b", lambda: 2), ("a", lambda: 1)], workers=2
        )
        assert result == {"b": 2, "a": 1}
        assert list(result) == ["b", "a"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_branches([("x", lambda: 1), ("x", lambda: 2)], workers=1)


# ----------------------------------------------------------------------
# The Sec. III-B sweep: parallel == sequential, bit for bit
# ----------------------------------------------------------------------
class TestParallelSchemeSweep:
    def _make_factory(self, model, test, executor=None):
        """Per-scheme factory; with ``executor`` every branch shares it
        (as ``Session.select`` does), else each builds its own."""
        def make(scheme_name):
            return QCapsNets.build(
                model, test.images, test.labels,
                accuracy_tolerance=0.03, memory_budget_mbit=0.12,
                scheme=scheme_name, batch_size=32, staged_executor=executor,
            )
        return make

    def test_workers_bit_identical_all_schemes(self, trained_tiny, tiny_data):
        """The satellite contract: workers ∈ {1, 2, 3} reproduce the
        sequential SelectionOutcome exactly for all four schemes."""
        _, test = tiny_data
        make = self._make_factory(
            trained_tiny, test, StagedExecutor(trained_tiny)
        )
        reference = _outcome_key(
            scheme_search(make, schemes=SCHEMES)
        )
        for workers in (1, 2, 3):
            outcome = scheme_search(
                make, schemes=SCHEMES, workers=workers
            )
            assert _outcome_key(outcome) == reference, f"workers={workers}"

    def test_duplicate_schemes_rejected(self, trained_tiny, tiny_data):
        _, test = tiny_data
        make = self._make_factory(trained_tiny, test)
        with pytest.raises(ValueError, match="duplicate"):
            scheme_search(make, schemes=("TRN", "RTN", "TRN"))

    def test_shared_executor_serves_cross_scheme_fp32(
        self, trained_tiny, tiny_data
    ):
        """Sequential sharing: the accFP32 pass of the first branch is
        resumed by every later branch (scheme-free prefixes), recorded
        as cross-scheme hits."""
        _, test = tiny_data
        shared = StagedExecutor(trained_tiny)
        make = self._make_factory(trained_tiny, test, shared)
        executors = []

        def spying_make(scheme_name):
            framework = make(scheme_name)
            executors.append(framework.evaluator.executor)
            return framework

        outcome = scheme_search(
            spying_make, schemes=("TRN", "RTN", "SR")
        )
        assert set(outcome.per_scheme) == {"TRN", "RTN", "SR"}
        # Every branch ran on the one executor...
        assert all(executor is shared for executor in executors)
        assert shared.cache.cross_scheme_hits > 0
        # ...and the shared outcome equals the unshared one.
        unshared = scheme_search(
            self._make_factory(trained_tiny, test),
            schemes=("TRN", "RTN", "SR"),
        )
        assert _outcome_key(outcome) == _outcome_key(unshared)


# ----------------------------------------------------------------------
# Shared-executor isolation and sharing semantics
# ----------------------------------------------------------------------
class TestSharedExecutorIsolation:
    def test_sr_streams_never_leak(self, trained_tiny, tiny_data):
        """Two SR evaluators with different seeds sharing one executor
        must produce exactly what they produce in isolation."""
        _, test = tiny_data
        config = _uniform(5)
        isolated = {
            seed: _evaluator(trained_tiny, test, "SR", seed=seed).accuracy(
                config
            )
            for seed in (0, 7)
        }
        first = _evaluator(trained_tiny, test, "SR", seed=0)
        shared = first.executor
        second = _evaluator(
            trained_tiny, test, "SR", seed=7, staged_executor=shared
        )
        assert first.accuracy(config) == isolated[0]
        assert second.accuracy(config) == isolated[7]
        # Quantized SR prefixes carry the seed in their fingerprints, so
        # the second stream could not have resumed from the first.
        assert shared.cache.cross_scheme_hits == 0

    def test_sr_isolated_from_deterministic_entries(
        self, trained_tiny, tiny_data
    ):
        _, test = tiny_data
        config = _uniform(5)
        reference = _evaluator(trained_tiny, test, "SR").accuracy(config)
        det = _evaluator(trained_tiny, test, "RTN")
        det.accuracy(config)  # populate quantized RTN prefixes
        sr = _evaluator(
            trained_tiny, test, "SR", staged_executor=det.executor
        )
        assert sr.accuracy(config) == reference

    def test_deterministic_configs_share_across_seeds(
        self, trained_tiny, tiny_data
    ):
        """RTN output is seed-independent: a second evaluator with a
        different seed resumes whole batches from the first one's
        entries."""
        _, test = tiny_data
        config = _uniform(6)
        first = _evaluator(trained_tiny, test, "RTN", seed=0)
        value = first.accuracy(config)
        executor = first.executor
        hits_before = executor.cache.hits
        second = _evaluator(
            trained_tiny, test, "RTN", seed=7, staged_executor=executor
        )
        assert second.accuracy(config) == value
        assert executor.cache.hits > hits_before
        assert executor.resumes >= second.num_batches

    def test_split_token_keeps_splits_apart(self, trained_tiny, tiny_data):
        """Equal batch indices of different splits must never collide
        in a shared cache."""
        _, test = tiny_data
        config = _uniform(6)
        full = _evaluator(trained_tiny, test, "RTN")
        executor = full.executor
        half_images = test.images[: 4 * 32]
        half_labels = test.labels[: 4 * 32]
        half = Evaluator(
            trained_tiny, half_images, half_labels,
            get_rounding_scheme("RTN"), batch_size=32,
            staged_executor=executor,
        )
        reference = Evaluator(
            trained_tiny, half_images, half_labels,
            get_rounding_scheme("RTN"), batch_size=32,
        )
        full.accuracy(config)
        assert half.accuracy(config) == reference.accuracy(config)
        # Same data at a different batch size is also a different split.
        other_batch = Evaluator(
            trained_tiny, test.images, test.labels,
            get_rounding_scheme("RTN"), batch_size=64,
            staged_executor=executor,
        )
        unshared = Evaluator(
            trained_tiny, test.images, test.labels,
            get_rounding_scheme("RTN"), batch_size=64,
        )
        assert other_batch.accuracy(config) == unshared.accuracy(config)

    def test_executor_model_mismatch_rejected(self, trained_tiny, tiny_data):
        from repro.capsnet import ShallowCaps, presets

        _, test = tiny_data
        other_model = ShallowCaps(presets.shallowcaps_tiny())
        executor = StagedExecutor(other_model)
        with pytest.raises(ValueError, match="different model"):
            _evaluator(trained_tiny, test, "RTN", staged_executor=executor)

    def test_share_executor_best_effort(self, trained_tiny, tiny_data):
        """Sharing is decided at construction: an executor over the same
        model is used as given, one over another model is refused."""
        from repro.capsnet import ShallowCaps, presets

        _, test = tiny_data
        foreign = StagedExecutor(ShallowCaps(presets.shallowcaps_tiny()))
        with pytest.raises(ValueError, match="different model"):
            _evaluator(trained_tiny, test, "RTN", staged_executor=foreign)
        own = _evaluator(trained_tiny, test, "TRN").executor
        evaluator = _evaluator(trained_tiny, test, "RTN", staged_executor=own)
        assert evaluator.executor is own
        assert _evaluator(trained_tiny, test, "RTN").executor is not own


# ----------------------------------------------------------------------
# Parallel budget sweep
# ----------------------------------------------------------------------
class TestParallelBudgetSweep:
    def test_workers_bit_identical(self, trained_tiny, tiny_data):
        _, test = tiny_data
        fp32_mbit = sum(trained_tiny.layer_param_counts().values()) * 32 / 1e6
        budgets = [fp32_mbit / 4, fp32_mbit / 24]
        sequential = sweep_memory_budgets(
            trained_tiny, test.images, test.labels,
            budgets_mbit=budgets, accuracy_tolerance=0.03,
            scheme="RTN", batch_size=32,
        )
        parallel = sweep_memory_budgets(
            trained_tiny, test.images, test.labels,
            budgets_mbit=budgets, accuracy_tolerance=0.03,
            scheme="RTN", batch_size=32, workers=2,
        )
        assert parallel == sequential

    def test_sr_instance_seed_matches_string(self, trained_tiny, tiny_data):
        """Regression: an SR *instance* used to bypass the sweep's
        ``seed`` (only the string path threaded it through); instance
        and string calls must give identical points."""
        _, test = tiny_data
        fp32_mbit = sum(trained_tiny.layer_param_counts().values()) * 32 / 1e6
        kwargs = dict(
            budgets_mbit=[fp32_mbit / 4, fp32_mbit / 24],
            accuracy_tolerance=0.03, batch_size=32, seed=3,
        )
        by_string = sweep_memory_budgets(
            trained_tiny, test.images, test.labels, scheme="SR", **kwargs
        )
        by_instance = sweep_memory_budgets(
            trained_tiny, test.images, test.labels,
            scheme=StochasticRounding(seed=99), **kwargs
        )
        assert by_string == by_instance

    def test_sr_instance_stream_not_mutated(self, trained_tiny, tiny_data):
        """The sweep must not consume draws from the caller's scheme
        instance (it evaluates through a private rebound copy)."""
        _, test = tiny_data
        fp32_mbit = sum(trained_tiny.layer_param_counts().values()) * 32 / 1e6
        scheme = StochasticRounding(seed=42)
        state_before = scheme.get_state()
        sweep_memory_budgets(
            trained_tiny, test.images, test.labels,
            budgets_mbit=[fp32_mbit / 4], accuracy_tolerance=0.03,
            scheme=scheme, batch_size=32, seed=0,
        )
        assert scheme.get_state() == state_before
