"""Tests for the search evaluator and its engine (src/repro/engine/).

The evaluator's contract is *exactness*: ``meets_floor`` must return
precisely ``accuracy(config) >= floor`` while evaluating fewer batches,
and resumed partial evaluations must be bit-identical to monolithic
ones — including under stochastic rounding.  These tests pin that
contract on synthetic counts and on a real seeded ShallowCaps, against
a reference that evaluates the whole split with
:func:`repro.nn.trainer.evaluate_accuracy`.
"""

import pytest

import repro.framework.evaluate as evaluate_module
from repro.engine import (
    InferencePlan,
    config_signature,
    floor_threshold,
)
from repro.framework import Evaluator, QCapsNets
from repro.nn.module import Module
from repro.nn.trainer import evaluate_accuracy
from repro.quant import QuantizationConfig, get_rounding_scheme

LAYERS = ["L1", "L2", "L3"]


def reference_accuracy(evaluator, config):
    """Full-split accuracy of ``config`` without plans, early exit or
    prefix reuse: one whole-model forward per batch."""
    return evaluate_accuracy(
        evaluator.model, evaluator.images, evaluator.labels,
        batch_size=evaluator.batch_size,
        q=evaluator.quant_context(config),
    )


class TestFloorThreshold:
    @pytest.mark.parametrize("total", [1, 3, 7, 100, 256])
    def test_exact_boundary(self, total):
        """floor_threshold is the exact pivot of the float comparison."""
        floors = [0.0, 0.1, 33.333333, 50.0, 79.99, 80.0, 99.9, 100.0]
        floors += [100.0 * c / total for c in range(total + 1)]
        for floor in floors:
            threshold = floor_threshold(floor, total)
            for correct in range(total + 1):
                naive = (100.0 * correct / total) >= floor
                assert (correct >= threshold) == naive, (floor, correct)

    def test_unreachable_floor(self):
        assert floor_threshold(100.5, 10) == 11

    def test_trivial_floor(self):
        assert floor_threshold(0.0, 10) == 0
        assert floor_threshold(-5.0, 10) == 0

    def test_invalid_total(self):
        with pytest.raises(ValueError):
            floor_threshold(50.0, 0)


class TestInferencePlan:
    def test_snapshots_config(self):
        config = QuantizationConfig.uniform(LAYERS, qw=8, qa=8)
        plan = InferencePlan(config, get_rounding_scheme("RTN"))
        config.set_qw("L1", 2)
        assert plan.config["L1"].qw == 8
        assert config_signature(plan.config) == config_signature(
            QuantizationConfig.uniform(LAYERS, qw=8, qa=8)
        )

    def test_private_sr_stream(self):
        scheme = get_rounding_scheme("SR", seed=3)
        config = QuantizationConfig.uniform(LAYERS, qw=4, qa=4)
        plan = InferencePlan(config, scheme, seed=3)
        assert plan.context.scheme is not scheme


def _engine(model, test, scheme="RTN", batch_size=32):
    return Evaluator(
        model, test.images, test.labels,
        get_rounding_scheme(scheme, seed=0), batch_size=batch_size,
    )


def _uniform(bits):
    return QuantizationConfig.uniform(LAYERS, qw=bits, qa=bits)


class TestStreamingEvaluator:
    """Early-exit verdicts and resumable accuracies of the evaluator."""

    def test_accuracy_matches_naive_evaluator(self, trained_tiny, tiny_data):
        _, test = tiny_data
        engine = _engine(trained_tiny, test)
        for bits in (2, 4, 8):
            config = _uniform(bits)
            assert engine.accuracy(config) == reference_accuracy(engine, config)

    def test_verdicts_match_full_evaluation(self, trained_tiny, tiny_data):
        """Early-exit verdicts agree with full-evaluation verdicts on a
        seeded ShallowCaps, across configs and floors."""
        _, test = tiny_data
        engine = _engine(trained_tiny, test)
        floors = [10.0, 40.0, engine.accuracy_fp32() - 2.0, 99.0]
        for bits in (1, 2, 3, 5, 8):
            config = _uniform(bits)
            exact = reference_accuracy(engine, config)
            for floor in floors:
                assert engine.meets_floor(config, floor) == (exact >= floor), (
                    bits, floor,
                )

    def test_early_exit_saves_batches(self, trained_tiny, tiny_data):
        _, test = tiny_data
        engine = _engine(trained_tiny, test)
        # A clearly-met low floor is decided after the first batch.
        assert engine.meets_floor(_uniform(8), 5.0)
        assert engine.batches_evaluated == 1 < engine.num_batches
        assert engine.eval_count == 0  # a verdict, not a full evaluation

    def test_partial_then_exact_resumes(self, trained_tiny, tiny_data):
        _, test = tiny_data
        engine = _engine(trained_tiny, test)
        config = _uniform(6)
        engine.meets_floor(config, 5.0)  # early exit, partial progress
        partial = engine.batches_evaluated
        assert partial < engine.num_batches
        value = engine.accuracy(config)  # resume, not restart
        assert engine.batches_evaluated == engine.num_batches
        assert value == reference_accuracy(engine, config)
        assert partial > 0

    def test_sr_exact_under_interleaving(self, trained_tiny, tiny_data):
        """Stochastic rounding: partial evaluation of one config,
        interleaved with another, must equal a monolithic run."""
        _, test = tiny_data
        engine = _engine(trained_tiny, test, scheme="SR")
        a, b = _uniform(5), _uniform(3)
        engine.meets_floor(a, 5.0)  # partial progress on a
        engine.accuracy(b)          # full run on b in between
        resumed = engine.accuracy(a)
        assert resumed == reference_accuracy(engine, a)

    def test_plan_eviction_keeps_results_exact(
        self, trained_tiny, tiny_data, monkeypatch
    ):
        monkeypatch.setattr(evaluate_module, "MAX_PLANS", 2)
        _, test = tiny_data
        engine = _engine(trained_tiny, test)
        configs = {bits: _uniform(bits) for bits in (2, 4, 6)}
        partial = {}
        for bits, config in configs.items():
            before = engine.batches_evaluated
            engine.meets_floor(config, 1.0)  # early exit, left partial
            partial[bits] = engine.batches_evaluated - before
            assert 0 < partial[bits] < engine.num_batches
        # 3 partial plans through a 2-plan LRU: the first was evicted...
        assert list(engine._plans) == [
            config_signature(configs[4]), config_signature(configs[6])
        ]
        # ...and replays from batch 0 with identical results, while the
        # retained plans resume (most recent first, so none is evicted).
        for config in (configs[6], configs[4], configs[2]):
            assert engine.accuracy(config) == reference_accuracy(engine, config)
        assert engine.batches_evaluated == partial[2] + 3 * engine.num_batches

    def test_finished_config_leaves_no_plan(self, trained_tiny, tiny_data):
        """A config whose last batch ran keeps only its memoized
        accuracy: its plan (and the pre-quantized weights) is gone."""
        _, test = tiny_data
        engine = _engine(trained_tiny, test)
        partial, full, near = _uniform(6), _uniform(4), _uniform(8)
        engine.meets_floor(partial, 5.0)
        assert len(engine._plans) == 1
        engine.accuracy(full)
        exact = reference_accuracy(engine, near)
        # A floor at the exact accuracy is only decided by the last batch.
        assert engine.meets_floor(near, exact)
        assert list(engine._plans) == [config_signature(partial)]
        assert engine.eval_count == 2
        batches = engine.batches_evaluated
        assert engine.accuracy(near) == exact  # served from the memo
        assert engine.batches_evaluated == batches
        engine.accuracy_fp32()
        assert list(engine._plans) == [config_signature(partial)]
        assert engine.eval_count == 2  # the FP32 pass is not a search eval

    def test_validation(self, trained_tiny, tiny_data):
        _, test = tiny_data
        with pytest.raises(ValueError):
            _engine(trained_tiny, test, batch_size=0)
        with pytest.raises(ValueError):
            Evaluator(
                trained_tiny, test.images[:0], test.labels[:0],
                get_rounding_scheme("RTN"),
            )


class _StagelessModel(Module):
    """A quantizable model that does not decompose into stages."""

    quant_layers = ["L1"]
    routing_layers = []

    def forward(self, x, q=None):  # pragma: no cover - never reached
        return x


class TestStagelessModelRejected:
    """Every search evaluation runs through a StagedExecutor, so a model
    without ``stages()`` fails at construction (it used to fall back to
    whole-model forwards silently)."""

    def test_evaluator(self, tiny_data):
        _, test = tiny_data
        with pytest.raises(TypeError, match="stages"):
            Evaluator(
                _StagelessModel(), test.images, test.labels,
                get_rounding_scheme("RTN"),
            )

    def test_qcapsnets_build(self, tiny_data):
        _, test = tiny_data
        with pytest.raises(TypeError, match="stages"):
            QCapsNets.build(
                _StagelessModel(), test.images, test.labels,
                accuracy_tolerance=0.01, memory_budget_mbit=1.0,
            )


class TestEvaluatorEngineIntegration:
    def test_meets_floor_uses_memoized_accuracy(self, trained_tiny, tiny_data):
        _, test = tiny_data
        evaluator = Evaluator(
            trained_tiny, test.images, test.labels,
            get_rounding_scheme("RTN"), batch_size=32,
        )
        config = _uniform(6)
        exact = evaluator.accuracy(config)
        batches = evaluator.batches_evaluated
        assert evaluator.meets_floor(config, exact - 1.0)
        assert not evaluator.meets_floor(config, exact + 1.0)
        assert evaluator.batches_evaluated == batches  # no new batches

    def test_accuracy_fp32_memoized(self, trained_tiny, tiny_data):
        """The FP32 pass: one full run of a null (all-FP32) config,
        memoized afterwards, matching a plain full-model evaluation."""
        _, test = tiny_data
        evaluator = Evaluator(
            trained_tiny, test.images, test.labels,
            get_rounding_scheme("RTN"), batch_size=32,
        )
        first = evaluator.accuracy_fp32()
        batches = evaluator.batches_evaluated
        assert batches == evaluator.num_batches  # exactly one full pass
        second = evaluator.accuracy_fp32()
        assert first == second
        assert evaluator.batches_evaluated == batches  # memoized
        assert first == evaluate_accuracy(
            trained_tiny, test.images, test.labels, batch_size=32
        )


class _FullSplitEvaluator:
    """Test-local reference oracle: every query evaluates the whole
    split with :func:`evaluate_accuracy` (no early exit, no plans, no
    prefix reuse) and counts its batches."""

    def __init__(self, evaluator):
        self.inner = evaluator
        self.scheme = evaluator.scheme
        self.executor = evaluator.executor
        self.eval_count = 0
        self.batches_evaluated = 0
        self._cache = {}

    def _full_pass(self, q=None):
        self.batches_evaluated += self.inner.num_batches
        return evaluate_accuracy(
            self.inner.model, self.inner.images, self.inner.labels,
            batch_size=self.inner.batch_size, q=q,
        )

    def accuracy_fp32(self):
        return self._full_pass()

    def accuracy(self, config):
        key = config_signature(config)
        if key not in self._cache:
            self.eval_count += 1
            self._cache[key] = self._full_pass(self.inner.quant_context(config))
        return self._cache[key]

    def meets_floor(self, config, floor):
        return self.accuracy(config) >= floor


class TestSearchEquivalence:
    """Acceptance: an early-exit Algorithm-1 run returns identical
    results to full-split evaluation while evaluating strictly fewer
    batches."""

    @pytest.mark.parametrize(
        "budget_mbit, scheme", [(0.12, "RTN"), (0.02, "RTN"), (0.12, "SR")]
    )
    def test_identical_results_fewer_batches(
        self, trained_tiny, tiny_data, budget_mbit, scheme
    ):
        _, test = tiny_data

        def run(full_split):
            evaluator = Evaluator(
                trained_tiny, test.images, test.labels,
                get_rounding_scheme(scheme, seed=0), batch_size=32,
            )
            if full_split:
                evaluator = _FullSplitEvaluator(evaluator)
            return QCapsNets.build(
                trained_tiny, test.images, test.labels,
                accuracy_tolerance=0.03, memory_budget_mbit=budget_mbit,
                evaluator=evaluator,
            ).run()

        fast = run(False)
        naive = run(True)
        assert fast.path == naive.path
        assert set(fast.models()) == set(naive.models())
        for name, model in naive.models().items():
            other = fast.models()[name]
            assert config_signature(other.config) == config_signature(model.config)
            assert other.accuracy == model.accuracy
        assert fast.accuracy_target == naive.accuracy_target
        assert 0 < fast.batches_evaluated < naive.batches_evaluated
