"""Tests for the batched inference engine (src/repro/engine/).

The engine's contract is *exactness*: ``meets_floor`` must return
precisely ``accuracy(config) >= floor`` while evaluating fewer batches,
and resumed partial evaluations must be bit-identical to monolithic
ones — including under stochastic rounding.  These tests pin that
contract on synthetic counts and on a real seeded ShallowCaps.
"""

import pytest

from repro.engine import (
    InferencePlan,
    StreamingEvaluator,
    config_signature,
    floor_oracle,
    floor_threshold,
)
from repro.framework import Evaluator, QCapsNets
from repro.quant import QuantizationConfig, calibrate_scales, get_rounding_scheme

LAYERS = ["L1", "L2", "L3"]


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


class TestFloorOracle:
    def test_prefers_meets_floor(self):
        class WithVerdict:
            def meets_floor(self, config, floor):
                return True

            def accuracy(self, config):  # pragma: no cover
                raise AssertionError("must not be called")

        assert floor_oracle(WithVerdict())(None, 50.0) is True

    def test_falls_back_to_accuracy(self):
        class Plain:
            def accuracy(self, config):
                return 75.0

        meets = floor_oracle(Plain())
        assert meets(None, 70.0) is True
        assert meets(None, 80.0) is False


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


def _engine(model, test, scheme="RTN", batch_size=32, **kwargs):
    # Same calibrated pre-scaling the Evaluator would compute, so raw
    # engine results are comparable with Evaluator results.
    scales = calibrate_scales(model, test.images, batch_size=batch_size)
    return StreamingEvaluator(
        model, test.images, test.labels,
        get_rounding_scheme(scheme, seed=0), batch_size=batch_size,
        scales=scales, **kwargs
    )


def _uniform(bits):
    return QuantizationConfig.uniform(LAYERS, qw=bits, qa=bits)


class TestStreamingEvaluator:
    def test_accuracy_matches_naive_evaluator(self, trained_tiny, tiny_data):
        _, test = tiny_data
        naive = Evaluator(
            trained_tiny, test.images, test.labels,
            get_rounding_scheme("RTN"), batch_size=32, use_engine=False,
        )
        engine = _engine(trained_tiny, test)
        for bits in (2, 4, 8):
            assert engine.accuracy(_uniform(bits)) == naive.accuracy(_uniform(bits))

    def test_verdicts_match_full_evaluation(self, trained_tiny, tiny_data):
        """Engine verdicts agree with full-evaluation verdicts on a
        seeded ShallowCaps, across configs and floors."""
        _, test = tiny_data
        naive = Evaluator(
            trained_tiny, test.images, test.labels,
            get_rounding_scheme("RTN"), batch_size=32, use_engine=False,
        )
        engine = _engine(trained_tiny, test)
        floors = [10.0, 40.0, naive.accuracy_fp32() - 2.0, 99.0]
        for bits in (1, 2, 3, 5, 8):
            config = _uniform(bits)
            exact = naive.accuracy(config)
            for floor in floors:
                assert engine.meets_floor(config, floor) == (exact >= floor), (
                    bits, floor,
                )

    def test_early_exit_saves_batches(self, trained_tiny, tiny_data):
        _, test = tiny_data
        engine = _engine(trained_tiny, test)
        # A clearly-met low floor is decided after the first batch.
        assert engine.meets_floor(_uniform(8), 5.0)
        assert engine.batches_evaluated < engine.num_batches
        assert engine.early_exits == 1

    def test_partial_then_exact_resumes(self, trained_tiny, tiny_data):
        _, test = tiny_data
        engine = _engine(trained_tiny, test)
        naive = Evaluator(
            trained_tiny, test.images, test.labels,
            get_rounding_scheme("RTN"), batch_size=32, use_engine=False,
        )
        config = _uniform(6)
        engine.meets_floor(config, 5.0)  # early exit, partial progress
        partial = engine.batches_evaluated
        assert partial < engine.num_batches
        value = engine.accuracy(config)  # resume, not restart
        assert engine.batches_evaluated == engine.num_batches
        assert value == naive.accuracy(config)
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
        naive = Evaluator(
            trained_tiny, test.images, test.labels,
            get_rounding_scheme("SR", seed=0), batch_size=32, use_engine=False,
        )
        assert resumed == naive.accuracy(a)

    def test_plan_eviction_keeps_results_exact(self, trained_tiny, tiny_data):
        _, test = tiny_data
        engine = _engine(trained_tiny, test, max_plans=2)
        reference = {bits: engine.accuracy(_uniform(bits)) for bits in (2, 4, 6)}
        # 3 configs through a 2-plan cache: the first was evicted;
        # re-evaluating replays from batch 0 with identical results.
        assert len(engine._plans) == 2
        for bits, value in reference.items():
            assert engine.accuracy(_uniform(bits)) == value

    def test_validation(self, trained_tiny, tiny_data):
        _, test = tiny_data
        with pytest.raises(ValueError):
            _engine(trained_tiny, test, batch_size=0)
        with pytest.raises(ValueError):
            _engine(trained_tiny, test, max_plans=0)
        with pytest.raises(ValueError):
            StreamingEvaluator(
                trained_tiny, test.images[:0], test.labels[:0],
                get_rounding_scheme("RTN"),
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
        assert evaluator.probe_count == 2

    def test_accuracy_fp32_memoized(self, trained_tiny, tiny_data):
        """Engine-backed FP32 pass: one full run of a null (all-FP32)
        config, memoized afterwards, matching the naive evaluation."""
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
        naive = Evaluator(
            trained_tiny, test.images, test.labels,
            get_rounding_scheme("RTN"), batch_size=32, use_engine=False,
        )
        assert first == naive.accuracy_fp32()

    def test_accuracy_fp32_naive_memoized(
        self, trained_tiny, tiny_data, monkeypatch
    ):
        import repro.framework.evaluate as evaluate_module

        _, test = tiny_data
        evaluator = Evaluator(
            trained_tiny, test.images, test.labels,
            get_rounding_scheme("RTN"), batch_size=32, use_engine=False,
        )
        calls = []
        original = evaluate_module.evaluate_accuracy

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(evaluate_module, "evaluate_accuracy", counting)
        first = evaluator.accuracy_fp32()
        second = evaluator.accuracy_fp32()
        assert first == second
        assert len(calls) == 1


class TestSearchEquivalence:
    """Acceptance: an engine-backed Algorithm-1 run returns identical
    results to the naive path while evaluating strictly fewer batches."""

    @pytest.mark.parametrize(
        "budget_mbit, scheme", [(0.12, "RTN"), (0.02, "RTN"), (0.12, "SR")]
    )
    def test_identical_results_fewer_batches(
        self, trained_tiny, tiny_data, budget_mbit, scheme
    ):
        _, test = tiny_data

        def run(use_engine):
            return QCapsNets.build(
                trained_tiny, test.images, test.labels,
                accuracy_tolerance=0.03, memory_budget_mbit=budget_mbit,
                scheme=scheme, batch_size=32, use_engine=use_engine,
            ).run()

        fast = run(True)
        naive = run(False)
        assert fast.path == naive.path
        assert set(fast.models()) == set(naive.models())
        for name, model in naive.models().items():
            other = fast.models()[name]
            assert config_signature(other.config) == config_signature(model.config)
            assert other.accuracy == model.accuracy
        assert fast.accuracy_target == naive.accuracy_target
        assert 0 < fast.batches_evaluated < naive.batches_evaluated
