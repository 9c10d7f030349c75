"""End-to-end tests of Algorithm 1 and the rounding-scheme selection,

run on a real trained tiny CapsNet (session fixture)."""

import pytest

from repro.framework import (
    Evaluator,
    QCapsNets,
    scheme_search,
    select_best,
)
from repro.framework.results import QCapsNetsResult, QuantizedModelResult
from repro.quant import MemoryReport, QuantizationConfig, get_rounding_scheme

LAYERS = ["L1", "L2", "L3"]


def _make_result(scheme, path, weight_bits_per_param, accuracy, qa=6):
    """Fabricate a QCapsNetsResult for selection-criteria tests."""
    params = {"L1": 100, "L2": 100, "L3": 100}
    acts = {"L1": 10, "L2": 10, "L3": 10}
    config = QuantizationConfig.uniform(
        LAYERS, qw=weight_bits_per_param - 1, qa=qa
    )
    model = QuantizedModelResult(
        label="model",
        config=config,
        accuracy=accuracy,
        memory=MemoryReport(params, acts, config),
        scheme_name=scheme,
    )
    result = QCapsNetsResult(
        scheme_name=scheme,
        accuracy_fp32=90.0,
        accuracy_target=88.0,
        memory_budget_bits=10_000,
        path=path,
    )
    if path == "A":
        result.model_satisfied = model
    else:
        result.model_memory = model
        result.model_accuracy = model
    return result


class TestSelectionCriteria:
    def test_path_a_discards_path_b(self):
        results = {
            "TRN": _make_result("TRN", "B", 4, 89.0),
            "SR": _make_result("SR", "A", 8, 89.0),
        }
        outcome = select_best(results)
        assert outcome.path == "A"
        assert outcome.best.scheme_name == "SR"
        assert outcome.best_memory_model is None

    def test_path_a_prefers_lower_memory(self):
        results = {
            "TRN": _make_result("TRN", "A", 8, 89.0),
            "SR": _make_result("SR", "A", 6, 88.5),
        }
        assert select_best(results).best.scheme_name == "SR"

    def test_path_a_ties_break_on_activation_bits(self):
        results = {
            "TRN": _make_result("TRN", "A", 8, 89.0, qa=7),
            "SR": _make_result("SR", "A", 8, 89.0, qa=5),
        }
        assert select_best(results).best.scheme_name == "SR"

    def test_path_a_final_tie_prefers_simple_scheme(self):
        results = {
            "SR": _make_result("SR", "A", 8, 89.0),
            "TRN": _make_result("TRN", "A", 8, 89.0),
        }
        assert select_best(results).best.scheme_name == "TRN"

    def test_path_b_returns_two_models(self):
        results = {
            "TRN": _make_result("TRN", "B", 4, 70.0),
            "SR": _make_result("SR", "B", 4, 75.0),
        }
        outcome = select_best(results)
        assert outcome.path == "B"
        assert outcome.best_memory_model.scheme_name == "SR"  # higher acc
        assert outcome.best_accuracy_model is not None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_best({})


class TestQCapsNetsEndToEnd:
    def test_path_a_satisfies_both_constraints(self, trained_tiny, tiny_data):
        _, test = tiny_data
        framework = QCapsNets.build(
            trained_tiny, test.images, test.labels,
            accuracy_tolerance=0.03, memory_budget_mbit=0.12, scheme="RTN",
        )
        result = framework.run()
        assert result.path == "A"
        model = result.model_satisfied
        assert model is not None
        assert model.accuracy >= result.accuracy_target
        assert model.memory.weight_bits <= result.memory_budget_bits
        # Step 4A must not leave routing above the activation wordlength.
        qdr = model.config["L3"].effective_qdr()
        assert qdr <= model.config["L3"].qa

    def test_path_b_returns_trade_off_pair(self, trained_tiny, tiny_data):
        _, test = tiny_data
        framework = QCapsNets.build(
            trained_tiny, test.images, test.labels,
            accuracy_tolerance=0.02, memory_budget_mbit=0.02, scheme="RTN",
        )
        result = framework.run()
        assert result.path == "B"
        assert result.model_satisfied is None
        memory_model = result.model_memory
        accuracy_model = result.model_accuracy
        assert memory_model.memory.weight_bits <= result.memory_budget_bits
        assert accuracy_model.accuracy >= result.accuracy_target
        # The trade-off: the memory model is smaller, the accuracy model
        # is more accurate.
        assert memory_model.memory.weight_bits < accuracy_model.memory.weight_bits
        assert accuracy_model.accuracy > memory_model.accuracy

    def test_eq6_descending_wordlengths(self, trained_tiny, tiny_data):
        _, test = tiny_data
        framework = QCapsNets.build(
            trained_tiny, test.images, test.labels,
            accuracy_tolerance=0.02, memory_budget_mbit=0.02, scheme="RTN",
        )
        result = framework.run()
        qw = result.model_memory.config.qw_vector()
        assert qw == sorted(qw, reverse=True)

    def test_uniform_model_reported(self, trained_tiny, tiny_data):
        _, test = tiny_data
        result = QCapsNets.build(
            trained_tiny, test.images, test.labels,
            accuracy_tolerance=0.03, memory_budget_mbit=0.12, scheme="TRN",
        ).run()
        uniform = result.model_uniform
        assert uniform is not None
        qw = uniform.config.qw_vector()
        assert len(set(qw)) == 1  # layer-uniform by construction

    def test_input_validation(self, trained_tiny, tiny_data):
        _, test = tiny_data
        with pytest.raises(ValueError):
            QCapsNets.build(trained_tiny, test.images, test.labels,
                            accuracy_tolerance=-0.1, memory_budget_mbit=1.0)
        with pytest.raises(ValueError):
            QCapsNets.build(trained_tiny, test.images, test.labels,
                            accuracy_tolerance=0.1, memory_budget_mbit=0.0)

    def test_summary_mentions_models(self, trained_tiny, tiny_data):
        _, test = tiny_data
        result = QCapsNets.build(
            trained_tiny, test.images, test.labels,
            accuracy_tolerance=0.03, memory_budget_mbit=0.12,
        ).run()
        text = result.summary()
        assert "model_satisfied" in text
        assert "acc_target" in text


class TestEvaluator:
    def test_memoization(self, trained_tiny, tiny_data):
        _, test = tiny_data
        evaluator = Evaluator(
            trained_tiny, test.images, test.labels, get_rounding_scheme("RTN")
        )
        config = QuantizationConfig.uniform(LAYERS, qw=8, qa=8)
        first = evaluator.accuracy(config)
        count = evaluator.eval_count
        second = evaluator.accuracy(config.clone())
        assert first == second
        assert evaluator.eval_count == count  # cache hit

    def test_sr_deterministic_across_calls(self, trained_tiny, tiny_data):
        _, test = tiny_data
        scheme = get_rounding_scheme("SR", seed=5)
        evaluator = Evaluator(
            trained_tiny, test.images, test.labels, scheme
        )
        config = QuantizationConfig.uniform(LAYERS, qw=5, qa=5)
        first = evaluator.accuracy(config)
        evaluator._cache.clear()
        second = evaluator.accuracy(config)
        assert first == second


class TestRoundingSchemeSearch:
    def test_runs_all_schemes(self, trained_tiny, tiny_data):
        _, test = tiny_data

        def make(scheme_name):
            return QCapsNets.build(
                trained_tiny, test.images, test.labels,
                accuracy_tolerance=0.03, memory_budget_mbit=0.12,
                scheme=scheme_name,
            )

        outcome = scheme_search(make, schemes=("TRN", "RTN"))
        assert set(outcome.per_scheme) == {"TRN", "RTN"}
        assert outcome.path in ("A", "B")
        assert outcome.summary()
