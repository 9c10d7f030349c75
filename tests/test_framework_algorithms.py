"""Unit tests for the search primitives of Algorithms 1-3 and Eq. 6.

These run against synthetic accuracy oracles (no model, no data), so
they pin down the exact semantics of each algorithm: which layers move,
in what order, and where the searches stop.
"""

from typing import Dict

import pytest

from repro.framework import (
    binary_search_wordlength,
    layerwise_quantization,
    routing_quantization,
    solve_eq6,
)
from repro.framework.steps import memory_fulfillment_bits
from repro.quant import QuantizationConfig

LAYERS = ["L1", "L2", "L3"]


class FakeEvaluator:
    """Accuracy oracle driven by a deterministic function of the config."""

    def __init__(self, fn):
        self.fn = fn
        self.eval_count = 0

    def accuracy(self, config: QuantizationConfig) -> float:
        self.eval_count += 1
        return self.fn(config)

    def meets_floor(self, config: QuantizationConfig, floor: float) -> bool:
        return self.accuracy(config) >= floor


class TestBinarySearch:
    def test_finds_minimum_satisfying_bits(self):
        calls = []

        def measure(bits):
            calls.append(bits)
            return 90.0 if bits >= 7 else 50.0

        bits, acc = binary_search_wordlength(measure, acc_min=80.0, q_init=32)
        assert bits == 7
        assert acc == 90.0
        assert len(calls) <= 7  # logarithmic

    def test_returns_qinit_when_unsatisfiable(self):
        bits, acc = binary_search_wordlength(
            lambda b: 10.0, acc_min=80.0, q_init=16
        )
        assert bits == 16 and acc == 10.0

    def test_respects_qmin(self):
        bits, _ = binary_search_wordlength(
            lambda b: 99.0, acc_min=50.0, q_init=32, q_min=3
        )
        assert bits == 3

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            binary_search_wordlength(lambda b: 0.0, 50.0, q_init=4, q_min=8)

    def test_qmin_equals_qinit(self):
        calls = []

        def measure(bits):
            calls.append(bits)
            return 90.0

        bits, acc = binary_search_wordlength(
            measure, acc_min=80.0, q_init=6, q_min=6
        )
        assert (bits, acc) == (6, 90.0)
        assert calls == [6]  # the degenerate interval needs one probe

    def test_unmet_floor_returns_qinit_accuracy(self):
        accuracies = {bits: 10.0 + bits for bits in range(1, 17)}
        bits, acc = binary_search_wordlength(
            accuracies.__getitem__, acc_min=80.0, q_init=16
        )
        assert bits == 16
        assert acc == accuracies[16]

    @pytest.mark.parametrize("crossover", [1, 5, 13, 32])
    def test_returned_accuracy_matches_returned_bits(self, crossover):
        # Distinct accuracy per bit count: any mismatch between the
        # returned pair is detectable.
        def measure(bits):
            return (90.0 if bits >= crossover else 40.0) + bits / 100.0

        bits, acc = binary_search_wordlength(measure, acc_min=80.0, q_init=32)
        assert bits == crossover
        assert acc == measure(bits)

    def test_verdict_probes_defer_measurement(self):
        """With ``meets``, probes are verdicts; measure() runs once for
        the chosen wordlength only."""
        measured = []

        def measure(bits):
            measured.append(bits)
            return 90.0 if bits >= 7 else 50.0

        bits, acc = binary_search_wordlength(
            measure, acc_min=80.0, q_init=32,
            meets=lambda b: b >= 7,
        )
        assert (bits, acc) == (7, 90.0)
        assert measured == [7]

    def test_verdict_mode_matches_measure_mode(self):
        for crossover in (1, 4, 9, 32):
            def measure(bits):
                return 99.0 if bits >= crossover else 0.0

            plain = binary_search_wordlength(measure, 50.0, q_init=32)
            verdict = binary_search_wordlength(
                measure, 50.0, q_init=32, meets=lambda b: measure(b) >= 50.0
            )
            assert plain == verdict

    def test_verdict_mode_unmet_floor(self):
        bits, acc = binary_search_wordlength(
            lambda b: 10.0, acc_min=80.0, q_init=16, meets=lambda b: False
        )
        assert (bits, acc) == (16, 10.0)

    def test_need_accuracy_false_skips_measurement(self):
        bits, acc = binary_search_wordlength(
            measure=None, acc_min=80.0, q_init=32,
            meets=lambda b: b >= 7, need_accuracy=False,
        )
        assert (bits, acc) == (7, None)
        bits, acc = binary_search_wordlength(
            measure=None, acc_min=80.0, q_init=16,
            meets=lambda b: False, need_accuracy=False,
        )
        assert (bits, acc) == (16, None)

    def test_measure_required_unless_verdict_only(self):
        with pytest.raises(ValueError):
            binary_search_wordlength(None, acc_min=80.0, q_init=16)
        with pytest.raises(ValueError):
            binary_search_wordlength(
                None, acc_min=80.0, q_init=16, meets=lambda b: True
            )


class TestEq6:
    def test_exact_descending_assignment(self):
        # 3 layers x 100 params; budget 2400 bits -> T0=9: 100*(9+8+7)=2400.
        solution = solve_eq6([100, 100, 100], 2400)
        assert solution.total_bits_per_layer == [9, 8, 7]
        assert solution.budget_met
        assert solution.weight_bits_total == 2400

    def test_maximality(self):
        # One more bit on T0 must exceed the budget.
        solution = solve_eq6([100, 100, 100], 2500)
        assert solution.total_bits_per_layer[0] == 9
        bump = sum(100 * (10 - l) for l in range(3))
        assert bump > 2500

    def test_weighting_by_param_counts(self):
        # A huge late layer pulls the whole assignment down.
        solution = solve_eq6([10, 10, 10_000], 50_000)
        assert solution.total_bits_per_layer[0] <= 8

    def test_clamps_at_one_bit(self):
        solution = solve_eq6([10, 10, 10, 10, 10], 150)
        assert all(bits >= 1 for bits in solution.total_bits_per_layer)

    def test_infeasible_budget_flagged(self):
        solution = solve_eq6([1000, 1000], 100)
        assert not solution.budget_met
        assert solution.total_bits_per_layer == [1, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_eq6([], 100)
        with pytest.raises(ValueError):
            solve_eq6([10, -1], 100)
        with pytest.raises(ValueError):
            solve_eq6([10], 0)

    def test_fractional_bits_conversion(self):
        counts: Dict[str, int] = {"L1": 100, "L2": 100, "L3": 100}
        qw = memory_fulfillment_bits(counts, LAYERS, 2400, integer_bits=1)
        assert qw == {"L1": 8, "L2": 7, "L3": 6}

    def test_fractional_bits_floor_zero(self):
        counts = {"L1": 100, "L2": 100, "L3": 100}
        qw = memory_fulfillment_bits(counts, LAYERS, 350, integer_bits=1)
        assert min(qw.values()) == 0


class TestLayerwise(object):
    """Algorithm 2 semantics against a fake evaluator."""

    @staticmethod
    def _acc_from_floor(floors):
        """Accuracy is 100 unless any layer dips below its floor."""

        def fn(config):
            for layer, floor in floors.items():
                if config[layer].qa is not None and config[layer].qa < floor:
                    return 0.0
            return 100.0

        return fn

    def test_first_layer_never_reduced(self):
        evaluator = FakeEvaluator(self._acc_from_floor({}))
        config = QuantizationConfig.uniform(LAYERS, qw=8, qa=8)
        out = layerwise_quantization(evaluator, config, "activations", 50.0,
                                     min_bits=2)
        assert out["L1"].qa == 8
        assert out["L2"].qa == 2 and out["L3"].qa == 2

    def test_respects_per_layer_floors(self):
        evaluator = FakeEvaluator(self._acc_from_floor({"L2": 5, "L3": 3}))
        config = QuantizationConfig.uniform(LAYERS, qw=8, qa=8)
        out = layerwise_quantization(evaluator, config, "activations", 50.0)
        assert out["L2"].qa == 5
        assert out["L3"].qa == 3

    def test_profile_non_increasing(self):
        evaluator = FakeEvaluator(self._acc_from_floor({"L2": 4}))
        config = QuantizationConfig.uniform(LAYERS, qw=8, qa=8)
        out = layerwise_quantization(evaluator, config, "activations", 50.0,
                                     min_bits=1)
        qa = [out[name].qa for name in LAYERS[1:]]
        assert qa == sorted(qa, reverse=True)

    def test_weights_kind(self):
        def fn(config):
            return 100.0 if config["L3"].qw >= 6 else 0.0

        evaluator = FakeEvaluator(fn)
        config = QuantizationConfig.uniform(LAYERS, qw=8, qa=8)
        out = layerwise_quantization(evaluator, config, "weights", 50.0)
        assert out["L3"].qw == 6
        assert out["L1"].qw == 8  # untouched first layer

    def test_input_config_not_mutated(self):
        evaluator = FakeEvaluator(self._acc_from_floor({}))
        config = QuantizationConfig.uniform(LAYERS, qw=8, qa=8)
        layerwise_quantization(evaluator, config, "activations", 50.0, min_bits=4)
        assert config["L3"].qa == 8

    def test_requires_initial_bits(self):
        evaluator = FakeEvaluator(self._acc_from_floor({}))
        config = QuantizationConfig(LAYERS.copy())  # all None
        with pytest.raises(ValueError):
            layerwise_quantization(evaluator, config, "activations", 50.0)

    def test_invalid_kind(self):
        evaluator = FakeEvaluator(self._acc_from_floor({}))
        config = QuantizationConfig.uniform(LAYERS, qw=8, qa=8)
        with pytest.raises(ValueError):
            layerwise_quantization(evaluator, config, "logits", 50.0)


class TestRoutingQuantization:
    """Algorithm 3 semantics."""

    def test_descends_to_floor(self):
        def fn(config):
            qdr = config["L3"].effective_qdr()
            return 100.0 if qdr >= 3 else 0.0

        evaluator = FakeEvaluator(fn)
        config = QuantizationConfig.uniform(LAYERS, qw=8, qa=8)
        out = routing_quantization(evaluator, config, "L3", 50.0)
        assert out["L3"].qdr == 3
        assert out["L2"].effective_qdr() == 8  # other layers untouched

    def test_starts_from_layer_qa(self):
        seen = []

        def fn(config):
            seen.append(config["L3"].effective_qdr())
            return 100.0

        evaluator = FakeEvaluator(fn)
        config = QuantizationConfig.uniform(LAYERS, qw=8, qa=5)
        out = routing_quantization(evaluator, config, "L3", 50.0, min_bits=2)
        assert seen[0] == 4  # first probe is qa - 1
        assert out["L3"].qdr == 2  # descends to the floor

    def test_never_increases(self):
        evaluator = FakeEvaluator(lambda config: 0.0)  # everything fails
        config = QuantizationConfig.uniform(LAYERS, qw=8, qa=6)
        out = routing_quantization(evaluator, config, "L3", 50.0)
        assert out["L3"].effective_qdr() == 6

    def test_requires_initial_bits(self):
        evaluator = FakeEvaluator(lambda config: 100.0)
        config = QuantizationConfig(LAYERS.copy())
        with pytest.raises(ValueError):
            routing_quantization(evaluator, config, "L3", 50.0)
