"""Cross-model integration: the framework is model-agnostic.

The quantization hook protocol (Fig. 9) is implemented by ShallowCaps,
DeepCaps *and* the LeNet-5 baseline; the framework must run end-to-end
on all of them — a CNN simply has no routing layers for Step 4A.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.baselines import LeNet5
from repro.capsnet import DeepCaps, presets
from repro.data import synth_digits
from repro.framework import QCapsNets
from repro.nn import Adam, Trainer, cross_entropy, evaluate_accuracy
from repro.nn.trainer import (
    capsule_predictions,
    default_predictions,
    logit_predictions,
)


class TestDefaultPredictions:
    def test_capsule_outputs(self, rng):
        caps = np.zeros((4, 3, 5), dtype=np.float32)
        caps[np.arange(4), [0, 1, 2, 1], 0] = 1.0
        out = default_predictions(Tensor(caps))
        assert np.array_equal(out, [0, 1, 2, 1])
        assert np.array_equal(out, capsule_predictions(Tensor(caps)))

    def test_logit_outputs(self, rng):
        logits = rng.standard_normal((6, 10)).astype(np.float32)
        out = default_predictions(Tensor(logits))
        assert np.array_equal(out, logit_predictions(Tensor(logits)))

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError):
            default_predictions(Tensor(np.zeros(4)))


@pytest.fixture(scope="module")
def lenet_setup():
    train, test = synth_digits(train_size=800, test_size=200, image_size=28,
                               seed=3)
    model = LeNet5(seed=0)
    Trainer(
        model,
        Adam(model.parameters(), lr=0.002),
        loss_fn=cross_entropy,
        predict_fn=logit_predictions,
    ).fit(train.images, train.labels, epochs=3, batch_size=64)
    accuracy = evaluate_accuracy(
        model, test.images, test.labels, predict_fn=logit_predictions
    )
    return model, test, accuracy


class TestLeNetThroughFramework:
    def test_framework_runs_on_cnn(self, lenet_setup):
        model, test, fp32_accuracy = lenet_setup
        assert fp32_accuracy > 60.0  # trained enough to be meaningful
        budget = sum(model.layer_param_counts().values()) * 32 / 1e6 / 6
        result = QCapsNets.build(
            model, test.images, test.labels,
            accuracy_tolerance=0.03, memory_budget_mbit=budget,
            scheme="RTN", accuracy_fp32=fp32_accuracy,
        ).run()
        best = result.model_satisfied or result.model_accuracy
        # The framework produced a usable CNN model, not garbage.
        assert best.accuracy >= result.accuracy_target
        assert best.weight_reduction > 3.0

    def test_no_routing_layers_means_no_qdr_specialization(self, lenet_setup):
        model, test, fp32_accuracy = lenet_setup
        assert model.routing_layers == []
        budget = sum(model.layer_param_counts().values()) * 32 / 1e6 / 5
        result = QCapsNets.build(
            model, test.images, test.labels,
            accuracy_tolerance=0.05, memory_budget_mbit=budget,
            scheme="RTN", accuracy_fp32=fp32_accuracy,
        ).run()
        for quantized in result.models().values():
            for layer in model.quant_layers:
                spec = quantized.config[layer]
                assert spec.qdr is None  # Step 4A never touched a CNN


class TestDeepCapsThroughFramework:
    """A reduced DeepCaps run exercises multi-routing-layer Step 4A."""

    def test_step4a_touches_both_routing_layers(self):
        train, test = synth_digits(
            train_size=600, test_size=128, image_size=28, seed=5
        )
        model = DeepCaps(presets.deepcaps_small(input_size=28))
        Trainer(model, Adam(model.parameters(), lr=0.003)).fit(
            train.images, train.labels, epochs=3, batch_size=64
        )
        fp32_accuracy = evaluate_accuracy(model, test.images, test.labels)
        budget = sum(model.layer_param_counts().values()) * 32 / 1e6 / 4
        result = QCapsNets.build(
            model, test.images, test.labels,
            accuracy_tolerance=0.06, memory_budget_mbit=budget,
            scheme="RTN", accuracy_fp32=fp32_accuracy,
        ).run()
        if result.path == "A":
            config = result.model_satisfied.config
            for layer in model.routing_layers:
                assert config[layer].effective_qdr() <= config[layer].qa
        else:
            # Even on Path B the framework must return the pair.
            assert result.model_memory and result.model_accuracy


class TestQuantizedStateIsolation:
    def test_fp32_weights_untouched_by_search(self, trained_tiny, tiny_data):
        """Quantized evaluation must never mutate the trained weights."""
        _, test = tiny_data
        before = {
            name: param.data.copy()
            for name, param in trained_tiny.named_parameters()
        }
        QCapsNets.build(
            trained_tiny, test.images, test.labels,
            accuracy_tolerance=0.03, memory_budget_mbit=0.1, scheme="SR",
        ).run()
        for name, param in trained_tiny.named_parameters():
            assert np.array_equal(param.data, before[name]), name

    def test_quantized_forward_does_not_build_graph(self, trained_tiny, tiny_data):
        _, test = tiny_data
        from repro.quant import (
            FixedPointQuant,
            QuantizationConfig,
            get_rounding_scheme,
        )

        config = QuantizationConfig.uniform(
            trained_tiny.quant_layers, qw=6, qa=6
        )
        context = FixedPointQuant(config, get_rounding_scheme("RTN"))
        with no_grad():
            out = trained_tiny(Tensor(test.images[:8]), q=context)
        assert not out.requires_grad
