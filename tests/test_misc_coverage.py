"""Additional coverage: edge cases across modules that the main suites
do not reach."""

import numpy as np
import pytest

from repro.capsnet import ShallowCaps, presets
from repro.data import Dataset, synth_cifar, synth_fashion
from repro.framework import QCapsNets
from repro.framework.evaluate import config_signature
from repro.hw import MemoryInterface, UMC65
from repro.hw.fixed_ref import exp_lut
from repro.nn import Trainer, Adam, evaluate_accuracy
from repro.quant import FixedPointFormat, QuantizationConfig


class TestDatasetDistinguishability:
    """All three synthetic datasets must present separable classes —
    otherwise the quantization accuracy curves would be meaningless."""

    @pytest.mark.parametrize("factory", [synth_fashion, synth_cifar])
    def test_class_means_separate(self, factory):
        train, _ = factory(train_size=400, test_size=10, seed=0)
        means = np.stack(
            [train.images[train.labels == c].mean(axis=0) for c in range(10)]
        )
        distances = np.linalg.norm(
            (means[:, None] - means[None, :]).reshape(10, 10, -1), axis=-1
        )
        off_diagonal = distances[~np.eye(10, dtype=bool)]
        assert off_diagonal.min() > 0.5

    def test_subset_larger_than_dataset_returns_self(self):
        train, _ = synth_fashion(train_size=30, test_size=5)
        assert train.subset(100) is train

    def test_num_classes_empty(self):
        empty = Dataset(np.zeros((0, 1, 4, 4)), np.zeros(0))
        assert empty.num_classes == 0


class TestStep1ToleranceFraction:
    def test_fraction_zero_forces_fp32_level_step1(self, trained_tiny, tiny_data):
        """With a 0% step-1 fraction, step 1 must stay at the FP32
        accuracy floor, pushing the uniform wordlength up."""
        _, test = tiny_data
        strict = QCapsNets.build(
            trained_tiny, test.images, test.labels,
            accuracy_tolerance=0.05, memory_budget_mbit=0.1,
            scheme="RTN", step1_tolerance_fraction=0.0,
        ).run()
        loose = QCapsNets.build(
            trained_tiny, test.images, test.labels,
            accuracy_tolerance=0.05, memory_budget_mbit=0.1,
            scheme="RTN", step1_tolerance_fraction=1.0,
        ).run()
        strict_bits = strict.model_uniform.config["L1"].qa
        loose_bits = loose.model_uniform.config["L1"].qa
        assert strict_bits >= loose_bits


class TestConfigSignature:
    def test_distinguishes_qdr(self):
        a = QuantizationConfig.uniform(["L1"], qw=4, qa=4)
        b = QuantizationConfig.uniform(["L1"], qw=4, qa=4, qdr=2)
        assert config_signature(a) != config_signature(b)

    def test_clone_has_same_signature(self):
        a = QuantizationConfig.uniform(["L1", "L2"], qw=4, qa=3, qdr=2)
        assert config_signature(a) == config_signature(a.clone())


class TestHardwareEdgeCases:
    def test_exp_lut_output_format_guard_bits(self):
        fmt = FixedPointFormat(1, 6)
        table, out_fmt = exp_lut(fmt, guard_bits=3)
        assert out_fmt.integer_bits == 4
        # e^max_value must be representable in the widened format.
        assert table.max() <= out_fmt.int_max

    def test_memory_interface_area(self):
        memory = MemoryInterface(UMC65)
        assert memory.sram_area_um2(1024) == pytest.approx(
            1024 * UMC65.sram_bit_area_um2
        )

    def test_scaled_tech_keeps_dram_cost(self):
        scaled = UMC65.scaled_to(28)
        assert scaled.dram_access_pj_per_bit == UMC65.dram_access_pj_per_bit


class TestEvaluateAccuracyBatching:
    def test_all_batch_sizes_agree(self, trained_tiny, tiny_data):
        _, test = tiny_data
        accs = {
            bs: evaluate_accuracy(
                trained_tiny, test.images[:100], test.labels[:100],
                batch_size=bs,
            )
            for bs in (1, 7, 32, 100, 1000)
        }
        assert len(set(accs.values())) == 1

    def test_eval_restores_training_mode(self, trained_tiny, tiny_data):
        _, test = tiny_data
        trained_tiny.train()
        evaluate_accuracy(trained_tiny, test.images[:10], test.labels[:10])
        assert trained_tiny.training
        trained_tiny.eval()
        evaluate_accuracy(trained_tiny, test.images[:10], test.labels[:10])
        assert not trained_tiny.training


class TestTrainerAugmentation:
    def test_augment_fn_called_on_training_batches(self, tiny_data):
        train, _ = tiny_data
        calls = []

        def spy_augment(images, rng):
            calls.append(images.shape[0])
            return images

        model = ShallowCaps(presets.shallowcaps_tiny())
        trainer = Trainer(
            model, Adam(model.parameters(), lr=0.01), augment_fn=spy_augment
        )
        trainer.train_epoch(train.images[:64], train.labels[:64], batch_size=32)
        assert sum(calls) == 64
