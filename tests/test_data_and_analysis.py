"""Tests for the synthetic datasets, augmentation, architecture stats
and baselines."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis import deepcaps_stats, fig1_comparison, shallowcaps_stats
from repro.autograd import Tensor
from repro.baselines import LeNet5, alexnet_stats, lenet5_stats, sweep_uniform_bits
from repro.capsnet import DeepCaps, ShallowCaps, presets
from repro.data import (
    DataLoader,
    Dataset,
    augment_cifar,
    augment_digits,
    augment_fashion,
    random_hflip,
    random_rotate,
    random_shift,
    resize_bilinear,
    synth_cifar,
    synth_digits,
    synth_fashion,
    train_test_split,
)


class TestDatasets:
    @pytest.mark.parametrize(
        "factory,channels,size",
        [(synth_digits, 1, 28), (synth_fashion, 1, 28), (synth_cifar, 3, 32)],
    )
    def test_shapes_and_ranges(self, factory, channels, size):
        train, test = factory(train_size=60, test_size=20)
        assert train.images.shape == (60, channels, size, size)
        assert test.images.shape == (20, channels, size, size)
        assert train.images.dtype == np.float32
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0
        assert set(np.unique(train.labels)) <= set(range(10))

    def test_deterministic_in_seed(self):
        a_train, _ = synth_digits(train_size=20, test_size=5, seed=7)
        b_train, _ = synth_digits(train_size=20, test_size=5, seed=7)
        c_train, _ = synth_digits(train_size=20, test_size=5, seed=8)
        assert np.array_equal(a_train.images, b_train.images)
        assert not np.array_equal(a_train.images, c_train.images)

    def test_classes_are_distinguishable(self):
        """Mean images of different digit classes should differ clearly."""
        train, _ = synth_digits(train_size=500, test_size=10, seed=0)
        means = np.stack(
            [train.images[train.labels == c].mean(axis=0) for c in range(10)]
        )
        distances = np.linalg.norm(
            (means[:, None] - means[None, :]).reshape(10, 10, -1), axis=-1
        )
        off_diagonal = distances[~np.eye(10, dtype=bool)]
        assert off_diagonal.min() > 1.0

    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 28, 28)), np.zeros(2))  # missing channel dim
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1, 4, 4)), np.zeros(3))

    def test_subset_balanced(self):
        train, _ = synth_digits(train_size=300, test_size=10)
        subset = train.subset(100, seed=0)
        assert len(subset) == 100
        counts = np.bincount(subset.labels, minlength=10)
        assert counts.min() >= 5

    def test_train_test_split(self):
        train, _ = synth_digits(train_size=100, test_size=10)
        a, b = train_test_split(train, test_fraction=0.25, seed=0)
        assert len(a) == 75 and len(b) == 25
        with pytest.raises(ValueError):
            train_test_split(train, test_fraction=1.5)

    def test_dataloader_batches(self):
        train, _ = synth_digits(train_size=50, test_size=10)
        loader = DataLoader(train, batch_size=16, shuffle=True, seed=0)
        batches = list(loader)
        assert len(loader) == 4
        assert sum(len(labels) for _, labels in batches) == 50
        with pytest.raises(ValueError):
            DataLoader(train, batch_size=0)


def test_import_repro_does_not_load_scipy():
    """scipy is imported lazily by the dataset renderers and augmenters
    that use it, so it stays off the cold-start path of ``import repro``."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    code = "import sys, repro; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


class TestAugment:
    def test_shift_zeroes_wrapped_strip(self, rng):
        images = np.ones((4, 1, 8, 8), dtype=np.float32)
        out = random_shift(images, rng, max_shift=2)
        assert out.shape == images.shape
        assert out.min() >= 0.0

    def test_hflip_involution(self, rng):
        images = rng.random((6, 1, 8, 8)).astype(np.float32)
        flipped = random_hflip(images, np.random.default_rng(0), probability=1.0)
        restored = random_hflip(flipped, np.random.default_rng(0), probability=1.0)
        assert np.allclose(restored, images)

    def test_rotate_preserves_shape_and_range(self, rng):
        images = rng.random((3, 1, 10, 10)).astype(np.float32)
        out = random_rotate(images, rng, max_degrees=10)
        assert out.shape == images.shape

    def test_resize_bilinear(self, rng):
        images = rng.random((2, 3, 32, 32)).astype(np.float32)
        out = resize_bilinear(images, 64)
        assert out.shape == (2, 3, 64, 64)
        assert resize_bilinear(images, 32) .shape == images.shape

    @pytest.mark.parametrize("fn", [augment_digits, augment_fashion, augment_cifar])
    def test_paper_pipelines_shape_stable(self, fn, rng):
        images = rng.random((4, 1, 28, 28)).astype(np.float32)
        assert fn(images, rng).shape == images.shape


class TestArchStats:
    def test_shallowcaps_paper_memory_matches_217mbit(self):
        """Sec. IV-B: 'the memory requirement at FP32 is 217Mbit'."""
        stats = shallowcaps_stats()
        assert stats.memory_mbit() == pytest.approx(217.7, abs=0.5)

    def test_fig1_ordering(self):
        rows = {row.name: row for row in fig1_comparison()}
        # AlexNet has the largest memory; ShallowCaps the largest ratio.
        assert rows["AlexNet"].memory_mbit > rows["ShallowCaps"].memory_mbit
        assert rows["ShallowCaps"].memory_mbit > rows["LeNet"].memory_mbit
        assert (
            rows["ShallowCaps"].macs_per_mbit
            > rows["AlexNet"].macs_per_mbit
            > rows["LeNet"].macs_per_mbit
        )

    @pytest.mark.parametrize(
        "preset,builder,stats_fn",
        [
            (presets.shallowcaps_small(), ShallowCaps, shallowcaps_stats),
            (presets.shallowcaps_tiny(), ShallowCaps, shallowcaps_stats),
            (presets.deepcaps_small(), DeepCaps, deepcaps_stats),
        ],
    )
    def test_analytic_matches_instantiated(self, preset, builder, stats_fn):
        model = builder(preset)
        stats = stats_fn(preset)
        assert stats.param_counts() == model.layer_param_counts()
        assert stats.act_counts() == model.layer_activation_counts()

    def test_op_counts_exported(self):
        ops = shallowcaps_stats().op_counts()
        assert ops["L3"].softmax_calls > 0
        assert ops["L2"].squash_calls > 0
        assert ops["L1"].softmax_calls == 0

    def test_describe(self):
        assert "ShallowCaps" in shallowcaps_stats().describe()


class TestBaselines:
    def test_lenet_param_count_canonical(self):
        assert lenet5_stats().params == 61_706

    def test_alexnet_params_canonical(self):
        assert alexnet_stats().params == pytest.approx(61e6, rel=0.01)

    def test_lenet_runnable_and_hooked(self, rng):
        model = LeNet5()
        out = model(Tensor(rng.random((2, 1, 28, 28)).astype(np.float32)))
        assert out.shape == (2, 10)
        assert sum(model.layer_param_counts().values()) == model.num_parameters()
        assert model.layer_param_counts() == lenet5_stats().param_counts()
        assert set(model.layer_activation_counts()) == set(model.quant_layers)

    def test_uniform_sweep_monotone_trend(self, trained_tiny, tiny_data):
        _, test = tiny_data
        rows = sweep_uniform_bits(
            trained_tiny, test.images, test.labels, bits_list=(12, 6, 1)
        )
        accs = [row["accuracy"] for row in rows]
        # High bits ≈ FP32; 1 bit should be clearly worse.
        assert accs[0] >= accs[-1]
        assert accs[0] - accs[-1] > 5.0
