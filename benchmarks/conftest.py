"""Shared benchmark infrastructure.

Trained models are expensive (minutes of NumPy training), so they are
cached on disk under ``benchmarks/_cache`` keyed by configuration; the
first benchmark run trains them, later runs load the weights.  Results
tables for every figure are both printed and written under
``benchmarks/results/`` so the numbers quoted in README.md are
regenerable.
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple

import pytest

from repro.capsnet import DeepCaps, ShallowCaps, presets
from repro.data import Dataset, synth_cifar, synth_digits, synth_fashion
from repro.nn import Adam, Trainer, evaluate_accuracy

BENCH_DIR = Path(__file__).parent
CACHE_DIR = BENCH_DIR / "_cache"
RESULTS_DIR = BENCH_DIR / "results"

#: Evaluation-set size used by the quantization searches.  256 keeps a
#: single quantized evaluation under ~1s for the small models.
EVAL_SIZE = 256
TRAIN_SIZE = 2000


def emit(name: str, text: str) -> None:
    """Print a results table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")


def _train_cached(key: str, model, train: Dataset, test: Dataset,
                  epochs: int, lr: float, seed: int = 0):
    """Train ``model`` or load cached weights; returns (model, accuracy)."""
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / f"{key}.npz"
    if path.exists():
        model.load(path)
    else:
        trainer = Trainer(model, Adam(model.parameters(), lr=lr), seed=seed)
        trainer.fit(train.images, train.labels, epochs=epochs, batch_size=64)
        model.save(path)
    accuracy = evaluate_accuracy(model, test.images, test.labels)
    return model, accuracy


# ----------------------------------------------------------------------
# Dataset fixtures (deterministic, regenerated per session)
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def digits_data() -> Tuple[Dataset, Dataset]:
    return synth_digits(train_size=TRAIN_SIZE, test_size=EVAL_SIZE, seed=0)


@pytest.fixture(scope="session")
def fashion_data() -> Tuple[Dataset, Dataset]:
    return synth_fashion(train_size=TRAIN_SIZE, test_size=EVAL_SIZE, seed=0)


@pytest.fixture(scope="session")
def cifar_data() -> Tuple[Dataset, Dataset]:
    return synth_cifar(train_size=TRAIN_SIZE, test_size=EVAL_SIZE, seed=0)


# ----------------------------------------------------------------------
# Trained-model fixtures (disk-cached)
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def shallow_digits(digits_data):
    train, test = digits_data
    model = ShallowCaps(presets.shallowcaps_small())
    return _train_cached("shallow_digits", model, train, test, epochs=8, lr=0.005)


@pytest.fixture(scope="session")
def shallow_fashion(fashion_data):
    train, test = fashion_data
    model = ShallowCaps(presets.shallowcaps_small(seed=1))
    return _train_cached("shallow_fashion", model, train, test, epochs=8, lr=0.005)


@pytest.fixture(scope="session")
def deep_digits(digits_data):
    train, test = digits_data
    model = DeepCaps(presets.deepcaps_small(input_channels=1, input_size=28))
    return _train_cached("deep_digits", model, train, test, epochs=6, lr=0.003)


@pytest.fixture(scope="session")
def deep_fashion(fashion_data):
    train, test = fashion_data
    model = DeepCaps(
        presets.deepcaps_small(input_channels=1, input_size=28, seed=1)
    )
    return _train_cached("deep_fashion", model, train, test, epochs=6, lr=0.003)


@pytest.fixture(scope="session")
def deep_cifar(cifar_data):
    train, test = cifar_data
    model = DeepCaps(presets.deepcaps_small(input_channels=3, input_size=32))
    return _train_cached("deep_cifar", model, train, test, epochs=6, lr=0.003)
