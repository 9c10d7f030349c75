"""SynthCIFAR — procedural CIFAR10 stand-in (DESIGN.md §2).

32×32 RGB images.  Each of the ten classes pairs a geometric shape with
a characteristic hue and texture, on a randomized background — a color
image classification task of roughly CIFAR-ish difficulty for small
models, exercising the 3-channel DeepCaps pipeline.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.loader import Dataset

#: (shape, hue in [0,1), texture) per class.
CLASS_STYLES = (
    ("circle", 0.00, "plain"),
    ("square", 0.10, "stripes"),
    ("triangle", 0.20, "plain"),
    ("ring", 0.30, "checker"),
    ("cross", 0.40, "plain"),
    ("circle", 0.55, "stripes"),
    ("square", 0.65, "checker"),
    ("triangle", 0.75, "stripes"),
    ("ring", 0.85, "plain"),
    ("cross", 0.95, "checker"),
)


def _hsv_to_rgb(h: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized HSV→RGB (all inputs/outputs in [0, 1])."""
    i = np.floor(h * 6.0).astype(int) % 6
    f = h * 6.0 - np.floor(h * 6.0)
    p = v * (1.0 - s)
    q = v * (1.0 - f * s)
    t = v * (1.0 - (1.0 - f) * s)
    channels = np.choose(
        i,
        [
            np.stack([v, t, p]),
            np.stack([q, v, p]),
            np.stack([p, v, t]),
            np.stack([p, q, v]),
            np.stack([t, p, v]),
            np.stack([v, p, q]),
        ],
    )
    return channels


def _shape_mask(
    kind: str, size: int, rng: np.random.Generator
) -> np.ndarray:
    coords = (np.arange(size) + 0.5) / size
    y, x = np.meshgrid(coords, coords, indexing="ij")
    cy = 0.5 + rng.uniform(-0.08, 0.08)
    cx = 0.5 + rng.uniform(-0.08, 0.08)
    radius = rng.uniform(0.22, 0.32)
    dy, dx = y - cy, x - cx
    distance = np.sqrt(dy**2 + dx**2)

    if kind == "circle":
        mask = distance < radius
    elif kind == "ring":
        mask = np.abs(distance - radius) < radius * 0.35
    elif kind == "square":
        mask = (np.abs(dy) < radius) & (np.abs(dx) < radius)
    elif kind == "triangle":
        mask = (dy > -radius) & (np.abs(dx) < (dy + radius) * 0.65) & (dy < radius)
    elif kind == "cross":
        arm = radius * 0.4
        mask = ((np.abs(dx) < arm) & (np.abs(dy) < radius)) | (
            (np.abs(dy) < arm) & (np.abs(dx) < radius)
        )
    else:
        raise ValueError(f"unknown shape '{kind}'")
    return mask.astype(np.float32)


def _texture(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
    coords = np.arange(size)
    y, x = np.meshgrid(coords, coords, indexing="ij")
    if kind == "plain":
        return np.ones((size, size), dtype=np.float32)
    if kind == "stripes":
        period = rng.integers(3, 6)
        phase = rng.integers(0, period)
        return (0.6 + 0.4 * (((x + phase) // period) % 2)).astype(np.float32)
    if kind == "checker":
        period = rng.integers(3, 6)
        return (
            0.6 + 0.4 * (((x // period) + (y // period)) % 2)
        ).astype(np.float32)
    raise ValueError(f"unknown texture '{kind}'")


def _render_cifar(label: int, size: int, rng: np.random.Generator) -> np.ndarray:
    from scipy import ndimage  # deferred: keeps `import repro` scipy-free
    shape, hue, texture = CLASS_STYLES[label]
    mask = _shape_mask(shape, size, rng)
    mask = ndimage.rotate(
        mask, rng.uniform(-20, 20), reshape=False, order=1, mode="constant"
    )
    mask = np.clip(mask, 0.0, 1.0)

    jittered_hue = (hue + rng.uniform(-0.03, 0.03)) % 1.0
    saturation = np.full_like(mask, rng.uniform(0.6, 0.9))
    value = np.clip(
        rng.uniform(0.7, 1.0) * _texture(texture, size, rng), 0.0, 1.0
    )
    foreground = _hsv_to_rgb(np.full_like(mask, jittered_hue), saturation, value)

    bg_hue = rng.uniform(0.0, 1.0)
    bg_noise = ndimage.gaussian_filter(
        rng.normal(0.0, 1.0, size=(size, size)), sigma=3.0
    )
    bg_value = np.clip(0.35 + 0.1 * bg_noise, 0.0, 1.0)
    background = _hsv_to_rgb(
        np.full_like(mask, bg_hue), np.full_like(mask, 0.3), bg_value
    )

    image = mask[None] * foreground + (1.0 - mask[None]) * background
    image += rng.normal(0.0, 0.02, size=image.shape)
    return np.clip(image, 0.0, 1.0).astype(np.float32)


def synth_cifar(
    train_size: int = 2000,
    test_size: int = 512,
    image_size: int = 32,
    seed: int = 0,
) -> Tuple[Dataset, Dataset]:
    """Generate (train, test) SynthCIFAR datasets (10 shape/hue classes)."""
    rng = np.random.default_rng(seed)

    def generate(count: int) -> Dataset:
        labels = rng.integers(0, 10, size=count).astype(np.int64)
        images = np.empty((count, 3, image_size, image_size), dtype=np.float32)
        for i, label in enumerate(labels):
            images[i] = _render_cifar(int(label), image_size, rng)
        return Dataset(images, labels, name="synth-cifar")

    return generate(train_size), generate(test_size)
