"""Data augmentation matching the paper's Sec. IV-A pipelines.

* MNIST: "images are randomly shifted by maximum two pixels and rotated
  of 2 degrees" → :func:`augment_digits`;
* FashionMNIST: "randomly shifted of 2 pixels and horizontally flipped
  with a probability of 0.2" → :func:`augment_fashion`;
* CIFAR10: "resized to 64×64 [bilinear], randomly shifted of 5 pixels,
  rotated of 2 degrees and horizontally flipped with a probability of
  0.5" → :func:`augment_cifar` (the resize factor is a parameter so the
  CPU-scale models can stay at 32×32).

All functions take and return image batches ``(N, C, H, W)`` and draw
randomness from an explicit generator, so training runs are
reproducible.
"""

from __future__ import annotations

import numpy as np


def random_shift(
    images: np.ndarray, rng: np.random.Generator, max_shift: int = 2
) -> np.ndarray:
    """Shift each image by an integer offset in [-max_shift, max_shift]."""
    out = np.empty_like(images)
    shifts = rng.integers(-max_shift, max_shift + 1, size=(len(images), 2))
    for i, (dy, dx) in enumerate(shifts):
        out[i] = np.roll(np.roll(images[i], dy, axis=1), dx, axis=2)
        # Zero the wrapped-around strip so the shift behaves like padding.
        if dy > 0:
            out[i, :, :dy, :] = 0.0
        elif dy < 0:
            out[i, :, dy:, :] = 0.0
        if dx > 0:
            out[i, :, :, :dx] = 0.0
        elif dx < 0:
            out[i, :, :, dx:] = 0.0
    return out


def random_rotate(
    images: np.ndarray, rng: np.random.Generator, max_degrees: float = 2.0
) -> np.ndarray:
    """Rotate each image by a uniform angle in [-max_degrees, max_degrees]."""
    from scipy import ndimage  # deferred: keeps `import repro` scipy-free
    out = np.empty_like(images)
    angles = rng.uniform(-max_degrees, max_degrees, size=len(images))
    for i, angle in enumerate(angles):
        out[i] = ndimage.rotate(
            images[i], angle, axes=(1, 2), reshape=False, order=1, mode="constant"
        )
    return out


def random_hflip(
    images: np.ndarray, rng: np.random.Generator, probability: float = 0.5
) -> np.ndarray:
    """Flip each image horizontally with the given probability."""
    flips = rng.random(len(images)) < probability
    out = images.copy()
    out[flips] = out[flips][..., ::-1]
    return out


def resize_bilinear(images: np.ndarray, size: int) -> np.ndarray:
    """Bilinear resize of a batch to ``size×size`` (paper footnote 4)."""
    from scipy import ndimage  # deferred: keeps `import repro` scipy-free
    n, c, h, w = images.shape
    if h == size and w == size:
        return images.astype(np.float32, copy=False)
    zoom = (1, 1, size / h, size / w)
    return ndimage.zoom(images, zoom, order=1).astype(np.float32)


def augment_digits(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """MNIST pipeline: ±2px shift + ±2° rotation."""
    return random_rotate(random_shift(images, rng, max_shift=2), rng, max_degrees=2.0)


def augment_fashion(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """FashionMNIST pipeline: ±2px shift + horizontal flip (p=0.2)."""
    return random_hflip(random_shift(images, rng, max_shift=2), rng, probability=0.2)


def augment_cifar(
    images: np.ndarray,
    rng: np.random.Generator,
    max_shift: int = 5,
    max_degrees: float = 2.0,
    flip_probability: float = 0.5,
) -> np.ndarray:
    """CIFAR10 pipeline: ±5px shift + ±2° rotation + flip (p=0.5)."""
    out = random_shift(images, rng, max_shift=max_shift)
    out = random_rotate(out, rng, max_degrees=max_degrees)
    return random_hflip(out, rng, probability=flip_probability)
