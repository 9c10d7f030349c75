"""SynthDigits — procedural MNIST stand-in (DESIGN.md §2 substitution).

Each sample renders a 5×7 digit glyph with randomized scale, rotation,
position, stroke thickness, stroke intensity and additive noise onto a
square canvas.  The task is 10-class image classification with enough
intra-class variation that a CapsNet must actually learn shape structure
— which is what the quantization experiments need: a trained model whose
accuracy degrades smoothly as wordlengths shrink.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.glyphs import all_digit_glyphs
from repro.data.loader import Dataset


def _render_digit(
    glyph: np.ndarray,
    image_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Render one jittered glyph onto an ``image_size²`` canvas."""
    from scipy import ndimage  # deferred: keeps `import repro` scipy-free
    # Scale the 7x5 glyph to a target height of ~60-75% of the canvas.
    target_h = image_size * rng.uniform(0.58, 0.78)
    zoom = target_h / glyph.shape[0]
    rendered = ndimage.zoom(glyph, (zoom, zoom * rng.uniform(0.85, 1.1)), order=1)
    rendered = np.clip(rendered, 0.0, 1.0)

    # Occasional stroke thickening.
    if rng.random() < 0.35:
        rendered = ndimage.grey_dilation(rendered, size=(2, 2))

    # Small rotation.
    angle = rng.uniform(-12.0, 12.0)
    rendered = ndimage.rotate(rendered, angle, reshape=False, order=1, mode="constant")
    rendered = np.clip(rendered, 0.0, 1.0)

    # Place on the canvas with a random offset.
    canvas = np.zeros((image_size, image_size), dtype=np.float32)
    height, width = rendered.shape
    height = min(height, image_size)
    width = min(width, image_size)
    max_row = image_size - height
    max_col = image_size - width
    row = rng.integers(max(max_row // 2 - 3, 0), min(max_row // 2 + 4, max_row + 1))
    col = rng.integers(max(max_col // 2 - 3, 0), min(max_col // 2 + 4, max_col + 1))
    canvas[row : row + height, col : col + width] = rendered[:height, :width]

    # Photometric jitter: stroke intensity, slight blur, sensor noise.
    canvas *= rng.uniform(0.7, 1.0)
    canvas = ndimage.gaussian_filter(canvas, sigma=rng.uniform(0.3, 0.7))
    canvas += rng.normal(0.0, 0.03, size=canvas.shape).astype(np.float32)
    return np.clip(canvas, 0.0, 1.0).astype(np.float32)


def _generate(
    count: int, image_size: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    glyphs = all_digit_glyphs()
    labels = rng.integers(0, 10, size=count)
    images = np.empty((count, 1, image_size, image_size), dtype=np.float32)
    for i, label in enumerate(labels):
        images[i, 0] = _render_digit(glyphs[label], image_size, rng)
    return images, labels.astype(np.int64)


def synth_digits(
    train_size: int = 2000,
    test_size: int = 512,
    image_size: int = 28,
    seed: int = 0,
) -> Tuple[Dataset, Dataset]:
    """Generate (train, test) SynthDigits datasets.

    Parameters
    ----------
    train_size, test_size:
        Sample counts; generation is O(count) and deterministic in
        ``seed``.
    image_size:
        Canvas side (28 matches MNIST; smaller sizes serve unit tests).
    """
    rng = np.random.default_rng(seed)
    train_images, train_labels = _generate(train_size, image_size, rng)
    test_images, test_labels = _generate(test_size, image_size, rng)
    return (
        Dataset(train_images, train_labels, name="synth-digits"),
        Dataset(test_images, test_labels, name="synth-digits"),
    )
