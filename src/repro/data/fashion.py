"""SynthFashion — procedural Fashion-MNIST stand-in (DESIGN.md §2).

Ten parametric garment silhouettes (t-shirt, trouser, pullover, dress,
coat, sandal, shirt, sneaker, bag, ankle boot — the Fashion-MNIST class
list) drawn as filled masks on a grayscale canvas with per-sample jitter
of proportions, position, intensity and noise.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.data.loader import Dataset

CLASS_NAMES = (
    "tshirt",
    "trouser",
    "pullover",
    "dress",
    "coat",
    "sandal",
    "shirt",
    "sneaker",
    "bag",
    "ankle_boot",
)


def _grid(size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized coordinate grids in [0, 1]: (rows y, cols x)."""
    coords = (np.arange(size) + 0.5) / size
    return np.meshgrid(coords, coords, indexing="ij")


def _box(y, x, y0, y1, x0, x1) -> np.ndarray:
    return (y >= y0) & (y < y1) & (x >= x0) & (x < x1)


def _tshirt(y, x, r) -> np.ndarray:
    torso_w = r.uniform(0.16, 0.22)
    body = _box(y, x, 0.25, 0.85, 0.5 - torso_w, 0.5 + torso_w)
    sleeve = _box(y, x, 0.25, 0.45, 0.5 - torso_w - 0.15, 0.5 + torso_w + 0.15)
    return body | sleeve


def _trouser(y, x, r) -> np.ndarray:
    leg_w = r.uniform(0.07, 0.1)
    gap = r.uniform(0.03, 0.06)
    waist = _box(y, x, 0.15, 0.35, 0.5 - 2 * leg_w - gap / 2, 0.5 + 2 * leg_w + gap / 2)
    left = _box(y, x, 0.35, 0.9, 0.5 - 2 * leg_w - gap / 2, 0.5 - gap / 2)
    right = _box(y, x, 0.35, 0.9, 0.5 + gap / 2, 0.5 + 2 * leg_w + gap / 2)
    return waist | left | right


def _pullover(y, x, r) -> np.ndarray:
    torso_w = r.uniform(0.17, 0.23)
    body = _box(y, x, 0.22, 0.88, 0.5 - torso_w, 0.5 + torso_w)
    sleeves = _box(y, x, 0.22, 0.85, 0.5 - torso_w - 0.12, 0.5 + torso_w + 0.12)
    collar = _box(y, x, 0.15, 0.22, 0.42, 0.58)
    return body | sleeves | collar


def _dress(y, x, r) -> np.ndarray:
    top_w = r.uniform(0.08, 0.12)
    bottom_w = r.uniform(0.24, 0.32)
    width = top_w + (bottom_w - top_w) * np.clip((y - 0.2) / 0.65, 0, 1)
    return (y >= 0.2) & (y < 0.9) & (np.abs(x - 0.5) < width)


def _coat(y, x, r) -> np.ndarray:
    torso_w = r.uniform(0.18, 0.24)
    body = _box(y, x, 0.18, 0.92, 0.5 - torso_w, 0.5 + torso_w)
    sleeves = _box(y, x, 0.18, 0.9, 0.5 - torso_w - 0.11, 0.5 + torso_w + 0.11)
    opening = _box(y, x, 0.3, 0.92, 0.49, 0.51)
    return (body | sleeves) & ~opening


def _sandal(y, x, r) -> np.ndarray:
    sole = _box(y, x, 0.62, 0.72, 0.15, 0.85)
    strap1 = _box(y, x, 0.45, 0.52, 0.25, 0.6)
    strap2 = _box(y, x, 0.52, 0.62, 0.55, 0.75)
    return sole | strap1 | strap2


def _shirt(y, x, r) -> np.ndarray:
    torso_w = r.uniform(0.15, 0.2)
    body = _box(y, x, 0.2, 0.9, 0.5 - torso_w, 0.5 + torso_w)
    sleeve = _box(y, x, 0.2, 0.75, 0.5 - torso_w - 0.1, 0.5 + torso_w + 0.1)
    buttons = _box(y, x, 0.25, 0.85, 0.495, 0.505)
    return (body | sleeve) & ~buttons


def _sneaker(y, x, r) -> np.ndarray:
    sole = _box(y, x, 0.68, 0.78, 0.12, 0.88)
    toe = _box(y, x, 0.56, 0.68, 0.12, 0.65)
    ankle = _box(y, x, 0.42, 0.56, 0.12, 0.42)
    return sole | toe | ankle


def _bag(y, x, r) -> np.ndarray:
    w = r.uniform(0.26, 0.33)
    body = _box(y, x, 0.42, 0.85, 0.5 - w, 0.5 + w)
    radius = r.uniform(0.12, 0.16)
    ring = np.abs(np.sqrt((y - 0.42) ** 2 + (x - 0.5) ** 2) - radius) < 0.025
    handle = ring & (y < 0.42)
    return body | handle


def _ankle_boot(y, x, r) -> np.ndarray:
    shaft = _box(y, x, 0.25, 0.7, 0.3, 0.55)
    foot = _box(y, x, 0.58, 0.78, 0.3, 0.85)
    heel = _box(y, x, 0.78, 0.86, 0.3, 0.45)
    sole = _box(y, x, 0.78, 0.83, 0.45, 0.85)
    return shaft | foot | heel | sole


_BUILDERS: Dict[int, Callable] = {
    0: _tshirt,
    1: _trouser,
    2: _pullover,
    3: _dress,
    4: _coat,
    5: _sandal,
    6: _shirt,
    7: _sneaker,
    8: _bag,
    9: _ankle_boot,
}


def _render_garment(
    label: int, image_size: int, rng: np.random.Generator
) -> np.ndarray:
    from scipy import ndimage  # deferred: keeps `import repro` scipy-free
    y, x = _grid(image_size)
    mask = _BUILDERS[label](y, x, rng).astype(np.float32)

    # Geometric jitter: small rotation and shift.
    mask = ndimage.rotate(
        mask, rng.uniform(-8.0, 8.0), reshape=False, order=1, mode="constant"
    )
    mask = ndimage.shift(
        mask,
        (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
        order=1,
        mode="constant",
    )

    # Fabric texture: multiplicative low-frequency variation.
    texture = ndimage.gaussian_filter(
        rng.normal(0.0, 1.0, size=mask.shape), sigma=2.0
    )
    intensity = rng.uniform(0.55, 0.95)
    image = np.clip(mask, 0, 1) * np.clip(intensity + 0.15 * texture, 0.25, 1.0)
    image += rng.normal(0.0, 0.03, size=image.shape)
    return np.clip(image, 0.0, 1.0).astype(np.float32)


def synth_fashion(
    train_size: int = 2000,
    test_size: int = 512,
    image_size: int = 28,
    seed: int = 0,
) -> Tuple[Dataset, Dataset]:
    """Generate (train, test) SynthFashion datasets (10 garment classes)."""
    rng = np.random.default_rng(seed)

    def generate(count: int) -> Dataset:
        labels = rng.integers(0, 10, size=count).astype(np.int64)
        images = np.empty((count, 1, image_size, image_size), dtype=np.float32)
        for i, label in enumerate(labels):
            images[i, 0] = _render_garment(int(label), image_size, rng)
        return Dataset(images, labels, name="synth-fashion")

    return generate(train_size), generate(test_size)
