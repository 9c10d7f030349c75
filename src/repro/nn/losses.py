"""Loss functions.

The central one is :func:`margin_loss` — the capsule classification loss
from Sabour et al. (NIPS 2017), Eq. 4 of that paper:

    L_k = T_k · max(0, m⁺ − ||v_k||)² + λ (1 − T_k) · max(0, ||v_k|| − m⁻)²

where ``T_k = 1`` iff class ``k`` is present, ``m⁺ = 0.9``, ``m⁻ = 0.1``
and ``λ = 0.5`` down-weights absent classes early in training.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.ops_nn import log_softmax, vector_norm
from repro.autograd.tensor import Tensor, as_tensor


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(B,)`` to one-hot float32 ``(B, num_classes)``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def margin_loss(
    class_capsules: Tensor,
    labels: np.ndarray,
    m_plus: float = 0.9,
    m_minus: float = 0.1,
    lam: float = 0.5,
) -> Tensor:
    """Margin loss over output capsule vectors.

    Parameters
    ----------
    class_capsules:
        Output capsules of shape ``(B, num_classes, caps_dim)``; the
        Euclidean norm of each capsule is its class probability.
    labels:
        Integer class labels of shape ``(B,)``.
    """
    class_capsules = as_tensor(class_capsules)
    batch, num_classes, _ = class_capsules.shape
    lengths = vector_norm(class_capsules, axis=-1)  # (B, num_classes)
    targets = Tensor(one_hot(labels, num_classes))

    present = (Tensor(np.float32(m_plus)) - lengths).maximum(0.0) ** 2
    absent = (lengths - Tensor(np.float32(m_minus))).maximum(0.0) ** 2
    per_class = targets * present + (1.0 - targets) * absent * lam
    return per_class.sum(axis=1).mean()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy over raw logits ``(B, num_classes)``.

    Used by the CNN baselines (LeNet-style models in Fig. 1 comparisons).
    """
    logits = as_tensor(logits)
    batch, num_classes = logits.shape
    log_probs = log_softmax(logits, axis=-1)
    targets = Tensor(one_hot(labels, num_classes))
    return -(log_probs * targets).sum(axis=1).mean()


def mse_loss(prediction: Tensor, target: np.ndarray) -> Tensor:
    """Mean-squared error between a prediction and a fixed target."""
    prediction = as_tensor(prediction)
    diff = prediction - Tensor(np.asarray(target, dtype=np.float32))
    return (diff * diff).mean()
