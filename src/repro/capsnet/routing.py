"""Routing-by-agreement (paper Sec. II-A, Fig. 6).

The dynamic-routing algorithm iteratively computes coupling coefficients
between a layer of ``I`` input capsules and ``J`` output capsules from
their agreement:

1. votes           ``û_{j|i} = W_ij × u_i``        (done by the caller)
2. logits init     ``b_ij = 0``
3. coupling        ``c_ij = softmax_j(b_ij)``      (Eq. 1)
4. preactivation   ``s_j = Σ_i c_ij û_{j|i}``
5. activation      ``v_j = squash(s_j)``           (Eq. 2)
6. agreement       ``a_ij = v_j · û_{j|i}``
7. logits update   ``b_ij = b_ij + a_ij``

Steps 3–7 repeat for a fixed number of iterations (3 in the paper).

Quantization hooks: this function is where the paper's Step 4A
specialization acts.  The vote tensor is quantized with the layer's
``Qa`` (blue in Fig. 9) and each routing array — ``logits``,
``coupling``, ``preactivation``, ``activation``, ``agreement`` — with
``QDR`` (red in Fig. 9) immediately after it is produced, i.e. the
precision is lowered *before* each compute-intensive squash/softmax, as
the paper prescribes.

Cost: under Algorithm 1 this layer is the inner loop of the whole
search, re-run for every candidate wordlength, and its quantization
hooks are a large share of its time.  Each hook is one :meth:`RoundingScheme.apply` call, which
rounds float32 arrays of formats up to 23 bits on a float32 carrier
(see :mod:`repro.quant.rounding`), bit-identical to float64 rounding.
Votes are expected as a contiguous ``(B, I, J, D)`` array (as
:meth:`~repro.capsnet.caps_fc.CapsFC.votes` builds them); the
``(B, J, I, D)`` view the contractions use is taken here, which keeps
their matmuls faster than a strided layout handed in by the caller.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.ops_nn import softmax
from repro.autograd.tensor import Tensor
from repro.capsnet.squash import squash
from repro.quant.qcontext import NULL_CONTEXT, QuantContext


def dynamic_routing(
    votes: Tensor,
    iterations: int = 3,
    q: QuantContext = NULL_CONTEXT,
    layer: str = "routing",
) -> Tensor:
    """Route votes ``(B, I, J, D)`` to output capsules ``(B, J, D)``.

    Parameters
    ----------
    votes:
        Prediction vectors ``û_{j|i}``, shape ``(batch, in_caps,
        out_caps, out_dim)``.  Callers with spatial structure (see
        :class:`~repro.capsnet.conv_caps.ConvCaps3d`) fold locations
        into the batch axis before calling.
    iterations:
        Number of routing iterations (≥ 1).
    q:
        Quantization context; the identity context reproduces FP32.
    layer:
        Layer name used for per-layer wordlength lookup.
    """
    if iterations < 1:
        raise ValueError(f"routing needs at least 1 iteration, got {iterations}")
    if votes.ndim != 4:
        raise ValueError(
            f"votes must be (batch, in_caps, out_caps, out_dim), got {votes.shape}"
        )

    votes = q.act(layer, votes)
    batch, in_caps, out_caps, _ = votes.shape
    logits = Tensor(np.zeros((batch, in_caps, out_caps), dtype=np.float32))
    # Both contractions below run as matmuls over a (B, J, I, D) view of
    # the votes, so no (B, I, J, D) elementwise temporary is materialized
    # per iteration (the former broadcast-multiply-then-sum built one for
    # the preactivation and one for the agreement).  matmul accumulates
    # the I / D sums in a different order than sum(), so outputs match
    # the reference contraction to float32 roundoff (~1e-6 relative, see
    # tests/test_capsnet_squash_routing.py) rather than bit-for-bit.
    votes_t = votes.transpose(0, 2, 1, 3)

    activation = None
    for iteration in range(iterations):
        logits = q.routing(layer, "logits", logits)
        coupling = softmax(logits, axis=2)
        coupling = q.routing(layer, "coupling", coupling)
        # s_j = Σ_i c_ij · û_{j|i} — (B, J, 1, I) @ (B, J, I, D)
        preactivation = (
            coupling.transpose(0, 2, 1).expand_dims(2) @ votes_t
        ).squeeze(2)
        preactivation = q.routing(layer, "preactivation", preactivation)
        activation = squash(preactivation, axis=-1)
        activation = q.routing(layer, "activation", activation)
        if iteration < iterations - 1:
            # a_ij = v_j · û_{j|i} — (B, J, I, D) @ (B, J, D, 1)
            agreement = (
                (votes_t @ activation.expand_dims(-1))
                .squeeze(-1)
                .transpose(0, 2, 1)
            )
            agreement = q.routing(layer, "agreement", agreement)
            logits = logits + agreement
    return activation


def routing_array_names() -> tuple:
    """Names of the arrays quantized with ``QDR`` (Fig. 9's red bars)."""
    return ("logits", "coupling", "preactivation", "activation", "agreement")
