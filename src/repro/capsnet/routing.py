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
:func:`~repro.capsnet.walk.capsule_votes` builds them); the float
context takes the ``(B, J, I, D)`` view the contractions use once per
routing walk, which keeps their matmuls faster than a strided layout
handed in by the caller.

:func:`walk_routing` is the one description of the algorithm: the float
forward (:func:`dynamic_routing`), the range certifier, the lowering
analyzer and the integer backend all run it, each in its own context
(see :mod:`repro.capsnet.walk`).
"""

from __future__ import annotations

from repro.autograd.tensor import Tensor
from repro.capsnet.walk import FloatContext
from repro.quant.qcontext import NULL_CONTEXT, QuantContext


def walk_routing(
    ctx,
    layer: str,
    votes,
    iterations: int,
    in_caps: int,
    out_caps: int,
    out_dim: int,
):
    """Route votes ``(B, I, J, D)`` to output capsules ``(B, J, D)``
    (steps 2-7 above) in any walk context."""
    if iterations < 1:
        raise ValueError(f"routing needs at least 1 iteration, got {iterations}")
    votes = ctx.act(layer, votes)
    logits = ctx.zero_logits(layer, votes)
    for iteration in range(iterations):
        logits = ctx.routing(layer, "logits", logits)
        coupling = ctx.routing(
            layer, "coupling", ctx.softmax(layer, logits, out_caps)
        )
        preactivation = ctx.routing(
            layer, "preactivation",
            ctx.weighted_sum(layer, coupling, votes, in_caps),
        )
        activation = ctx.routing(
            layer, "activation",
            ctx.squash(layer, preactivation, out_dim, -1),
        )
        if iteration < iterations - 1:
            agreement = ctx.routing(
                layer, "agreement",
                ctx.agreement(layer, votes, activation, out_dim),
            )
            logits = ctx.add(layer, logits, agreement)
    return activation


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
    if votes.ndim != 4:
        raise ValueError(
            f"votes must be (batch, in_caps, out_caps, out_dim), got {votes.shape}"
        )
    _, in_caps, out_caps, out_dim = votes.shape
    return walk_routing(
        FloatContext(q), layer, votes, iterations, in_caps, out_caps, out_dim
    )


def routing_array_names() -> tuple:
    """Names of the arrays quantized with ``QDR`` (Fig. 9's red bars)."""
    return ("logits", "coupling", "preactivation", "activation", "agreement")
