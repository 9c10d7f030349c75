"""Fully-connected capsule layer with dynamic routing (DigitCaps / FC CAPS).

Every input capsule ``u_i ∈ R^{D_in}`` is transformed by a learned
matrix ``W_ij ∈ R^{D_out × D_in}`` into a vote ``û_{j|i}`` for every
output capsule ``j``; the votes are then combined by routing-by-
agreement.  This is layer L3 of ShallowCaps (10 × 16-D digit capsules)
and layer L6 of DeepCaps (10 × 32-D class capsules).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor, grad_enabled
from repro.capsnet.routing import dynamic_routing
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.quant.qcontext import NULL_CONTEXT, QuantContext


class CapsFC(Module):
    """Dense capsule layer ``(B, I, D_in) → (B, J, D_out)`` with routing.

    Parameters
    ----------
    in_caps, in_dim:
        Number and dimension of input capsules.
    out_caps, out_dim:
        Number and dimension of output capsules (= classes × class-dim
        when used as the output layer).
    routing_iterations:
        Dynamic-routing iterations (3 in both reference models).
    name:
        Quantization-layer name (e.g. ``"L3"``).
    """

    def __init__(
        self,
        in_caps: int,
        in_dim: int,
        out_caps: int,
        out_dim: int,
        routing_iterations: int = 3,
        name: str = "L3",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_caps = in_caps
        self.in_dim = in_dim
        self.out_caps = out_caps
        self.out_dim = out_dim
        self.routing_iterations = routing_iterations
        self.name = name
        # W: (I, J, D_out, D_in), one transformation matrix per (i, j).
        # std 0.2: large enough that initial routed capsule lengths escape
        # the cubic small-signal regime of squash (lengths ~1e-3 stall
        # training for hundreds of steps), small enough not to saturate.
        self.weight = Parameter(
            init.normal((in_caps, out_caps, out_dim, in_dim), rng, std=0.2)
        )

    def forward(self, u: Tensor, q: QuantContext = NULL_CONTEXT) -> Tensor:
        """Compute votes and route them to output capsules."""
        if u.shape[1] != self.in_caps or u.shape[2] != self.in_dim:
            raise ValueError(
                f"{self.name}: expected input capsules "
                f"({self.in_caps}, {self.in_dim}), got {u.shape[1:]}"
            )
        weight = q.weight(self.name, "weight", self.weight)
        votes = self.votes(u, weight)
        return dynamic_routing(
            votes, iterations=self.routing_iterations, q=q, layer=self.name
        )

    def votes(self, u: Tensor, weight: Tensor) -> Tensor:
        """Votes ``û_{j|i} = W_ij × u_i`` as ``(B, I, J, D_out)``.

        One GEMM per input capsule: ``(I, B, D_in) @ (I, D_in, J·D_out)``
        feeds every sample and every output capsule of capsule ``i``
        through a single matrix product, instead of ``B·I·J`` separate
        ``D_out × D_in`` matrix-vector products.  The products are
        written through an ``(I, B, ·)`` view straight into a contiguous
        ``(B, I, J, D_out)`` array, the layout the routing contractions
        are fastest on, so no transposed copy is made.  Each vote is the
        same ``D_in``-term dot product as before; on fixed-point grid
        inputs every product and partial sum is exact in float32, so the
        votes are bit-identical to the broadcast form, and on FP32 inputs
        they match it to float32 roundoff.
        """
        batch = u.shape[0]
        fan_out = self.out_caps * self.out_dim
        u_t = u.data.transpose(1, 0, 2)  # (I, B, D_in)
        w_t = weight.data.reshape(self.in_caps, fan_out, self.in_dim).transpose(
            0, 2, 1
        )  # (I, D_in, J·D_out)
        out = np.empty(
            (batch, self.in_caps, fan_out), dtype=np.result_type(u.data, w_t)
        )
        np.matmul(u_t, w_t, out=out.transpose(1, 0, 2))
        out = out.reshape(batch, self.in_caps, self.out_caps, self.out_dim)
        if not (grad_enabled() and (u.requires_grad or weight.requires_grad)):
            return Tensor(out)

        def backward_fn(grad: np.ndarray) -> None:
            grad_t = grad.reshape(batch, self.in_caps, fan_out).transpose(1, 0, 2)
            if weight.requires_grad or weight._backward_fn:
                grad_w = np.matmul(u_t.transpose(0, 2, 1), grad_t)
                weight._accumulate(grad_w.transpose(0, 2, 1).reshape(weight.shape))
            if u.requires_grad or u._backward_fn:
                grad_u = np.matmul(grad_t, w_t.transpose(0, 2, 1))
                u._accumulate(grad_u.transpose(1, 0, 2))

        return Tensor(out, True, (u, weight), backward_fn)

    def vote_macs(self) -> int:
        """MACs for the vote computation of one sample (step 1 of Fig. 6)."""
        return self.in_caps * self.out_caps * self.out_dim * self.in_dim

    def routing_macs(self) -> int:
        """MACs for routing steps 3-7 over all iterations of one sample."""
        per_iteration = (
            self.in_caps * self.out_caps * self.out_dim  # s_j accumulation
            + self.in_caps * self.out_caps * self.out_dim  # agreement products
        )
        return self.routing_iterations * per_iteration
