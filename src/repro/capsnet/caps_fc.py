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

from repro.autograd.tensor import Tensor
from repro.capsnet.routing import walk_routing
from repro.capsnet.walk import FloatContext, capsule_votes
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

    #: Votes ``(B, I, J, D_out)`` of inputs ``u`` under ``weight``.
    votes = staticmethod(capsule_votes)

    def forward(self, u: Tensor, q: QuantContext = NULL_CONTEXT) -> Tensor:
        """Compute votes and route them to output capsules."""
        return self.walk(FloatContext(q), u)

    def walk(self, ctx, u):
        """The layer in any walk context (:mod:`repro.capsnet.walk`)."""
        u = ctx.layout(u, self._check_input)
        weight = ctx.weight(self.name, "weight", self.weight)
        # Votes û_{j|i} = W_ij u_i: each output coordinate accumulates
        # over in_dim, i.e. the rows of W flattened to (I·J·D_out, D_in).
        votes = ctx.linear(self.name, weight, None, u, fan_in=self.in_dim)
        return walk_routing(
            ctx, self.name, votes, self.routing_iterations,
            in_caps=self.in_caps, out_caps=self.out_caps,
            out_dim=self.out_dim,
        )

    def _check_input(self, u):
        if u.shape[1:] != (self.in_caps, self.in_dim):
            raise ValueError(
                f"{self.name}: expected input capsules "
                f"({self.in_caps}, {self.in_dim}), got {u.shape[1:]}"
            )
        return u

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
