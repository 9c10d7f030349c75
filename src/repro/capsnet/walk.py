"""The model walk: each model family described once, run by four contexts.

A model lists its forward pass once, as :meth:`StagedModel.steps`: an
ordered list of ``(layer, tag, fn(ctx, x))`` split at the stage
boundaries the prefix cache resumes from.  Each ``fn`` is written only
in the walk vocabulary, the methods every context implements:

* hooks — ``weight(layer, name, param)``, ``act(layer, x)``,
  ``routing(layer, array, x)`` (the paper's Fig. 9 points);
* ops — ``layout(x, fn)`` (a reshape/transpose ``fn`` of a concrete
  array), ``conv``, ``linear`` (with ``fan_in``: the capsule votes),
  ``relu``, ``avgpool``, ``batchnorm``, ``squash``, ``softmax``,
  ``add``, and the routing trio ``zero_logits``, ``weighted_sum``,
  ``agreement``.

Four interpreters fold the same steps:

* :class:`FloatContext` — autograd tensors, hooks passed to any
  :class:`~repro.quant.qcontext.QuantContext`: training, calibration,
  the Algorithm-1 search and float serving;
* :mod:`repro.analysis.qprove` — intervals (range certificates);
* :mod:`repro.analysis.qlower` — intervals plus grids (lowering plans);
* :mod:`repro.backend.int_backend` — integer codes (execution).

The layer walks live with their layers (``CapsFC.walk``,
``ConvCaps2d.walk``, :func:`~repro.capsnet.routing.walk_routing`, ...).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Set, Tuple

import numpy as np

from repro.autograd.ops_nn import avg_pool2d, conv2d, relu, softmax
from repro.autograd.tensor import Tensor, grad_enabled, no_grad
from repro.capsnet.squash import squash
from repro.nn.module import ForwardStage, Module
from repro.quant.qcontext import NULL_CONTEXT, QuantContext, RecordingContext

#: One step of a model walk: ``(layer, tag, fn(ctx, x))``.
Step = Tuple[str, str, Callable[[Any, Any], Any]]

#: Config fields in the order a stage records them.
FIELDS = ("qw", "qa", "qdr")


def capsule_rows(maps):
    """Capsule maps ``(B, types, dim, H, W)`` as rows ``(B, types·H·W,
    dim)``."""
    batch, types, dim, height, width = maps.shape
    return maps.transpose(0, 1, 3, 4, 2).reshape(
        batch, types * height * width, dim
    )


def capsule_votes(u: Tensor, weight: Tensor) -> Tensor:
    """Votes ``û_{j|i} = W_ij × u_i`` as ``(B, I, J, D_out)`` from
    inputs ``(B, I, D_in)`` and weights ``(I, J, D_out, D_in)``.

    One GEMM per input capsule: ``(I, B, D_in) @ (I, D_in, J·D_out)``
    feeds every sample and every output capsule of capsule ``i``
    through a single matrix product, instead of ``B·I·J`` separate
    ``D_out × D_in`` matrix-vector products.  The products are written
    through an ``(I, B, ·)`` view straight into a contiguous
    ``(B, I, J, D_out)`` array, the layout the routing contractions are
    fastest on, so no transposed copy is made.  Each vote is the same
    ``D_in``-term dot product as the broadcast form; on fixed-point grid
    inputs every product and partial sum is exact in float32, so the
    votes are bit-identical to it, and on FP32 inputs they match it to
    float32 roundoff.
    """
    in_caps, out_caps, out_dim, in_dim = weight.shape
    batch = u.shape[0]
    fan_out = out_caps * out_dim
    u_t = u.data.transpose(1, 0, 2)  # (I, B, D_in)
    w_t = weight.data.reshape(in_caps, fan_out, in_dim).transpose(
        0, 2, 1
    )  # (I, D_in, J·D_out)
    out = np.empty((batch, in_caps, fan_out), dtype=np.result_type(u.data, w_t))
    np.matmul(u_t, w_t, out=out.transpose(1, 0, 2))
    out = out.reshape(batch, in_caps, out_caps, out_dim)
    if not (grad_enabled() and (u.requires_grad or weight.requires_grad)):
        return Tensor(out)

    def backward_fn(grad: np.ndarray) -> None:
        grad_t = grad.reshape(batch, in_caps, fan_out).transpose(1, 0, 2)
        if weight.requires_grad or weight._backward_fn:
            grad_w = np.matmul(u_t.transpose(0, 2, 1), grad_t)
            weight._accumulate(grad_w.transpose(0, 2, 1).reshape(weight.shape))
        if u.requires_grad or u._backward_fn:
            grad_u = np.matmul(grad_t, w_t.transpose(0, 2, 1))
            u._accumulate(grad_u.transpose(1, 0, 2))

    return Tensor(out, True, (u, weight), backward_fn)


class FloatContext:
    """The walk on autograd tensors: the models' float forward.

    Hooks pass through to ``q`` (identity, fixed-point, calibration,
    recording or straight-through), ops run the autograd kernels.
    ``zero_logits`` opens a routing walk: it takes the ``(B, J, I, D)``
    view of the votes once, and both routing contractions of every
    iteration use that one view, so the votes' gradient flows back
    through a single transpose.
    """

    __slots__ = ("q", "_votes_t")

    def __init__(self, q: QuantContext = NULL_CONTEXT) -> None:
        self.q = q
        self._votes_t = None

    def weight(self, layer: str, name: str, param: Tensor) -> Tensor:
        return self.q.weight(layer, name, param)

    def act(self, layer: str, x: Tensor) -> Tensor:
        return self.q.act(layer, x)

    def routing(self, layer: str, array: str, x: Tensor) -> Tensor:
        return self.q.routing(layer, array, x)

    def layout(self, x: Tensor, fn: Callable) -> Tensor:
        return fn(x)

    def conv(self, layer, weight, bias, x, conv) -> Tensor:
        return conv2d(x, weight, bias, conv.stride, conv.padding)

    def linear(self, layer, weight, bias, x, fan_in=None) -> Tensor:
        if fan_in is not None:
            return capsule_votes(x, weight)
        return x @ weight.swapaxes(-1, -2) + bias

    def relu(self, layer: str, x: Tensor) -> Tensor:
        return relu(x)

    def avgpool(self, layer: str, x: Tensor, kernel: int) -> Tensor:
        return avg_pool2d(x, kernel)

    def batchnorm(self, layer: str, x: Tensor, bn) -> Tensor:
        return bn(x)

    def squash(self, layer: str, x: Tensor, dim: int, axis: int) -> Tensor:
        return squash(x, axis=axis)

    def softmax(self, layer: str, x: Tensor, count: int) -> Tensor:
        return softmax(x, axis=-1)  # over the J output capsules

    def add(self, layer: str, a: Tensor, b: Tensor) -> Tensor:
        return a + b

    def zero_logits(self, layer: str, votes: Tensor) -> Tensor:
        batch, in_caps, out_caps, _ = votes.shape
        self._votes_t = votes.transpose(0, 2, 1, 3)
        return Tensor(np.zeros((batch, in_caps, out_caps), dtype=np.float32))

    def weighted_sum(self, layer, coupling, votes, count) -> Tensor:
        # s_j = Σ_i c_ij · û_{j|i} — (B, J, 1, I) @ (B, J, I, D)
        return (
            coupling.transpose(0, 2, 1).expand_dims(2) @ self._votes_t
        ).squeeze(2)

    def agreement(self, layer, votes, activation, count) -> Tensor:
        # a_ij = v_j · û_{j|i} — (B, J, I, D) @ (B, J, D, 1)
        return (
            (self._votes_t @ activation.expand_dims(-1))
            .squeeze(-1)
            .transpose(0, 2, 1)
        )


class _FieldRecorder:
    """Null interpreter recording which config fields a step reads.

    It does no array work: every op returns its input and ``layout``
    never calls its ``fn``.  Hooks map to the fields they read —
    ``weight`` → ``qw``, ``act`` → ``qa``, ``routing`` → ``qdr`` and
    ``qa`` (``effective_qdr()`` falls back to ``qa``).  ``params`` lists
    each ``weight`` call's ``(layer, name, param)``.
    """

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.fields: Set[str] = set()
        self.params: List[Tuple[str, str, Any]] = []

    def _read(self, layer: str, *fields: str) -> None:
        if layer != self.layer:
            raise ValueError(
                f"a step of layer {self.layer!r} hooks layer {layer!r}"
            )
        self.fields.update(fields)

    def weight(self, layer, name, param):
        self._read(layer, "qw")
        self.params.append((layer, name, param))
        return param

    def act(self, layer, x):
        self._read(layer, "qa")
        return x

    def routing(self, layer, array, x):
        self._read(layer, "qdr", "qa")
        return x

    def layout(self, x, fn):
        return x

    def conv(self, layer, weight, bias, x, conv):
        return x

    def linear(self, layer, weight, bias, x, fan_in=None):
        return x

    def relu(self, layer, x):
        return x

    def avgpool(self, layer, x, kernel):
        return x

    def batchnorm(self, layer, x, bn):
        return x

    def squash(self, layer, x, dim, axis):
        return x

    def softmax(self, layer, x, count):
        return x

    def add(self, layer, a, b):
        return a

    def zero_logits(self, layer, votes):
        return votes

    def weighted_sum(self, layer, coupling, votes, count):
        return votes

    def agreement(self, layer, votes, activation, count):
        return votes


def _run_float(fn: Callable, x: Tensor, q: QuantContext) -> Tensor:
    return fn(FloatContext(q), x)


def activation_step(layer: str) -> Step:
    """A trailing activation-quantization step for ``layer``: an
    activation-bits-only probe reuses the layer's cached compute output
    and re-runs only this hook."""
    return (layer, "act", lambda ctx, x: ctx.act(layer, x))


class StagedModel(Module):
    """A model described once, by :meth:`steps`.

    ``forward`` folds the input through ``_stage_list`` (read at call
    time, so a wrapped list is honoured), which subclasses build at the
    end of ``__init__`` with :meth:`_build_stages`.  ``input_shape`` is
    one sample's ``(C, H, W)``.
    """

    input_shape: Tuple[int, ...]

    def steps(self) -> List[Step]:
        """The model's walk, in forward order (module docstring)."""
        raise NotImplementedError

    def _build_stages(self) -> None:
        """One :class:`~repro.nn.module.ForwardStage` per step.

        Each stage runs its step under :class:`FloatContext`, and its
        ``fields`` are recorded by running the step once under
        :class:`_FieldRecorder`.  That is sound because a step may
        branch on structure (``routed_skip``, ``quantize_output``, the
        iteration count) but never on values or config: the hooks it
        calls are the same for every input and every wordlength.
        """
        stages = []
        for layer, tag, fn in self.steps():
            recorder = _FieldRecorder(layer)
            fn(recorder, None)
            fields = tuple(f for f in FIELDS if f in recorder.fields)
            stages.append(
                ForwardStage(layer, fields, partial(_run_float, fn), tag)
            )
        self._stage_list = stages

    def forward(self, x: Tensor, q: QuantContext = NULL_CONTEXT) -> Tensor:
        for stage in self._stage_list:
            x = stage.fn(x, q)
        return x

    def stages(self) -> List[ForwardStage]:
        """Ordered stage decomposition of ``forward`` (consumed by
        :mod:`repro.engine.staged`).  Folding the input through every
        stage **is** the forward pass, so it cannot drift from the
        model."""
        return list(self._stage_list)

    def record_sizes(self) -> RecordingContext:
        """Probe forward pass that records every hooked array size."""
        recorder = RecordingContext(batch_size=1)
        probe = Tensor(np.zeros((1, *self.input_shape), dtype=np.float32))
        was_training = self.training
        self.eval()
        with no_grad():
            self.forward(probe, q=recorder)
        if was_training:
            self.train()
        return recorder

    def layer_activation_counts(self):
        """Activation elements per layer for one sample (A-mem accounting)."""
        return dict(self.record_sizes().act_elements)
