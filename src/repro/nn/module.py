"""Module/Parameter system: composable layers with parameter registration.

Mirrors the small subset of ``torch.nn.Module`` the paper's code needs:
attribute-based registration of parameters and sub-modules, recursive
parameter iteration, train/eval mode, and ``state_dict`` save/load (as
plain ``.npz`` archives, so trained models can be cached on disk by the
benchmark harness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.autograd.tensor import Tensor


@dataclass(frozen=True)
class ForwardStage:
    """One step of a model's ``stages()`` decomposition.

    A staged model's forward pass is the fold of its input through an
    ordered list of these records; each holds the quantization ``layer``
    it belongs to, the callable ``fn(x, q)`` mapping the previous
    boundary activation (plus a quantization context) to the next one,
    and the config ``fields`` of that layer the step consumes — the
    dependencies the prefix-reuse engine fingerprints:

    * ``("qw",)`` — the compute step of a layer (weight hooks only);
    * ``("qa",)`` — a trailing activation-quantization step;
    * ``("qw", "qa", "qdr")`` — a dynamic-routing step (votes are
      quantized with ``qa`` and the routing arrays with ``qdr`` inside
      the loop, so the whole step depends on all three).

    The models build their stages from their walk
    (:class:`repro.capsnet.walk.StagedModel`), which records ``fields``
    from the hooks each step calls.  Splitting layers at the
    compute/quantize boundary is what makes activation-only probes
    cheap: a config that changes just ``qa`` of a layer reuses the
    layer's cached compute output and re-runs only the quantization
    hook.
    """

    layer: str
    fields: Tuple[str, ...]
    fn: Callable
    #: Distinguishes steps within one layer ("" = compute/main step).
    tag: str = ""

    @property
    def name(self) -> str:
        """Unique stage identifier (``layer`` or ``layer:tag``)."""
        return f"{self.layer}:{self.tag}" if self.tag else self.layer


class Parameter(Tensor):
    """A tensor that is always a leaf with ``requires_grad=True``."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        # Parameters must stay differentiable even if constructed inside a
        # ``no_grad`` block (Tensor.__init__ honours the global switch).
        self.requires_grad = True


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are auto-registered for :meth:`parameters`,
    :meth:`named_parameters` and ``state_dict`` traversal.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_weight_version", 0)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        elif isinstance(value, np.ndarray) and not name.startswith("_"):
            # Plain arrays (e.g. batch-norm running statistics) are
            # registered as buffers so they round-trip through state_dict.
            self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Parameter traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def num_parameters(self) -> int:
        """Total number of scalar parameters (weights + biases)."""
        return sum(param.size for param in self.parameters())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # ------------------------------------------------------------------
    # Weight-version tracking
    # ------------------------------------------------------------------
    @property
    def weight_version(self) -> int:
        """Monotonic token that changes whenever parameters mutate.

        Weight-derived caches (the prefix-reuse executor's boundary
        activations, a session's evaluator memos and calibration scales)
        key or guard on this value: a bump invalidates them without any
        tensor comparison.  :meth:`load_state_dict` and the training
        loops bump it automatically; code that assigns ``param.data``
        directly must call :meth:`bump_weight_version` itself.
        """
        return self._weight_version

    def bump_weight_version(self) -> int:
        """Record an in-place parameter mutation (recursive).

        Every submodule is bumped too, so caches watching any level of
        the module tree observe the change — e.g. fine-tuning wraps the
        model in an STE shell and trains the wrapper, while the serving
        caches watch the inner model.  Returns the new root version.
        """
        object.__setattr__(self, "_weight_version", self._weight_version + 1)
        for module in self._modules.values():
            module.bump_weight_version()
        return self._weight_version

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            # Read through the attribute so re-assignments are reflected.
            yield (f"{prefix}{name}", getattr(self, name))
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every named parameter and buffer as a plain ndarray."""
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        state.update(
            {f"buffer:{name}": value.copy() for name, value in self.named_buffers()}
        )
        return state

    def _assign_buffer(self, dotted_name: str, value: np.ndarray) -> None:
        module: Module = self
        parts = dotted_name.split(".")
        for part in parts[:-1]:
            module = module._modules[part]
        setattr(module, parts[-1], value)

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = {k: v for k, v in state.items() if not k.startswith("buffer:")}
        buffers = {
            k[len("buffer:") :]: v for k, v in state.items() if k.startswith("buffer:")
        }
        own = dict(self.named_parameters())
        missing = set(own) - set(params)
        unexpected = set(params) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(params[name])
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for '{name}': "
                    f"expected {param.shape}, got {value.shape}"
                )
            param.data = value.astype(param.data.dtype)
        own_buffers = dict(self.named_buffers())
        for name, value in buffers.items():
            if name not in own_buffers:
                raise KeyError(f"unexpected buffer '{name}' in state dict")
            self._assign_buffer(name, np.asarray(value))
        self.bump_weight_version()

    def save(self, path) -> None:
        """Persist parameters to an ``.npz`` archive."""
        np.savez(path, **self.state_dict())

    def load(self, path) -> None:
        """Load parameters previously stored with :meth:`save`."""
        with np.load(path) as archive:
            self.load_state_dict({name: archive[name] for name in archive.files})

    # ------------------------------------------------------------------
    # Forward dispatch
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
