"""Declarative experiment spec — one validated object in, everything out.

A :class:`QuantSpec` captures *what* to run (model, dataset, rounding
schemes, tolerance, memory budgets) and *how* to run it (workers, prefix
cache budget, seed, batch size) as one frozen, JSON-round-trippable
value.  It replaces the 14-keyword constructor surface of
:class:`~repro.framework.qcapsnets.QCapsNets` as the public entrypoint:
a :class:`~repro.api.session.Session` consumes the spec and owns the
shared resources, and every produced
:class:`~repro.api.artifact.ModelArtifact` embeds the spec as
provenance.

Validation happens eagerly at construction with actionable messages —
an unknown model name lists the known presets, an unknown field in
:meth:`QuantSpec.from_dict` lists the valid fields — so a bad spec file
fails at load time, not three search phases in.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Tuple, Union

from repro.engine import DEFAULT_PREFIX_CACHE_BYTES
from repro.quant.rounding import ROUNDING_SCHEMES

#: Model presets the spec accepts (resolved by the session registry).
MODEL_CHOICES: Tuple[str, ...] = (
    "shallow-small", "shallow-tiny", "shallow-paper",
    "deep-small", "deep-paper",
)
#: Synthetic dataset families the spec accepts.
DATASET_CHOICES: Tuple[str, ...] = ("digits", "fashion", "cifar")


class SpecError(ValueError):
    """A :class:`QuantSpec` field (or spec document) is invalid."""


#: Spec fields that must hold a plain ``int`` (``bool`` excluded).
_INT_FIELDS = (
    "workers", "cache_bytes", "seed", "batch_size", "test_size",
    "train_size", "q_init", "min_bits",
)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


@dataclass(frozen=True)
class QuantSpec:
    """Declarative, validated description of one quantization workflow.

    Parameters
    ----------
    model:
        Model preset name (one of :data:`MODEL_CHOICES`).
    dataset:
        Synthetic dataset family (one of :data:`DATASET_CHOICES`).
    weights:
        Optional path to trained weights (``.npz`` from
        ``Module.save`` / ``qcapsnets train``); loaded lazily by the
        session.  ``None`` starts from random initialization (useful
        only for smoke runs or when ``Session.train`` is called first).
    schemes:
        Rounding-scheme library for :meth:`~repro.api.session.Session.select`;
        the **first** entry is the default scheme for single-scheme
        operations (``quantize``/``sweep``).  The paper's library is
        ``{TRN, RTN, SR}``.
    tolerance:
        ``accTOL`` — relative tolerated accuracy loss (0.015 = 1.5%).
    budget_mbit / budget_divisor:
        Weight-memory budget: an absolute Mbit value, or (when ``None``)
        the model's FP32 weight size divided by ``budget_divisor``.
    budgets_mbit:
        Optional budget grid for :meth:`~repro.api.session.Session.sweep`.
    workers:
        Forked worker processes that fan out the independent Algorithm-1
        branches of :meth:`~repro.api.session.Session.select` (one per
        scheme) and :meth:`~repro.api.session.Session.sweep` (one per
        budget); bit-identical to sequential, see
        :mod:`repro.engine.parallel`.  A single ``quantize`` always runs
        in-process.
    cache_bytes:
        Byte budget of the session's shared prefix-activation cache.
    seed:
        Seed for model init, dataset synthesis and stochastic rounding.
    batch_size:
        Evaluation batch size (also the serving batch granularity).
    test_size / train_size:
        Synthetic split sizes.
    q_init:
        Starting fractional wordlength for Step 1 (paper: 32).
    min_bits:
        Floor for every searched wordlength.
    sanitize:
        Run inference under the fixed-point sanitizer (per-layer
        overflow/saturation/NaN counters; see
        :class:`repro.lint.sanitizer.FixedPointSanitizer`).  Outputs
        are bit-identical either way; off adds zero overhead.
    """

    model: str = "shallow-small"
    dataset: str = "digits"
    weights: Optional[str] = None
    schemes: Tuple[str, ...] = ("RTN", "TRN", "SR")
    tolerance: float = 0.015
    budget_mbit: Optional[float] = None
    budget_divisor: float = 5.0
    budgets_mbit: Tuple[float, ...] = ()
    workers: int = 1
    cache_bytes: int = DEFAULT_PREFIX_CACHE_BYTES
    seed: int = 0
    batch_size: int = 128
    test_size: int = 256
    train_size: int = 2000
    q_init: int = 32
    min_bits: int = 0
    sanitize: bool = False

    def __post_init__(self) -> None:
        # Coerce JSON-decoded lists so equality (and hashing) hold
        # across a to_dict/from_dict round-trip.
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(
            self, "budgets_mbit", tuple(float(b) for b in self.budgets_mbit)
        )
        _check(
            self.model in MODEL_CHOICES,
            f"unknown model '{self.model}'; choose one of "
            f"{list(MODEL_CHOICES)}",
        )
        _check(
            self.dataset in DATASET_CHOICES,
            f"unknown dataset '{self.dataset}'; choose one of "
            f"{list(DATASET_CHOICES)}",
        )
        _check(
            self.model != "shallow-tiny" or self.dataset != "cifar",
            "model 'shallow-tiny' supports grayscale datasets only "
            "(got dataset 'cifar')",
        )
        _check(len(self.schemes) > 0, "schemes must not be empty")
        _check(
            len(set(self.schemes)) == len(self.schemes),
            f"duplicate rounding schemes in library: {list(self.schemes)}",
        )
        for name in self.schemes:
            _check(
                name in ROUNDING_SCHEMES,
                f"unknown rounding scheme '{name}'; choose from "
                f"{sorted(ROUNDING_SCHEMES)}",
            )
        _check(
            self.tolerance >= 0,
            f"tolerance must be >= 0, got {self.tolerance}",
        )
        _check(
            self.budget_mbit is None or self.budget_mbit > 0,
            f"budget_mbit must be positive, got {self.budget_mbit}",
        )
        _check(
            self.budget_divisor > 0,
            f"budget_divisor must be positive, got {self.budget_divisor}",
        )
        for budget in self.budgets_mbit:
            _check(
                budget > 0,
                f"budgets_mbit entries must be positive, got {budget}",
            )
        for name in _INT_FIELDS:
            value = getattr(self, name)
            # bool is an int subclass, and a float like 32.0 only fails
            # later, deep inside numpy (range/SeedSequence).
            _check(
                isinstance(value, int) and not isinstance(value, bool),
                f"{name} must be an integer, got {value!r}",
            )
        _check(self.workers >= 1, f"workers must be >= 1, got {self.workers}")
        _check(
            self.cache_bytes > 0,
            f"cache_bytes must be positive, got {self.cache_bytes}",
        )
        _check(
            self.batch_size >= 1,
            f"batch_size must be >= 1, got {self.batch_size}",
        )
        _check(
            self.test_size >= 1, f"test_size must be >= 1, got {self.test_size}"
        )
        _check(
            self.train_size >= 1,
            f"train_size must be >= 1, got {self.train_size}",
        )
        _check(self.q_init >= 1, f"q_init must be >= 1, got {self.q_init}")
        _check(self.min_bits >= 0, f"min_bits must be >= 0, got {self.min_bits}")
        _check(
            isinstance(self.sanitize, bool),
            f"sanitize must be a bool, got {self.sanitize!r}",
        )

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------
    @property
    def scheme(self) -> str:
        """Default scheme for single-scheme operations (first of
        ``schemes``)."""
        return self.schemes[0]

    def with_overrides(self, **overrides: object) -> "QuantSpec":
        """A copy with the given fields replaced (re-validated)."""
        unknown = set(overrides) - {f.name for f in fields(self)}
        if unknown:
            raise SpecError(
                f"unknown spec field(s) {sorted(unknown)}; valid fields: "
                f"{[f.name for f in fields(self)]}"
            )
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Serialization (JSON round-trip is lossless)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation; inverse of :meth:`from_dict`."""
        return {
            "model": self.model,
            "dataset": self.dataset,
            "weights": self.weights,
            "schemes": list(self.schemes),
            "tolerance": self.tolerance,
            "budget_mbit": self.budget_mbit,
            "budget_divisor": self.budget_divisor,
            "budgets_mbit": list(self.budgets_mbit),
            "workers": self.workers,
            "cache_bytes": self.cache_bytes,
            "seed": self.seed,
            "batch_size": self.batch_size,
            "test_size": self.test_size,
            "train_size": self.train_size,
            "q_init": self.q_init,
            "min_bits": self.min_bits,
            "sanitize": self.sanitize,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "QuantSpec":
        """Build a validated spec from a plain dict (e.g. decoded JSON).

        Unknown keys are rejected with the list of valid fields, so a
        typo in a spec file fails loudly instead of silently falling
        back to a default.
        """
        if not isinstance(data, dict):
            raise SpecError(
                f"spec document must be a JSON object, got "
                f"{type(data).__name__}"
            )
        valid = {f.name for f in fields(cls)}
        unknown = set(data) - valid
        if unknown:
            raise SpecError(
                f"unknown spec field(s) {sorted(unknown)}; valid fields: "
                f"{sorted(valid)}"
            )
        try:
            return cls(**data)
        except TypeError as error:  # e.g. a non-mapping schemes value
            raise SpecError(f"malformed spec document: {error}") from error

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "QuantSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise SpecError(f"spec is not valid JSON: {error}") from error
        return cls.from_dict(data)

    def save(self, path: Union[str, os.PathLike]) -> None:
        """Write the spec as a JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "QuantSpec":
        """Read and validate a JSON spec document."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            raise SpecError(f"cannot read spec file {path!r}: {error}") from error
        return cls.from_json(text)
