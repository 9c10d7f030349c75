"""Unified public API: declarative spec → warm session → versioned artifact.

The single entrypoint for the whole Q-CapsNets workflow::

    from repro.api import ModelArtifact, QuantSpec, Session

    spec = QuantSpec(model="shallow-tiny", dataset="digits",
                     schemes=("RTN", "TRN"), tolerance=0.02,
                     budget_divisor=4.0, weights="model.npz")
    session = Session(spec)

    result = session.quantize()            # Algorithm 1, one scheme
    outcome = session.select()             # Sec. III-B library search
    artifact = session.export(result, path="model.qcn.npz")

    served = Session(spec).serve("model.qcn.npz")   # later / elsewhere
    labels = served.predict(images)        # no search re-run, ever

Three pieces:

* :class:`QuantSpec` — validated, JSON-round-trippable description of
  one workflow (model, dataset, schemes, tolerance, budgets, workers,
  cache budget, seed);
* :class:`Session` — owns the model, the splits, one shared
  :class:`~repro.engine.StagedExecutor` and the per-scheme evaluators,
  so every operation reuses the same warm cross-scheme prefix cache;
* :class:`ModelArtifact` — versioned, self-describing serialization of
  the search's winner (provenance spec, per-layer config, frozen
  integer weight codes, accuracy/memory report) with a
  :meth:`Session.serve` path for batched quantized inference.

The ``qcapsnets`` CLI is a thin shell over this package; low-level
wiring goes through :meth:`~repro.framework.QCapsNets.build` /
:meth:`~repro.framework.QCapsNets.from_spec` and
:func:`~repro.framework.scheme_search`.
"""

from repro.api.artifact import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    SUPPORTED_VERSIONS,
    ArtifactError,
    ModelArtifact,
)
from repro.api.session import (
    ServingModel,
    Session,
    build_dataset,
    build_model,
    dataset_channels,
)
from repro.api.spec import (
    DATASET_CHOICES,
    MODEL_CHOICES,
    QuantSpec,
    SpecError,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "DATASET_CHOICES",
    "MODEL_CHOICES",
    "ModelArtifact",
    "QuantSpec",
    "SUPPORTED_VERSIONS",
    "ServingModel",
    "Session",
    "SpecError",
    "build_dataset",
    "build_model",
    "dataset_channels",
]
