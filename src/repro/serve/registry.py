"""Multi-tenant model registry with LRU eviction of cold sessions.

The daemon serves many artifacts from one process.  Each registered
artifact owns one *warm* :class:`~repro.api.session.ServingModel` — a
bound model with its frozen integer codes reconstructed — but warm
models cost memory, so only the ``max_warm`` most recently used tenants
stay bound; the least recently used one is evicted back to *cold*
(artifact metadata only) and transparently re-bound on its next
request.

Thread safety: every public method takes the registry lock.  Binding a
model (the expensive step) happens under the lock too, which
serializes concurrent first-requests to the same tenant instead of
binding twice.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.analysis.lowering import LoweringPlan
from repro.api.artifact import ArtifactError, ModelArtifact
from repro.api.session import ServingModel, Session, spec_input_shape
from repro.api.spec import QuantSpec
from repro.backend import check_int_gates, resolve_backend
from repro.nn.module import Module
from repro.quant.rounding import StochasticRounding, get_rounding_scheme


class RegistryError(ValueError):
    """A registration or lookup is invalid (unknown/duplicate tenant)."""


class RegisteredModel:
    """One tenant: artifact metadata plus (possibly) a warm binding."""

    def __init__(
        self,
        name: str,
        artifact: ModelArtifact,
        path: Optional[str] = None,
        model: Optional[Module] = None,
        backend: str = "float",
    ):
        self.name = name
        self.artifact = artifact
        self.path = path
        #: Execution backend this tenant binds with ("float" / "int").
        self.backend = backend
        self._model = model
        #: Injected models are caller-owned and survive eviction;
        #: registry-built ones are dropped with the rest of the session.
        self._model_injected = model is not None
        self.serving: Optional[ServingModel] = None
        #: Times this tenant was (re-)bound — cold starts.
        self.binds = 0
        #: Predict requests routed to this tenant.
        self.requests = 0
        #: Spec provenance (None for hand-built artifacts with a model).
        self.spec: Optional[QuantSpec] = (
            QuantSpec.from_dict(artifact.spec)
            if artifact.spec is not None
            else None
        )
        #: Expected per-sample input shape, when derivable from the spec.
        self.input_shape = (
            spec_input_shape(self.spec) if self.spec is not None else None
        )
        #: Pixel range the int backend is certified for (None: float
        #: tenants accept any finite pixel).
        self.input_range: Optional[Tuple[float, float]] = (
            LoweringPlan.from_dict(artifact.lowering_plan).input_domain()
            if backend == "int" and artifact.lowering_plan
            else None
        )
        #: Stochastic rounding draws one stream across a whole forward,
        #: so coalescing requests into one batch would change per-sample
        #: results; deterministic schemes are per-sample independent.
        self.coalescable = not isinstance(
            get_rounding_scheme(artifact.scheme, seed=artifact.seed),
            StochasticRounding,
        )

    @property
    def warm(self) -> bool:
        return self.serving is not None

    def describe(self) -> Dict[str, object]:
        """JSON-safe row for ``/v1/models``."""
        info: Dict[str, object] = {
            "name": self.name,
            "format_version": self.artifact.version,
            "scheme": self.artifact.scheme,
            "weight_storage_bits": self.artifact.weight_storage_bits(),
            "backend": self.backend,
            "warm": self.warm,
            "binds": self.binds,
            "requests": self.requests,
            "coalescable": self.coalescable,
        }
        if self.artifact.accuracy is not None:
            info["accuracy"] = self.artifact.accuracy
        if self.input_shape is not None:
            info["input_shape"] = list(self.input_shape)
        if self.path is not None:
            info["path"] = self.path
        return info


class ModelRegistry:
    """Named artifacts behind a warm-session LRU.

    Parameters
    ----------
    max_warm:
        Tenants allowed to hold a bound :class:`ServingModel` at once;
        the least recently used beyond that is evicted to cold.
    batch_size:
        Inference batch size for every warm model (``None`` keeps each
        artifact's own ``spec.batch_size``).
    sanitize:
        Force the fixed-point sanitizer on (``True``) or off
        (``False``) for every warm model; ``None`` keeps each
        artifact's own ``spec.sanitize``.
    require_certified:
        Refuse to register artifacts that do not carry a *passing*
        qprove range certificate (static proof that no layer's
        pre-clip codes can exceed the provisioned accumulator width).
    backend:
        Default execution backend for every tenant (``"float"`` /
        ``"int"``); individual registrations may override it.  Tenants
        on the int backend are gated at registration time: the
        artifact must be certified PASS and lowerable.
    """

    def __init__(
        self,
        max_warm: int = 4,
        batch_size: Optional[int] = None,
        sanitize: Optional[bool] = None,
        require_certified: bool = False,
        backend: Optional[str] = None,
    ):
        if max_warm < 1:
            raise ValueError(f"max_warm must be >= 1, got {max_warm}")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.max_warm = max_warm
        self.batch_size = batch_size
        self.sanitize = sanitize
        self.require_certified = require_certified
        self.backend = resolve_backend(backend)
        #: Insertion order is LRU order: least recently used first.
        self._entries: "OrderedDict[str, RegisteredModel]" = OrderedDict()
        self._lock = threading.Lock()
        self.evictions = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        path: Optional[str] = None,
        artifact: Optional[ModelArtifact] = None,
        model: Optional[Module] = None,
        backend: Optional[str] = None,
    ) -> RegisteredModel:
        """Add a tenant by artifact ``path`` or in-memory ``artifact``.

        ``model`` injects a pre-built model instance (tests, embedded
        use); without one, the artifact must carry spec provenance the
        session layer can rebuild the model from.  ``backend``
        overrides the registry's default backend for this tenant; int
        tenants are gated here (fail fast at registration, not on the
        first request): the artifact must be certified PASS and
        lowerable, else :class:`~repro.api.artifact.ArtifactError`.
        """
        if (path is None) == (artifact is None):
            raise RegistryError(
                "register() needs exactly one of path= or artifact="
            )
        if artifact is None:
            artifact = ModelArtifact.load(path)
        if artifact.spec is None and model is None:
            raise ArtifactError(
                f"artifact {name!r} carries no spec provenance; pass "
                "model= to serve it"
            )
        if self.require_certified and not artifact.certified:
            verdict = (
                "a FAILED certificate"
                if artifact.certificate
                else "no certificate"
            )
            raise RegistryError(
                f"artifact {name!r} carries {verdict} but this registry "
                "requires certified artifacts; run 'qcapsnets certify "
                "--artifact PATH --update' first"
            )
        chosen = self.backend if backend is None else resolve_backend(backend)
        if chosen == "int":
            check_int_gates(artifact)
        with self._lock:
            if name in self._entries:
                raise RegistryError(f"model {name!r} is already registered")
            entry = RegisteredModel(
                name, artifact, path=path, model=model, backend=chosen
            )
            self._entries[name] = entry
            return entry

    def names(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Lookup / warm binding
    # ------------------------------------------------------------------
    def entry(self, name: str) -> RegisteredModel:
        """The registration record (no warming, no LRU touch)."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise RegistryError(
                    f"unknown model {name!r}; registered: "
                    f"{list(self._entries)}"
                )
            return entry

    def get(self, name: str, requests: int = 1) -> ServingModel:
        """The tenant's warm :class:`ServingModel`, binding if cold.

        Marks the tenant most recently used and evicts the coldest warm
        tenant beyond ``max_warm``.  ``requests`` is how many predict
        requests this lookup serves — a coalesced forward passes its
        group size so per-tenant request telemetry counts submissions,
        not forwards.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise RegistryError(
                    f"unknown model {name!r}; registered: "
                    f"{list(self._entries)}"
                )
            self._entries.move_to_end(name)
            entry.requests += requests
            if entry.serving is None:
                entry.serving = self._bind(entry)
                entry.binds += 1
                self._evict_cold(keep=name)
            return entry.serving

    def _bind(self, entry: RegisteredModel) -> ServingModel:
        if entry._model is None:
            entry._model = Session(entry.spec).model
        quantized = entry.artifact.bind(entry._model, backend=entry.backend)
        batch_size = self.batch_size
        if batch_size is None:
            batch_size = (
                entry.spec.batch_size if entry.spec is not None else 128
            )
        sanitize = self.sanitize
        if sanitize is None:
            sanitize = (
                entry.spec.sanitize if entry.spec is not None else False
            )
        return ServingModel(
            quantized, batch_size=batch_size, sanitize=sanitize
        )

    def _evict_cold(self, keep: str) -> None:  # qlint: guarded-by(_lock)
        """Drop warm bindings beyond ``max_warm``, least recent first."""
        warm = [e for e in self._entries.values() if e.warm]
        excess = len(warm) - self.max_warm
        for entry in warm:
            if excess <= 0:
                break
            if entry.name == keep:
                continue
            entry.serving = None
            if not entry._model_injected:
                entry._model = None  # a true cold start on re-bind
            self.evictions += 1
            excess -= 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def warm_names(self) -> List[str]:
        with self._lock:
            return [e.name for e in self._entries.values() if e.warm]

    def describe(self) -> List[Dict[str, object]]:
        with self._lock:
            return [entry.describe() for entry in self._entries.values()]

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "models": len(self._entries),
                "warm": sum(1 for e in self._entries.values() if e.warm),
                "max_warm": self.max_warm,
                "evictions": self.evictions,
                "binds": sum(e.binds for e in self._entries.values()),
                "requests": sum(e.requests for e in self._entries.values()),
                "backends": {
                    e.name: e.backend for e in self._entries.values()
                },
            }

    def sanitizer_reports(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant sanitizer counter snapshots (warm, sanitizing only)."""
        with self._lock:
            serving = {
                e.name: e.serving
                for e in self._entries.values()
                if e.serving is not None and e.serving.sanitizing
            }
        return {
            name: model.sanitizer_report()
            for name, model in serving.items()
        }
