"""Long-lived multi-tenant serving for quantized capsule networks.

``qcapsnets serve --artifact a.npz --artifact b.npz`` keeps one warm
bound session per artifact behind an HTTP/JSON surface.  Four pieces:

* :class:`~repro.serve.registry.ModelRegistry` — named artifacts with
  a bound-session LRU: at most ``max_warm`` tenants stay warm, colder
  ones re-bind transparently on their next request;
* :class:`~repro.serve.batcher.MicroBatcher` — coalesces queued
  predict requests for one tenant into a single forward (up to
  ``max_batch`` samples / ``max_wait_ms`` of gathering), runs it on
  one in-process dispatcher thread and splits the predictions back per
  request;
* :class:`~repro.serve.server.ServingDaemon` — the stdlib HTTP server
  (``/v1/predict``, ``/v1/models``, ``/healthz``) with strict payload
  validation (4xx, never a crash);
* :class:`~repro.serve.client.Client` — the matching client.

Micro-batched predictions are bit-identical to an offline
``Session.predict`` for the deterministic rounding schemes; stochastic
rounding tenants are served one request per forward to preserve their
draw streams (see :mod:`repro.serve.batcher`).
"""

from repro.serve.batcher import MicroBatcher, PredictTicket
from repro.serve.client import Client, ServeError
from repro.serve.registry import ModelRegistry, RegisteredModel, RegistryError
from repro.serve.server import RequestError, ServingDaemon, validate_images

__all__ = [
    "Client",
    "MicroBatcher",
    "ModelRegistry",
    "PredictTicket",
    "RegisteredModel",
    "RegistryError",
    "RequestError",
    "ServeError",
    "ServingDaemon",
    "validate_images",
]
