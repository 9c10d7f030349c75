"""Long-lived serving daemon: stdlib HTTP/JSON over warm sessions.

``qcapsnets serve`` runs one of these.  Three endpoints:

* ``GET /healthz`` — liveness plus registry/batcher counters
  (including the per-tenant execution-backend map);
* ``GET /v1/models`` — one row per registered tenant (format version,
  scheme, storage bits, execution backend, warm/cold state, request
  counts);
* ``POST /v1/predict`` — body ``{"model": name, "images": [...]}``;
  responds ``{"model", "predictions", "count", "batched_with"}``.

Request handling is deliberately two-stage: handler threads (the
:class:`ThreadingHTTPServer` pool) parse and *validate* — malformed
JSON, unknown tenants, empty batches, non-float32 payloads and shape
mismatches all turn into 4xx responses without ever touching a model —
then enqueue onto the :class:`~repro.serve.batcher.MicroBatcher`,
whose single dispatcher thread owns all model execution.  Validation
failures therefore cannot poison the queue, and a crashed forward
surfaces as a 500 on exactly the requests that shared its batch.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

import numpy as np

from repro.serve.batcher import MicroBatcher
from repro.serve.registry import ModelRegistry, RegistryError

#: Ceiling on one request's JSON body (a 128-sample CIFAR batch of
#: float32 text literals is ~4 MiB; this leaves generous headroom).
MAX_BODY_BYTES = 256 * 1024 * 1024
#: How long a handler waits for its micro-batched prediction.
PREDICT_TIMEOUT_S = 300.0


class RequestError(ValueError):
    """A client error carrying its HTTP status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def validate_images(
    payload: Dict[str, object],
    expected_shape: Optional[Tuple[int, ...]],
    input_range: Optional[Tuple[float, float]] = None,
) -> np.ndarray:
    """Parse/validate a predict payload into a float32 batch.

    Rejects (as 400s): a missing/empty batch, payloads that are not
    float32-representable numbers, non-finite pixels, an explicit
    non-float32 ``dtype`` claim, per-sample shapes differing from
    ``expected_shape``, and — when ``input_range`` is given (int
    tenants: the plan's certified input domain) — pixels outside it.
    Rejecting here keeps one bad request from failing the coalesced
    batch it would have joined.
    """
    if "images" not in payload:
        raise RequestError(400, "missing 'images' field")
    dtype = payload.get("dtype", "float32")
    if dtype != "float32":
        raise RequestError(
            400, f"unsupported dtype {dtype!r}; images must be float32"
        )
    try:
        images = np.asarray(payload["images"])
    except (ValueError, TypeError) as error:
        raise RequestError(400, f"malformed images payload: {error}")
    if images.dtype.kind not in "fiu":
        raise RequestError(
            400,
            f"images must be numeric (float32), got dtype {images.dtype}",
        )
    if images.size == 0 or images.ndim == 0:
        raise RequestError(400, "empty image batch")
    images = np.ascontiguousarray(images, dtype=np.float32)
    if not np.isfinite(images).all():
        raise RequestError(400, "images contain non-finite pixels")
    if input_range is not None:
        lo, hi = input_range
        if images.min() < lo or images.max() > hi:
            raise RequestError(
                400,
                f"pixels span [{images.min():g}, {images.max():g}], "
                f"outside the certified input range [{lo:g}, {hi:g}]",
            )
    if images.ndim == 3 and (
        expected_shape is None or images.shape == expected_shape
    ):
        # A single un-batched sample is accepted and promoted (for
        # tenants without a spec-derived shape, any 3-D payload is
        # treated as one (C, H, W) sample).
        images = images[None]
    if images.ndim != 4:
        raise RequestError(
            400,
            f"images must be a 4-D (batch, channels, height, width) "
            f"array, got shape {tuple(images.shape)}",
        )
    if expected_shape is not None and images.shape[1:] != expected_shape:
        raise RequestError(
            400,
            f"per-sample shape {tuple(images.shape[1:])} does not match "
            f"the model's input shape {tuple(expected_shape)}",
        )
    return images


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: Quieted by default; the daemon logs a startup banner instead.
    verbose = False

    @property
    def daemon(self) -> "ServingDaemon":
        return self.server.serving_daemon  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        if self.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    # -- plumbing ------------------------------------------------------
    def _reply(self, status: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def _read_json(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            raise RequestError(400, "missing request body")
        if length > MAX_BODY_BYTES:
            raise RequestError(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise RequestError(400, f"invalid JSON body: {error}")
        if not isinstance(payload, dict):
            raise RequestError(400, "request body must be a JSON object")
        return payload

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        if self.path in ("/healthz", "/health"):
            daemon = self.daemon
            self._reply(200, {
                "status": "ok",
                "uptime_s": round(time.monotonic() - daemon.started, 3),
                "models": daemon.registry.names(),
                "registry": daemon.registry.stats(),
                "batcher": daemon.batcher.stats(),
                "sanitizers": daemon.registry.sanitizer_reports(),
            })
        elif self.path == "/v1/models":
            self._reply(200, {"models": self.daemon.registry.describe()})
        else:
            self._error(404, f"no route for GET {self.path}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        if self.path != "/v1/predict":
            self._error(404, f"no route for POST {self.path}")
            return
        try:
            payload = self._read_json()
            name = payload.get("model")
            if not isinstance(name, str) or not name:
                raise RequestError(400, "missing 'model' field")
            registry = self.daemon.registry
            if name not in registry:
                raise RequestError(
                    404,
                    f"unknown model {name!r}; registered: "
                    f"{registry.names()}",
                )
            entry = registry.entry(name)
            images = validate_images(
                payload, entry.input_shape, entry.input_range
            )
        except RequestError as error:
            self._error(error.status, str(error))
            return
        try:
            ticket = self.daemon.batcher.submit(name, images)
        except RuntimeError as error:  # daemon shutting down
            self._error(503, str(error))
            return
        try:
            predictions = ticket.future.result(timeout=PREDICT_TIMEOUT_S)
        except FutureTimeoutError:
            # Note: only an alias of the builtin TimeoutError on 3.11+,
            # so catch the futures class itself for 3.9/3.10.
            self._error(504, "prediction timed out")
            return
        except RegistryError as error:
            self._error(404, str(error))
            return
        except Exception as error:  # model/binding failure -> server side
            self._error(500, f"prediction failed: {error}")
            return
        self._reply(200, {
            "model": name,
            "predictions": [int(label) for label in predictions],
            "count": int(len(predictions)),
            "batched_with": ticket.batched_with,
        })


class _HTTPServer(ThreadingHTTPServer):
    #: The stdlib default listen backlog of 5 drops SYNs under a burst
    #: of concurrent clients, costing each a ~1s kernel retransmit.
    request_queue_size = 128
    daemon_threads = True


class ServingDaemon:
    """One warm multi-tenant serving process.

    Composes the serving pieces — :class:`ModelRegistry` (warm sessions
    + LRU eviction), :class:`MicroBatcher` (request coalescing on one
    in-process dispatcher thread) and a threading HTTP server — and
    owns their lifecycle.  ``port=0`` binds an ephemeral port (tests);
    :meth:`start` runs the daemon on a background thread,
    :meth:`serve_forever` in the foreground (the CLI).

    ``workers`` is accepted for callers that still pass it; only 1 is
    valid, since every forward runs on the one dispatcher thread.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
        workers: int = 1,
    ):
        if workers != 1:
            raise ValueError(
                f"workers must be 1 (the daemon runs every forward on "
                f"one in-process dispatcher thread), got {workers}"
            )
        self.registry = registry
        self.batcher = MicroBatcher(
            registry, max_batch=max_batch, max_wait_ms=max_wait_ms
        )
        self._http = _HTTPServer((host, port), _Handler)
        self._http.serving_daemon = self  # type: ignore[attr-defined]
        #: Guards the lifecycle state (_thread) against concurrent
        #: start()/shutdown() callers.
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self.started = time.monotonic()

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServingDaemon":
        """Serve on a background thread (returns immediately)."""
        self.batcher.start()
        with self._lock:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._http.serve_forever,
                    name="qcapsnets-http",
                    daemon=True,
                )
                self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self.batcher.start()
        try:
            self._http.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        self._http.shutdown()
        self._http.server_close()
        self.batcher.close()
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join(timeout=10.0)

    def __enter__(self) -> "ServingDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
