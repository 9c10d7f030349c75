"""Long-lived serving daemon: stdlib HTTP/JSON over warm sessions.

``qcapsnets serve`` runs one of these.  Three endpoints:

* ``GET /healthz`` — liveness plus registry/batcher counters
  (including the per-tenant execution-backend map);
* ``GET /v1/models`` — one row per registered tenant (format version,
  scheme, storage bits, execution backend, warm/cold state, request
  counts);
* ``POST /v1/predict`` — body ``{"model": name, "images": [...]}``
  (nested JSON lists, the curl-able form) or ``{"model": name,
  "images_b64": ..., "shape": [...]}`` (base64 of the batch's raw
  little-endian float32 bytes, the form :class:`~repro.serve.Client`
  sends); responds ``{"model", "predictions", "count",
  "batched_with"}``.

Connections are HTTP/1.1 keep-alive with ``TCP_NODELAY`` set, so a
client that reuses one pays no connection setup and no Nagle stall per
request; a connection idle for ``IDLE_TIMEOUT_S`` is closed, and
:meth:`ServingDaemon.shutdown` ends every open one.

Request handling is deliberately two-stage: handler threads (the
:class:`ThreadingHTTPServer` pool, one per open connection) parse and
*validate* — malformed JSON, unknown tenants, empty batches,
non-float32 payloads and shape mismatches all turn into 4xx responses
without ever touching a model — then enqueue onto the
:class:`~repro.serve.batcher.MicroBatcher`, whose single dispatcher
thread owns all model execution.  Validation failures therefore cannot
poison the queue, and a crashed forward surfaces as a 500 on exactly
the requests that shared its batch.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import socket
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Set, Tuple, Type

import numpy as np

from repro.serve.batcher import MicroBatcher
from repro.serve.registry import ModelRegistry, RegistryError

#: Ceiling on one request's body.  A 128-sample CIFAR batch is ~2 MiB
#: as base64 float32 and ~4 MiB as JSON text literals; this leaves
#: generous headroom for either.
MAX_BODY_BYTES = 256 * 1024 * 1024
#: How long a handler waits for its micro-batched prediction.
PREDICT_TIMEOUT_S = 300.0
#: How long a keep-alive connection may sit idle (or stall mid-request)
#: before its handler thread closes it.
IDLE_TIMEOUT_S = 60.0


class RequestError(ValueError):
    """A client error carrying its HTTP status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _decode_list(images: object) -> np.ndarray:
    """The ``images`` form: nested JSON lists of numbers."""
    try:
        array = np.asarray(images)
    except (ValueError, TypeError) as error:
        raise RequestError(
            400, f"malformed images payload: {error}"
        ) from error
    if array.dtype.kind not in "fiu":
        raise RequestError(
            400,
            f"images must be numeric (float32), got dtype {array.dtype}",
        )
    # Magnitudes beyond float32 become inf, which the finiteness check
    # refuses.
    with np.errstate(over="ignore"):
        return np.ascontiguousarray(array, dtype=np.float32)


def _decode_b64(encoded: object, shape: object) -> np.ndarray:
    """The ``images_b64`` form: base64 of raw little-endian float32
    bytes, laid out in C order as ``shape``."""
    if (
        not isinstance(shape, list)
        or len(shape) not in (3, 4)
        or not all(type(dim) is int and dim >= 0 for dim in shape)
    ):
        raise RequestError(
            400, "'shape' must be a list of 3 or 4 non-negative ints"
        )
    if not isinstance(encoded, str):
        raise RequestError(400, "'images_b64' must be a base64 string")
    try:
        raw = base64.b64decode(encoded, validate=True)
    except (binascii.Error, ValueError) as error:
        raise RequestError(
            400, f"invalid base64 in 'images_b64': {error}"
        ) from error
    # Python ints: a hostile shape cannot overflow or allocate.
    if len(raw) != 4 * math.prod(shape):
        raise RequestError(
            400,
            f"'images_b64' holds {len(raw)} bytes, but a float32 batch "
            f"of the given shape needs {4 * math.prod(shape)}",
        )
    flat = np.frombuffer(raw, "<f4")
    try:
        batch = flat.reshape(shape)
    except ValueError as error:
        # A zero-size shape whose other dims overflow numpy's index type.
        raise RequestError(
            400, f"'shape' {shape} is not a valid array shape: {error}"
        ) from error
    return batch.astype(np.float32)


def validate_images(
    payload: Dict[str, object],
    expected_shape: Optional[Tuple[int, ...]],
    input_range: Optional[Tuple[float, float]] = None,
) -> np.ndarray:
    """Parse/validate a predict payload into a float32 batch.

    The batch comes as exactly one of ``images`` (nested lists) or
    ``images_b64`` with ``shape`` (raw little-endian float32 bytes).
    Rejects (as 400s): a missing/empty batch, both forms at once,
    payloads that are not float32-representable numbers, bad base64 or
    a byte count that does not match ``shape``, non-finite pixels, an
    explicit non-float32 ``dtype`` claim, per-sample shapes differing
    from ``expected_shape``, and — when ``input_range`` is given (int
    tenants: the plan's certified input domain) — pixels outside it.
    Rejecting here keeps one bad request from failing the coalesced
    batch it would have joined.
    """
    binary = "images_b64" in payload
    if binary and "images" in payload:
        raise RequestError(
            400, "send exactly one of 'images' and 'images_b64'"
        )
    if not binary and "images" not in payload:
        raise RequestError(400, "missing 'images' field")
    dtype = payload.get("dtype", "float32")
    if dtype != "float32":
        raise RequestError(
            400, f"unsupported dtype {dtype!r}; images must be float32"
        )
    if binary:
        images = _decode_b64(payload["images_b64"], payload.get("shape"))
    else:
        images = _decode_list(payload["images"])
    if images.size == 0 or images.ndim == 0:
        raise RequestError(400, "empty image batch")
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
    #: ``http.server`` sends headers and body in two writes; on a reused
    #: connection Nagle would hold the body back until the client's
    #: delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    #: Socket timeout of every read and write; an idle keep-alive
    #: connection times out in its request-line read and is closed.
    timeout = IDLE_TIMEOUT_S
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
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def _read_json(self) -> Dict[str, object]:
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            length = -1
        if length <= 0 or length > MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot carry
            # another request.
            self.close_connection = True
            if length > 0:
                raise RequestError(
                    413, f"request body exceeds {MAX_BODY_BYTES} bytes"
                )
            raise RequestError(400, "missing request body")
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

    def __init__(
        self,
        address: Tuple[str, int],
        handler: Type[BaseHTTPRequestHandler],
    ) -> None:
        super().__init__(address, handler)
        #: Guards the open connections, which the accept loop adds and
        #: handler threads remove.
        self._lock = threading.Lock()
        self._open: Set[socket.socket] = set()

    def process_request(self, request, client_address) -> None:
        # Registered on the accept loop, before the handler thread
        # starts, so server_close() (which runs after the loop stopped)
        # sees every connection.
        with self._lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listener and end every keep-alive connection.

        Reads are shut down, so an idle handler sees end-of-stream at
        once instead of at ``IDLE_TIMEOUT_S``, while one mid-request
        still writes its response; then the handler threads are joined.
        """
        with self._lock:
            open_connections = list(self._open)
        for connection in open_connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:  # already closed by its handler
                pass
        super().server_close()


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
        #: Guards the lifecycle state (_thread, _serving) against
        #: concurrent start()/shutdown() callers.
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        #: Whether start() or serve_forever() entered the accept loop,
        #: which is what stopping it waits for.
        self._serving = False
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
            self._serving = True
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
        with self._lock:
            self._serving = True
        try:
            self._http.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        with self._lock:
            serving, self._serving = self._serving, False
            thread, self._thread = self._thread, None
        if serving:
            # Waits for the accept loop to exit; on a daemon that never
            # entered it, this would wait forever.
            self._http.shutdown()
        self._http.server_close()
        self.batcher.close()
        if thread is not None:
            thread.join(timeout=10.0)

    def __enter__(self) -> "ServingDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
