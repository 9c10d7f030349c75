"""Stdlib HTTP client for the serving daemon.

Mirrors the daemon's three endpoints with typed helpers::

    with Client("http://127.0.0.1:8080") as client:
        client.health()                   # liveness + counters
        client.models()                   # registered tenants
        labels = client.predict("mnist-rtn", images)   # np.int64 labels

``predict`` sends the batch as base64 of its raw little-endian float32
bytes plus its shape, which the daemon decodes straight into an array
(it also accepts nested JSON lists, the curl-able form).  Requests run
over HTTP/1.1 keep-alive connections kept on a stack of idle ones: a
call takes one (or opens one) and puts it back once the response is
read, so every thread sharing a client holds its own connection.
:meth:`Client.close` (or leaving a ``with`` block) closes them.

Server-reported failures (validation 4xx, model 5xx) raise
:class:`ServeError` carrying the HTTP status and the server's message,
so callers can distinguish a bad payload from a down daemon
(:class:`ServeError` with ``status=None``).
"""

from __future__ import annotations

import base64
import http.client
import json
import threading
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import urlsplit

import numpy as np

#: How a reused keep-alive connection that the daemon has closed in the
#: meantime (idle timeout, restart) fails, before any status line.
_STALE = (BrokenPipeError, ConnectionResetError)


class ServeError(RuntimeError):
    """A serving request failed (HTTP error or unreachable daemon)."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        #: HTTP status code, or None when the daemon was unreachable.
        self.status = status


class Client:
    """Minimal JSON client for one serving daemon; thread-safe."""

    def __init__(self, base_url: str, timeout: float = 300.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.netloc:
            raise ValueError(
                f"the serving daemon speaks plain HTTP; expected an "
                f"http://host:port URL, got {base_url!r}"
            )
        self._netloc = parts.netloc
        self._prefix = parts.path
        #: Guards the stack of idle keep-alive connections.
        self._lock = threading.Lock()
        self._idle: List[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close the idle connections (a later call opens a new one)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _checkout(self) -> Tuple[http.client.HTTPConnection, bool]:
        """An idle connection (reused=True) or a new one."""
        with self._lock:
            if self._idle:
                return self._idle.pop(), True
        connection = http.client.HTTPConnection(
            self._netloc, timeout=self.timeout
        )
        return connection, False

    def _checkin(self, connection: http.client.HTTPConnection) -> None:
        with self._lock:
            self._idle.append(connection)

    @staticmethod
    def _exchange(
        connection: http.client.HTTPConnection,
        reused: bool,
        method: str,
        target: str,
        body: Optional[bytes],
        headers: Dict[str, str],
    ) -> Tuple[int, bytes]:
        """One request on ``connection``; returns the status and the
        whole response body."""
        try:
            connection.request(method, target, body=body, headers=headers)
            response = connection.getresponse()
        except _STALE:
            if not reused:
                raise
            # The daemon closed this idle connection.  A prediction is
            # a pure function of its request, so send it once more on a
            # fresh connection (a closed HTTPConnection reopens itself).
            connection.close()
            connection.request(method, target, body=body, headers=headers)
            response = connection.getresponse()
        return response.status, response.read()

    def _request(
        self, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        method = "GET" if body is None else "POST"
        connection, reused = self._checkout()
        try:
            status, data = self._exchange(
                connection, reused, method, self._prefix + path, body, headers
            )
        except (OSError, http.client.HTTPException) as error:
            connection.close()
            raise ServeError(
                f"cannot reach serving daemon at {self.base_url}: {error}"
            ) from error
        except BaseException:
            connection.close()
            raise
        self._checkin(connection)
        if status >= 400:
            try:
                message = json.loads(data).get("error", f"HTTP {status}")
            except (ValueError, AttributeError):
                message = f"HTTP {status}"
            raise ServeError(message, status=status)
        response: Dict[str, Any] = json.loads(data)
        return response

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """``GET /healthz``."""
        return self._request("/healthz")

    def models(self) -> List[Dict[str, object]]:
        """``GET /v1/models`` — one row per registered tenant."""
        rows: List[Dict[str, object]] = self._request("/v1/models")["models"]
        return rows

    def predict(
        self, model: str, images: np.ndarray, full_response: bool = False
    ) -> Union[np.ndarray, Dict[str, Any]]:
        """``POST /v1/predict`` — predicted labels for ``images``.

        ``images`` is a ``(batch, channels, height, width)`` float32
        array (a single un-batched sample is accepted too).  Returns
        the label vector as ``np.int64``, or the full response dict
        (including ``batched_with`` telemetry) when ``full_response``.
        """
        batch = np.ascontiguousarray(images, dtype="<f4")
        response = self._request("/v1/predict", payload={
            "model": model,
            "images_b64": base64.b64encode(batch.tobytes()).decode("ascii"),
            "shape": list(batch.shape),
            "dtype": "float32",
        })
        if full_response:
            return response
        return np.asarray(response["predictions"], dtype=np.int64)
