"""Persistent forked executor pool for the serving tier.

:class:`~repro.engine.parallel.ForkPool` forks workers *per call* —
right for the search loops (every ``map`` inherits the parent's latest
caches) but wrong for serving, where the unit of work is a single
coalesced micro-batch: per-call fork + interpreter teardown costs more
than a small quantized forward.  :class:`ExecutorPool` keeps **N
long-lived executor processes** instead:

* each worker is forked once (inheriting models, artifacts and caches
  copy-on-write) and then serves requests in a loop, so per-request
  state — lazily bound models and dequantized weight caches — stays
  **warm across requests**;
* the parent talks to each worker over a private duplex pipe, with
  request/result payloads travelling through two pre-allocated
  :mod:`multiprocessing.shared_memory` buffers per worker (one copy in,
  one copy out — nothing is pickled for payloads that fit; oversized
  payloads degrade to inline pipe transfer);
* a worker that raises reports the exception + child traceback back to
  the caller (:class:`WorkerError` — the worker stays up); a worker
  that *dies* surfaces as :class:`WorkerCrash`, and :meth:`ExecutorPool.
  respawn` forks a replacement that inherits the same buffers.

Fork safety: the pool must be created **before** the process starts
service threads (forking a multi-threaded parent can capture another
thread's held locks mid-flight).  Respawn after threads exist is still
safe *if* the caller brackets it: ``fork_guard`` is entered around
every fork (the serving layer passes a factory that acquires the model
registry's lock, so the child's inherited copy is never mid-mutation),
and ``child_init`` runs in the child first thing after the fork (the
serving layer uses it to re-arm inherited locks).

The pool is deliberately *policy-free*: ``predict_fn(tenant, images)``
is an arbitrary inherited callable, and routing/batching/pinning live
in :mod:`repro.serve.batcher`.  When ``fork`` is unavailable the
constructor raises — callers degrade by simply not building a pool
(`workers=1` keeps the existing in-process path).
"""

from __future__ import annotations

import os
import threading
import traceback
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.parallel import fork_available

try:  # pragma: no cover - exercised only on exotic platforms
    from multiprocessing import shared_memory

    _HAVE_SHM = True
except ImportError:  # pragma: no cover
    shared_memory = None  # type: ignore[assignment]
    _HAVE_SHM = False

#: Per-direction shared-memory buffer size per worker.  Sized for the
#: serving workloads (a coalesced float32 micro-batch of laptop-scale
#: images is well under a megabyte); larger payloads fall back to
#: inline pipe transfer rather than failing.
DEFAULT_BUFFER_BYTES = 8 * 1024 * 1024

#: Seconds between liveness checks while awaiting a worker reply.  The
#: wait itself blocks in ``Connection.poll`` — this is not a busy-wait,
#: only how often a *silent* death is noticed.
_LIVENESS_INTERVAL_S = 0.5


class WorkerError(RuntimeError):
    """A pool worker's ``predict_fn`` raised (the worker survives)."""

    def __init__(self, message: str, child_traceback: str = ""):
        super().__init__(message)
        #: Traceback text captured in the worker process.
        self.child_traceback = child_traceback


class WorkerCrash(RuntimeError):
    """A pool worker died mid-call (killed, segfault, lost pipe)."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        #: Index of the dead worker slot (stable across respawns).
        self.index = index


class _Buffer:
    """One reusable shared-memory payload lane (or its inline stub)."""

    __slots__ = ("segment", "capacity")

    def __init__(self, nbytes: int, use_shm: bool):
        self.segment = None
        self.capacity = 0
        if use_shm and _HAVE_SHM:
            try:
                # Stays tracker-registered: this process both creates
                # and unlinks the buffer (destroy()), and the tracker
                # reclaims it if the process dies without cleanup.
                self.segment = shared_memory.SharedMemory(
                    create=True, size=nbytes
                )
            except OSError:  # pragma: no cover - /dev/shm exhausted
                self.segment = None
            else:
                self.capacity = nbytes

    def write(self, data: memoryview) -> bool:
        """Copy ``data`` in; False when it does not fit (use inline)."""
        if self.segment is None or data.nbytes > self.capacity:
            return False
        self.segment.buf[: data.nbytes] = data
        return True

    def read(self, nbytes: int) -> bytes:
        return bytes(self.segment.buf[:nbytes])

    def destroy(self) -> None:
        if self.segment is not None:
            try:
                self.segment.close()
                self.segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
            self.segment = None


class _Worker:
    """Parent-side record of one worker slot."""

    __slots__ = (
        "index", "process", "conn", "child_conn", "request_buf",
        "response_buf", "lock", "calls", "restarts", "alive",
    )

    def __init__(self, index: int, request_buf: _Buffer, response_buf: _Buffer):
        self.index = index
        self.process = None
        self.conn = None
        self.child_conn = None
        self.request_buf = request_buf
        self.response_buf = response_buf
        #: Serializes use of the pipe: one in-flight call per worker.
        self.lock = threading.Lock()
        self.calls = 0
        self.restarts = 0
        self.alive = False


def _ndarray_from(blob: bytes, shape: Tuple[int, ...], dtype: str) -> np.ndarray:
    return np.frombuffer(blob, dtype=np.dtype(dtype)).reshape(shape).copy()


class ExecutorPool:
    """N long-lived forked executor processes behind pipes + shm lanes.

    Parameters
    ----------
    predict_fn:
        ``(tenant, images) -> labels`` callable **inherited by fork**
        and executed in the worker; typically closes over a model
        registry, so lazily bound models stay warm in each worker.
    workers:
        Worker process count (>= 1).
    child_init:
        Optional zero-arg callable run in each child right after the
        fork (re-arm inherited locks, tag the process as a worker).
    child_stats:
        Optional zero-arg callable run in the child on :meth:`stats`,
        returning a JSON-safe dict merged into that worker's row.
    fork_guard:
        Optional zero-arg factory returning a context manager entered
        around *every* fork (initial spawn and respawn) — the hook for
        callers that must quiesce shared state before forking.
    buffer_bytes / use_shm:
        Payload lane sizing; ``use_shm=False`` forces inline pipe
        transfer (the pool still works, just with pickle-copy costs).
    """

    def __init__(
        self,
        predict_fn: Callable[[str, np.ndarray], np.ndarray],
        workers: int,
        child_init: Optional[Callable[[], None]] = None,
        child_stats: Optional[Callable[[], Dict[str, object]]] = None,
        fork_guard: Optional[Callable[[], object]] = None,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        use_shm: bool = True,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not fork_available():
            raise RuntimeError(
                "ExecutorPool requires the fork start method; degrade to "
                "the in-process path instead of building a pool"
            )
        import multiprocessing

        self._context = multiprocessing.get_context("fork")
        self.predict_fn = predict_fn
        self.child_init = child_init
        self.child_stats = child_stats
        self.fork_guard = fork_guard
        self.buffer_bytes = buffer_bytes
        self.use_shm = use_shm
        self._closed = False
        #: Payloads that travelled through shared memory / inline.
        self.shm_transfers = 0
        self.inline_transfers = 0
        self._counter_lock = threading.Lock()
        self.workers: List[_Worker] = [
            _Worker(
                index,
                _Buffer(buffer_bytes, use_shm),
                _Buffer(buffer_bytes, use_shm),
            )
            for index in range(workers)
        ]
        for worker in self.workers:
            self._spawn(worker)

    def __len__(self) -> int:
        return len(self.workers)

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def _spawn(self, worker: _Worker) -> None:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        worker.conn = parent_conn
        worker.child_conn = child_conn
        guard = self.fork_guard() if self.fork_guard is not None else None
        try:
            if guard is not None:
                guard.__enter__()
            try:
                worker.process = self._context.Process(
                    target=self._child_main,
                    args=(worker.index,),
                    name=f"qcaps-executor-{worker.index}",
                    daemon=True,
                )
                worker.process.start()
            finally:
                if guard is not None:
                    guard.__exit__(None, None, None)
        except BaseException:
            parent_conn.close()
            child_conn.close()
            raise
        # The parent must drop the child's pipe end: as long as any
        # process other than the worker holds it open, the worker's
        # death cannot surface as EOF on our end.
        child_conn.close()
        worker.child_conn = None
        worker.alive = True

    def _child_main(self, index: int) -> None:
        me = self.workers[index]
        conn = me.child_conn
        # Close every inherited pipe end that is not ours — both so a
        # sibling's crash surfaces as EOF in the parent promptly (we no
        # longer hold its write end open) and so our own reads cannot
        # race a sibling's stream.
        for worker in self.workers:
            if worker is not me:
                for other in (worker.conn, worker.child_conn):
                    if other is not None:
                        try:
                            other.close()
                        except OSError:  # pragma: no cover
                            pass
        if me.conn is not None:
            try:
                me.conn.close()
            except OSError:  # pragma: no cover
                pass
        if self.child_init is not None:
            self.child_init()
        calls = 0
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # parent went away
            op = message[0]
            if op == "stop":
                try:
                    conn.send(("bye", calls))
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass
                return
            if op == "ping":
                conn.send(("pong", os.getpid()))
                continue
            if op == "stats":
                row: Dict[str, object] = {"pid": os.getpid(), "calls": calls}
                if self.child_stats is not None:
                    try:
                        row.update(self.child_stats())
                    except Exception:  # stats must never kill a worker
                        pass
                conn.send(("stats", row))
                continue
            if op == "predict":
                conn.send(self._child_predict(me, message))
                calls += 1
                continue
            conn.send(("err", f"unknown pool op {op!r}", ""))

    def _child_predict(self, me: _Worker, message: Tuple) -> Tuple:
        _, tenant, shape, dtype, transport, payload = message
        try:
            if transport == "shm":
                blob = me.request_buf.read(payload)
            else:
                blob = payload
            images = _ndarray_from(blob, shape, dtype)
            result = np.ascontiguousarray(self.predict_fn(tenant, images))
            view = memoryview(result).cast("B")
            if me.response_buf.write(view):
                return (
                    "ok", result.shape, str(result.dtype), "shm", view.nbytes
                )
            return (
                "ok", result.shape, str(result.dtype), "inline",
                view.tobytes(),
            )
        except Exception as error:
            return ("err", repr(error), traceback.format_exc())

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def call(self, index: int, tenant: str, images: np.ndarray) -> np.ndarray:
        """Run ``predict_fn(tenant, images)`` in worker ``index``.

        Raises :class:`WorkerError` when the worker's callable raised
        (worker still usable) and :class:`WorkerCrash` when the worker
        died — the caller decides whether to :meth:`respawn`.
        """
        worker = self.workers[index]
        images = np.ascontiguousarray(images)
        view = memoryview(images).cast("B")
        with worker.lock:
            if not worker.alive:
                raise WorkerCrash(index, f"worker {index} is not running")
            if worker.request_buf.write(view):
                request: Tuple = (
                    "predict", tenant, images.shape, str(images.dtype),
                    "shm", view.nbytes,
                )
                shm_used = True
            else:
                request = (
                    "predict", tenant, images.shape, str(images.dtype),
                    "inline", view.tobytes(),
                )
                shm_used = False
            reply = self._roundtrip(worker, request)
            if reply[0] == "err":
                raise WorkerError(reply[1], child_traceback=reply[2])
            _, shape, dtype, transport, payload = reply
            if transport == "shm":
                blob = worker.response_buf.read(payload)
            else:
                blob = payload
            worker.calls += 1
        with self._counter_lock:
            if shm_used and transport == "shm":
                self.shm_transfers += 1
            else:
                self.inline_transfers += 1
        return _ndarray_from(blob, shape, dtype)

    def _roundtrip(self, worker: _Worker, request: Tuple) -> Tuple:  # qlint: guarded-by(lock)
        """Send + blocking receive with death detection (caller holds
        the worker lock)."""
        try:
            worker.conn.send(request)
            while not worker.conn.poll(_LIVENESS_INTERVAL_S):
                if not worker.process.is_alive():
                    # One final poll: the worker may have replied and
                    # exited between our poll and the liveness check.
                    if worker.conn.poll(0):
                        break
                    raise EOFError("worker exited without replying")
            return worker.conn.recv()
        except (EOFError, OSError, BrokenPipeError) as error:
            worker.alive = False
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
            raise WorkerCrash(
                worker.index,
                f"pool worker {worker.index} died mid-call: {error!r}",
            ) from error

    def ping(self, index: int) -> int:
        """Liveness round-trip; returns the worker's pid."""
        worker = self.workers[index]
        with worker.lock:
            if not worker.alive:
                raise WorkerCrash(index, f"worker {index} is not running")
            reply = self._roundtrip(worker, ("ping",))
        return int(reply[1])

    def respawn(self, index: int) -> None:
        """Fork a replacement for a dead worker slot (same buffers)."""
        worker = self.workers[index]
        with worker.lock:
            if worker.alive:
                return
            if worker.process is not None:
                worker.process.join(timeout=5)
            self._spawn(worker)
            worker.restarts += 1

    def stats(self) -> Dict[str, object]:
        """Pool counters + a stats row per live worker."""
        rows = []
        for worker in self.workers:
            with worker.lock:
                row: Dict[str, object] = {
                    "index": worker.index,
                    "alive": worker.alive,
                    "calls": worker.calls,
                    "restarts": worker.restarts,
                }
                if worker.alive:
                    try:
                        reply = self._roundtrip(worker, ("stats",))
                        row.update(reply[1])
                    except WorkerCrash:
                        row["alive"] = False
                rows.append(row)
        with self._counter_lock:
            return {
                "workers": len(self.workers),
                "shm_transfers": self.shm_transfers,
                "inline_transfers": self.inline_transfers,
                "buffer_bytes": self.buffer_bytes,
                "rows": rows,
            }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker and release the shared buffers."""
        with self._counter_lock:
            if self._closed:
                return
            self._closed = True
        for worker in self.workers:
            with worker.lock:
                if worker.alive:
                    try:
                        worker.conn.send(("stop",))
                        worker.conn.poll(2)
                    except (BrokenPipeError, OSError):
                        pass
                    worker.alive = False
                if worker.conn is not None:
                    try:
                        worker.conn.close()
                    except OSError:  # pragma: no cover
                        pass
                if worker.process is not None:
                    worker.process.join(timeout=5)
                    if worker.process.is_alive():  # pragma: no cover
                        worker.process.terminate()
                        worker.process.join()
                worker.request_buf.destroy()
                worker.response_buf.destroy()

    def __enter__(self) -> "ExecutorPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["DEFAULT_BUFFER_BYTES", "ExecutorPool", "WorkerCrash", "WorkerError"]
