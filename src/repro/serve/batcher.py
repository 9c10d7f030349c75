"""Micro-batching dispatcher for the serving daemon.

HTTP handler threads enqueue predict requests; one dispatcher thread
drains them, coalescing queued requests for the *same* tenant into a
single model forward of up to ``max_batch`` samples, then splitting the
prediction vector back per request.  Requests queue **per tenant**, so
interleaved multi-tenant traffic still coalesces — the dispatcher
serves tenants in arrival order of their oldest waiting request (FIFO
across tenants) and batches within each tenant.

Waiting policy: only a *lonely* request blocks (up to ``max_wait_ms``)
for a first companion; once a batch holds two requests it drains
whatever else is already queued and runs.  Under load the queues fill
while the previous batch computes, so coalescing costs no added
latency; an isolated request pays at most one ``max_wait_ms``.

The dispatcher is the only thread that runs models — the NumPy
forwards are not thread-safe, and one executor thread serializes them.
It is also the only thread that removes a tenant's queue, so a queue a
handler thread appends to is never dropped with tickets in it.

Exactness: deterministic tenants (TRN/RTN/RTNE) coalesce freely —
every sample's forward is independent of its batchmates.  Stochastic
rounding tenants are marked ``coalescable=False`` by the registry:
their requests run one per forward, in arrival order, bit-identical to
an offline ``Session.predict``.

Lock discipline: whether a tenant coalesces is resolved from the
registry *outside* the batcher condition — at submit time, cached per
tenant — so the batcher lock and the registry lock are never held
together.  Cross-tenant FIFO uses one arrival-order heap with lazy
invalidation, so picking the next tenant is O(log tenants), not a scan.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from concurrent.futures import Future
from itertools import count
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.serve.registry import ModelRegistry


class PredictTicket:
    """A submitted request: its future plus batching telemetry."""

    __slots__ = ("name", "images", "future", "batched_with", "seq")

    def __init__(self, name: str, images: np.ndarray):
        self.name = name
        self.images = images
        self.future: "Future[np.ndarray]" = Future()
        #: Total samples in the coalesced forward that served this
        #: request (== len(images) when it ran alone); set on completion.
        self.batched_with = 0
        #: Arrival order across all tenants (set by the batcher).
        self.seq = -1


class MicroBatcher:
    """Coalesce queued predict requests and run them on one thread.

    Parameters
    ----------
    registry:
        The :class:`~repro.serve.registry.ModelRegistry` that resolves
        tenant names to warm serving models.
    max_batch:
        Sample cap per coalesced forward (a single larger request still
        runs whole — the serving model chunks it internally).
    max_wait_ms:
        How long a lonely request waits for a first companion.  0
        disables waiting: requests coalesce only when already queued.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be >= 0, got {max_wait_ms}"
            )
        self.registry = registry
        self.max_batch = max_batch
        self.max_wait = max_wait_ms / 1000.0
        self._cond = threading.Condition()
        #: Per-tenant FIFO queues of waiting tickets.
        self._queues: Dict[str, Deque[PredictTicket]] = {}
        #: Arrival-order heap of (head seq, tenant).  Entries invalidate
        #: lazily — each is checked against the live queue head when
        #: peeked, so stale entries cost O(log n) pops instead of an
        #: O(tenants) scan per batch.
        self._heads: List[Tuple[int, str]] = []
        #: Whether each tenant coalesces, resolved from the registry
        #: OUTSIDE self._cond (submit time) and only read under it.
        #: Keyed writes are idempotent (the flag is fixed per tenant).
        self._coalescable: Dict[str, bool] = {}
        self._seq = count()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        # Counters: written by the dispatcher thread, read by /healthz
        # handler threads — every access holds self._cond.
        self.requests = 0
        self.batches = 0
        #: Requests that shared a forward with at least one other.
        self.coalesced_requests = 0
        self.batched_samples = 0
        self.largest_batch = 0

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def start(self) -> "MicroBatcher":
        with self._cond:
            if self._closed:
                raise RuntimeError("batcher is closed")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop,
                    name="qcapsnets-batcher",
                    daemon=True,
                )
                self._thread.start()
        return self

    def _resolve_coalescable(self, name: str) -> None:
        """Cache whether ``name`` coalesces — the registry lookup runs
        here, outside ``_cond``, so the two locks are never held
        together."""
        if name in self._coalescable:
            return
        try:
            self._coalescable[name] = self.registry.entry(name).coalescable
        except Exception:
            # Unknown tenant: serve it uncoalesced and let the dispatcher
            # surface the real error per ticket.  Not cached — the
            # tenant may be registered later.
            pass

    def submit(self, name: str, images: np.ndarray) -> PredictTicket:
        """Enqueue one predict request.

        Returns its :class:`PredictTicket`; ``ticket.future.result()``
        resolves to the request's own label vector, and
        ``ticket.batched_with`` (set on completion) tells how many
        samples shared its forward.
        """
        self.start()
        self._resolve_coalescable(name)
        ticket = PredictTicket(name, images)
        with self._cond:
            if self._closed:
                raise RuntimeError("batcher is closed")
            ticket.seq = next(self._seq)
            queue = self._queues.get(name)
            if queue is None:
                queue = deque()
                self._queues[name] = queue
            if not queue:
                heapq.heappush(self._heads, (ticket.seq, name))
            queue.append(ticket)
            self.requests += 1
            self._cond.notify_all()
        return ticket

    def close(self, timeout: float = 10.0) -> None:
        """Stop the dispatcher after the queued tickets drain."""
        with self._cond:
            self._closed = True
            thread = self._thread
            self._cond.notify_all()
        if thread is not None:
            thread.join(timeout=max(0.1, timeout))

    # ------------------------------------------------------------------
    # Dispatcher side
    # ------------------------------------------------------------------
    def _pop_head(self) -> Optional[str]:  # qlint: guarded-by(_cond)
        """Tenant of the oldest queued request, or None; stale heap
        entries are dropped on the way."""
        while self._heads:
            seq, name = heapq.heappop(self._heads)
            queue = self._queues.get(name)
            if queue and queue[0].seq == seq:
                return name
        return None

    def _take_batch(self) -> Optional[List[PredictTicket]]:
        """Block for the next coalesced group (None = closed and dry)."""
        with self._cond:
            while True:
                name = self._pop_head()
                if name is not None:
                    break
                if self._closed:
                    return None
                self._cond.wait()
            queue = self._queues[name]
            group = [queue.popleft()]
            total = len(group[0].images)
            coalescable = self._coalescable.get(name, False)
            deadline = time.monotonic() + self.max_wait
            while coalescable and total < self.max_batch:
                if queue:
                    if total + len(queue[0].images) > self.max_batch:
                        break
                    ticket = queue.popleft()
                    group.append(ticket)
                    total += len(ticket.images)
                    continue
                # This tenant's queue is dry: only a lonely head waits.
                if len(group) > 1 or self._closed:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            if queue:
                heapq.heappush(self._heads, (queue[0].seq, name))
            else:
                # Only this thread removes queues, so the one in the
                # map is still ``queue``: no handler's ticket is lost.
                del self._queues[name]
            return group

    def _loop(self) -> None:
        while True:
            group = self._take_batch()
            if group is None:
                break
            self._process(group)

    def _process(self, group: List[PredictTicket]) -> None:
        name = group[0].name
        total = sum(len(ticket.images) for ticket in group)
        try:
            images = (
                group[0].images
                if len(group) == 1
                else np.concatenate([ticket.images for ticket in group])
            )
            serving = self.registry.get(name, requests=len(group))
            predictions = serving.predict(images)
        except Exception as error:  # surfaced per-request as a 5xx
            for ticket in group:
                ticket.future.set_exception(error)
            return
        with self._cond:
            self.batches += 1
            self.batched_samples += total
            self.largest_batch = max(self.largest_batch, total)
            if len(group) > 1:
                self.coalesced_requests += len(group)
        offset = 0
        for ticket in group:
            size = len(ticket.images)
            ticket.batched_with = total
            ticket.future.set_result(predictions[offset:offset + size])
            offset += size

    def stats(self) -> Dict[str, object]:
        with self._cond:
            return {
                "requests": self.requests,
                "batches": self.batches,
                "coalesced_requests": self.coalesced_requests,
                "batched_samples": self.batched_samples,
                "largest_batch": self.largest_batch,
                "max_batch": self.max_batch,
                "max_wait_ms": self.max_wait * 1000.0,
            }
