"""Per-layer spans for the benchmark, recorded from outside the program.

Every span here wraps a call *into* one layer of the system from the
benchmark's side; nothing inside ``src/`` is modified:

* model stages (``ForwardStage.fn``) -- the float forward that both the
  Algorithm-1 search (through ``StagedExecutor``) and the float backend
  run;
* ``RoundingScheme.apply`` -- every quantization hook of the float path,
  keyed by the stage it runs in, so hooks inside dynamic routing are
  told apart from activation hooks;
* integer plan ops -- ``IntBackend.predict(trace=)`` appends one record
  per executed op, so the time between consecutive records is that op's
  cost;
* serving -- ``MicroBatcher.submit`` and the tenants' bound
  ``ServingModel.predict`` bracket queue wait and batch service.

Both backends are split into the same three roles, decided per model
layer so that a role covers the same work on either side:

* ``routing`` -- every op of a layer with dynamic routing (prediction
  vectors, routing iterations, their squash/softmax and hooks, and the
  layer's activation quantization);
* ``act`` -- activation quantization of the other layers (the int
  backend's input quantization included);
* ``compute`` -- everything else of the other layers.

Spans are kept in memory as durations per (phase, span) and summarised
when the run ends.  They are installed only for ``--trace 1`` runs, so
the end-to-end numbers are measured with tracing off.
"""

import threading
import time
from collections import defaultdict
from dataclasses import replace

ROLES = ("compute", "act", "routing")

#: Integer op name -> its part of a routed layer: prediction vectors,
#: the weighted sums and agreement products of the routing iterations,
#: softmax, squash, the ``routing:*`` requantization hooks, and the
#: rest (the layer's activation quantization).
ROUTING_PARTS = {
    "conv": "votes",
    "linear": "votes",
    "mul": "products",
    "sum": "products",
    "add": "products",
    "softmax": "softmax",
    "squash": "squash",
}
PARTS = ("votes", "products", "softmax", "squash", "hooks", "other")


def routed_layers(model):
    """Names of the layers that run dynamic routing."""
    return frozenset(
        stage.layer for stage in model._stage_list if "qdr" in stage.fields
    )


def role(layer, is_act, routed):
    if layer in routed:
        return "routing"
    return "act" if is_act else "compute"


def routing_part(op):
    if op.startswith("routing:"):
        return "hooks"
    return ROUTING_PARTS.get(op, "other")


class Tracer:
    """Accumulates span durations (seconds) and counts per phase.

    ``phase`` names the benchmark phase the spans belong to; spans
    recorded while it is ``None`` are dropped.
    """

    def __init__(self):
        self.phase = None
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._stage = threading.local()
        self._undo = []

    def add(self, span, seconds):
        phase = self.phase
        if phase is None:
            return
        with self._lock:
            self.seconds[(phase, span)] += seconds
            self.counts[(phase, span)] += 1

    def take(self, phase, span):
        """Pop the accumulated (seconds, count) of one span."""
        with self._lock:
            return (
                self.seconds.pop((phase, span), 0.0),
                self.counts.pop((phase, span), 0),
            )

    # ------------------------------------------------------------------
    # Installation (undone by close())
    # ------------------------------------------------------------------
    def time_stages(self, model):
        """Wrap every stage of a staged model with a timer.

        Folding through ``model._stage_list`` *is* the model's forward,
        and ``model.stages()`` (what ``StagedExecutor`` consumes) copies
        the same list, so one wrap covers search and float serving.
        The running stage's role is kept per thread for the rounding
        spans.
        """
        original = model._stage_list
        routed = routed_layers(model)
        local = self._stage

        def timed(stage):
            fn = stage.fn
            group = role(stage.layer, stage.tag == "act", routed)

            def run(x, q):
                outer = getattr(local, "role", None)
                local.role = group
                start = time.perf_counter()
                try:
                    return fn(x, q)
                finally:
                    self.add(group, time.perf_counter() - start)
                    local.role = outer

            return replace(stage, fn=run)

        model._stage_list = [timed(stage) for stage in original]
        self._undo.append(lambda: setattr(model, "_stage_list", original))

    def time_rounding(self):
        """Time every ``RoundingScheme.apply`` call, keyed by stage role."""
        from repro.quant.rounding import RoundingScheme

        original = RoundingScheme.apply
        local = self._stage

        def apply(scheme, values, fmt):
            start = time.perf_counter()
            out = original(scheme, values, fmt)
            group = getattr(local, "role", None) or "outside"
            self.add(f"{group}.rounding", time.perf_counter() - start)
            return out

        RoundingScheme.apply = apply
        self._undo.append(lambda: setattr(RoundingScheme, "apply", original))

    def close(self):
        while self._undo:
            self._undo.pop()()


class OpClock(list):
    """``trace=`` sink for ``IntBackend.predict`` that timestamps ops.

    The walker appends a record when an op's result is sealed, so the
    gap since the previous record (or since :meth:`start`) is the op's
    cost, kernels and walker overhead included.  Each gap lands on the
    op's role and, inside routed layers, on its routing part too.
    """

    def __init__(self, tracer, routed):
        super().__init__()
        self._tracer = tracer
        self._routed = routed
        self._last = time.perf_counter()

    def start(self):
        self.clear()
        self._last = time.perf_counter()
        return self

    def append(self, record):
        now = time.perf_counter()
        seconds, self._last = now - self._last, now
        op = record["op"]
        group = role(
            record["layer"], op in ("act", "quantize-input"), self._routed
        )
        self._tracer.add(group, seconds)
        if group == "routing":
            self._tracer.add(f"routing.{routing_part(op)}", seconds)
        super().append(record)


class ServeClock:
    """Queue-wait and service spans of the serving daemon's batcher.

    Wraps ``batcher.submit`` to stamp each ticket and each warm tenant's
    ``ServingModel.predict`` to stamp each forward.  With one dispatcher
    thread, forwards run one at a time and every ticket of a coalesced
    group resolves right after the forward that served it, so the last
    forward's (start, end) is that ticket's service window.
    """

    def __init__(self, daemon, tenants):
        self.queue_s = []
        self.server_s = []
        self.service_s = []
        self._lock = threading.Lock()
        self._forward = (0.0, 0.0)
        batcher = daemon.batcher
        submit = batcher.submit

        def timed_submit(name, images):
            submitted = time.perf_counter()
            ticket = submit(name, images)
            ticket.future.add_done_callback(
                lambda _future: self._resolved(submitted)
            )
            return ticket

        batcher.submit = timed_submit
        for name in tenants:
            serving = daemon.registry.get(name)
            predict = serving.predict

            def timed_predict(images, _predict=predict):
                start = time.perf_counter()
                out = _predict(images)
                end = time.perf_counter()
                with self._lock:
                    self._forward = (start, end)
                    self.service_s.append(end - start)
                return out

            serving.predict = timed_predict

    def _resolved(self, submitted):
        done = time.perf_counter()
        with self._lock:
            start, _ = self._forward
            self.queue_s.append(max(0.0, start - submitted))
            self.server_s.append(done - submitted)
