"""Q-CapsNets performance benchmark: search, integer inference, serving.

A run repeats *rounds* until ``--seconds`` have passed.  Every round
takes one model preset through the whole deployment flow and times each
step:

1. set-up (a cold start, made ``SETUPS`` times): build the model and
   load its trained weights, calibrate activation scales, export a
   uniform qw6/qa6/qdr8 artifact, certify and lower it, bind both
   backends, boot the serving daemon with a float and an int tenant and
   warm each with a request;
2. search: Algorithm 1 (``Session.quantize``) from a cold session;
3. lowering: freeze + certify (qprove) + lower (qlower) the artifact;
4. predict: on the float backend, then on the int backend, at each
   batch size of ``PREDICT_SIZES``;
5. serving: an open loop at a fixed offered load.  Every ``TICK``
   seconds a burst of ``BURST`` concurrent ``REQUEST_IMAGES``-image
   HTTP requests is due for one tenant, float and int in turn -- the
   request size, batcher limits and (per tenant) half the client
   threads of the serving soak in ``benchmarks/bench_serving.py``.  The
   burst's requests queue together, so the daemon's micro-batcher
   coalesces them; one burst is served well within a tick, so no
   backlog builds up between bursts.

Interleaving the steps spreads every metric over the whole run, so a
slow spell of a shared host lands on all of them alike.  Repeated
compute steps report the fastest repeat (min-of-N, the steadiest
estimate of their cost on a host with noisy neighbours), set-up the
median of its cold starts, and serving the 50th and 90th percentile of
request latency per tenant.

The model, its training and the search split are fixed per workload
(the preset); ``--seed`` draws the images that are predicted and served.

Usage (from the repository root)::

    python3 perfbench/run.py --workload shallow --seed 1 --seconds 45 \
        --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` installs the spans of ``spans.py`` and
reports per-layer metrics instead.  Outputs are checked as they are
produced: every search must pick the same configuration within its
accuracy target, every artifact must certify PASS and lower to the same
plan, the labels of every deployment must be bit-identical, every
predict (whatever its batch size) and every served response must equal
the pool labels of the same backend, and the int backend must agree
with the float one above a floor.
"""

import argparse
import json
import os
import sys
import threading
import time
from collections import defaultdict
from statistics import median
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread: the serving phase runs many Python threads on few
# cores, and BLAS worker threads spinning beside them make every timing
# depend on the scheduler.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    model: str
    #: Minimum share of images on which int and float labels agree
    #: (capsule plans carry certified approximation error, so near-tie
    #: samples may flip; see the int backend docs).
    agreement_floor: float


# The two presets the integer-backend and routing work is judged on.
# ShallowCaps spends most of its float time in the routed L3 stage;
# DeepCaps spreads it over convolutional capsule cells, so it leans on
# the convolution kernels of both backends instead.
WORKLOADS = {
    "shallow": Workload("shallow-small", agreement_floor=0.8),
    "deep": Workload("deep-small", agreement_floor=0.6),
}

DATASET = "digits"
#: Seed of the preset: model initialisation, training and search split.
PRESET_SEED = 0
#: Short training run that gives the model a real accuracy landscape
#: for the search and separated logits for the backends.
TRAIN_SIZE = 512
TRAIN_EPOCHS = 2
TRAIN_BATCH = 32
#: Search split (one evaluation batch) and the per-seed image pool the
#: predict and serving phases draw from.
TEST_SIZE = 64
POOL_SIZE = 128
EVAL_BATCH = 64
SCHEME = "RTN"
BITS = {"qw": 6, "qa": 6, "qdr": 8}
#: Predict batch sizes: one image (edge latency) and a full batch.
PREDICT_SIZES = (1, 32)
TENANTS = ("float", "int")
#: Serving load: bursts of concurrent 4-image requests, one tenant per
#: burst -- half the client threads and the request size of
#: ``benchmarks/bench_serving.py`` -- with that soak's batcher limits.
#: A tick is longer than the slowest burst takes to serve (DeepCaps'
#: int burst, ~150 ms at its 90th percentile), so bursts do not queue
#: behind each other; the offered load is 16 requests (64 images) per
#: second.
BURST = 4
REQUEST_IMAGES = 4
SENDERS = 8
TICK = 0.25
MAX_BATCH = 64
MAX_WAIT_MS = 4.0
#: A failed request counts as missing every latency limit.
MISSED_S = 60.0
#: Cold starts per round (only the last one serves the round).
SETUPS = 3
#: Seconds each round spends on its repeated phases, and the rounds a
#: run makes at least.
ROUND = {"search": 1.5, "lower": 0.2, "predict": 2.0, "serve": 5.0}
MIN_ROUNDS = 3


class CheckFailed(Exception):
    """An output of the program was wrong."""


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, ok, message=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(message)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def repeat_for(seconds, fn):
    """Call ``fn`` until ``seconds`` elapse (at least once)."""
    deadline = time.perf_counter() + seconds
    fn()
    while time.perf_counter() < deadline:
        fn()


def snap(images):
    """Snap to the 2^-8 input grid so both backends quantize alike."""
    return (np.rint(images.astype(np.float64) * 256) / 256).astype(np.float32)


# ----------------------------------------------------------------------
# Set-up: cold start to a warm daemon
# ----------------------------------------------------------------------
def make_spec(workload):
    from repro.api import QuantSpec

    return QuantSpec(
        model=workload.model, dataset=DATASET, schemes=(SCHEME,),
        seed=PRESET_SEED, test_size=TEST_SIZE, train_size=TRAIN_SIZE,
        batch_size=EVAL_BATCH,
    )


def train_weights(workload):
    """Trained parameters of the preset (not timed: a deployment loads
    its weights, which each cold start does)."""
    from repro.api import Session

    session = Session(make_spec(workload))
    session.train(epochs=TRAIN_EPOCHS, batch_size=TRAIN_BATCH)
    return session.model.state_dict()


class Deployment:
    """Everything one cold start builds (module docstring, step 1)."""

    STEPS = ("build", "calibrate", "export", "bind", "daemon")

    def __init__(self, workload, weights, tracer):
        from repro.api import ModelArtifact, Session
        from repro.quant import QuantizationConfig, QuantizedCapsNet
        from repro.quant.calibrate import calibrate_scales
        from repro.quant.rounding import get_rounding_scheme
        from repro.serve import Client, ModelRegistry, ServingDaemon
        from spans import routed_layers

        self.steps = {}
        clock = time.perf_counter()

        def step(name):
            nonlocal clock
            now = time.perf_counter()
            self.steps[name] = now - clock
            clock = now

        self.spec = make_spec(workload)
        self.session = Session(self.spec)
        self.model = self.session.model
        self.model.load_state_dict(weights)
        self.routed = routed_layers(self.model)
        if tracer is not None:
            tracer.time_stages(self.model)
        images, labels = self.session.test_data
        self.test_data = (snap(images), labels)
        step("build")

        scales = calibrate_scales(self.model, self.test_data[0], EVAL_BATCH)
        step("calibrate")

        def export():
            config = QuantizationConfig.uniform(
                list(self.model.quant_layers), **BITS
            )
            quantized = QuantizedCapsNet(
                self.model, config,
                get_rounding_scheme(SCHEME, seed=PRESET_SEED),
                act_scales=scales, seed=PRESET_SEED,
            )
            artifact = ModelArtifact.from_quantized(
                quantized, spec=self.spec.to_dict()
            )
            artifact.certify(model=self.model)
            artifact.lower(model=self.model)
            return artifact

        self.export = export
        self.artifact = export()
        if not (self.artifact.certified and self.artifact.lowerable):
            raise CheckFailed(
                "uniform artifact is not int-deployable:\n"
                + self.artifact.summary()
            )
        step("export")

        self.backends = {
            name: self.session.serve(
                self.artifact, require_certified=True, backend=name
            )
            for name in TENANTS
        }
        step("bind")

        registry = ModelRegistry(max_warm=len(TENANTS), require_certified=True)
        for name in TENANTS:
            registry.register(
                name, artifact=self.artifact, model=self.model, backend=name
            )
        self.daemon = ServingDaemon(
            registry, port=0, workers=1,
            max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS,
        ).start()
        self.client = Client(self.daemon.url, timeout=MISSED_S)
        for name in TENANTS:
            self.client.predict(name, self.test_data[0][:REQUEST_IMAGES])
        step("daemon")
        self.seconds = sum(self.steps.values())

    def close(self):
        self.daemon.shutdown()


# ----------------------------------------------------------------------
# Measured phases
# ----------------------------------------------------------------------
class Run:
    """Samples of one benchmark run, gathered round by round.

    Every round is a full deployment flow -- cold starts, search,
    lowering, predicts, a serving window -- so each metric is sampled
    across the whole run rather than in one contiguous slice of it, and
    a slow spell of the host lands on all metrics alike.
    """

    def __init__(self, workload, seed, pool, tracer):
        self.workload = workload
        self.seed = seed
        self.pool = pool
        self.tracer = tracer
        self.tally = Tally()
        self.samples = defaultdict(list)
        self.counters = defaultdict(list)
        #: First output seen per key; later ones must be bit-identical.
        self.reference = {}
        self.rounds = 0

    def check_same(self, key, value, message):
        first = self.reference.setdefault(key, value)
        if isinstance(value, np.ndarray):
            same = np.array_equal(value, first)
        else:
            same = value == first
        self.tally.record(same, message)
        return first

    def traced(self, phase):
        if self.tracer is not None:
            self.tracer.phase = phase

    # ------------------------------------------------------------------
    def setup(self, weights):
        """``SETUPS`` cold starts; the last deployment serves the round."""
        dep = None
        for _ in range(SETUPS):
            if dep is not None:
                dep.close()
            dep = Deployment(self.workload, weights, self.tracer)
            self.tally.record(True)
            self.samples["setup_s"].append(dep.seconds)
            for name, seconds in dep.steps.items():
                self.samples[f"setup.{name}"].append(seconds)
        return dep

    def offline(self, dep):
        """Labels of the whole image pool per backend.

        The first deployment's answer is the reference that every later
        deployment, every predict batch and every served response must
        match.
        """
        return {
            name: self.check_same(
                ("offline", name), dep.backends[name].predict(self.pool),
                f"offline {name} predict differs between deployments",
            )
            for name in TENANTS
        }

    def search(self, dep, seconds):
        from repro.api import Session

        def once():
            self.traced("search")
            start = time.perf_counter()
            session = Session(
                dep.spec, model=dep.model, test_data=dep.test_data
            )
            result = session.quantize()
            self.samples["search_s"].append(time.perf_counter() - start)
            self.traced(None)
            best = result.best_model()
            pick = (best.config.to_dict(), best.accuracy)
            self.tally.record(
                best.accuracy >= result.accuracy_target,
                f"search picked {pick} below its target "
                f"{result.accuracy_target:.2f}%",
            )
            self.check_same(
                "search", pick,
                f"search picked {pick}, not the pick of the first search",
            )
            executor = session.executor_stats()
            self.counters["stage_runs"].append(executor["stage_executions"])
            self.counters["cache_hits"].append(executor["cache_hits"])
            self.counters["batches"].append(result.batches_evaluated)

        repeat_for(seconds, once)

    def lower(self, dep, seconds):
        def once():
            start = time.perf_counter()
            artifact = dep.export()
            self.samples["lower_s"].append(time.perf_counter() - start)
            self.tally.record(
                artifact.certified and artifact.lowerable,
                "re-exported artifact is not certified and lowerable",
            )
            self.check_same(
                "plan", artifact.lowering_plan,
                "lowering plan differs from the first one",
            )

        repeat_for(seconds, once)

    def predict(self, dep, offline, seconds):
        """Predicts at every size of ``PREDICT_SIZES`` on both backends.

        Each batch must equal the pool labels of the same backend (so
        the labels do not depend on batch size).  Per-layer spans are
        taken on the largest size only.
        """
        from spans import OpClock

        clock = (
            OpClock(self.tracer, dep.routed) if self.tracer is not None
            else None
        )
        int_backend = dep.backends["int"].backend
        count = len(self.pool)

        def once(size):
            key = f"b{size}"
            offset = (
                size * len(self.samples[f"float_predict_{key}"])
            ) % (count - size + 1)
            window = slice(offset, offset + size)
            batch = self.pool[window]
            for name in TENANTS:
                if size == PREDICT_SIZES[-1]:
                    self.traced(name)
                start = time.perf_counter()
                if name == "int" and clock is not None:
                    labels = int_backend.predict(
                        batch, batch_size=size, trace=clock.start()
                    )
                else:
                    labels = dep.backends[name].predict(batch)
                self.samples[f"{name}_predict_{key}"].append(
                    time.perf_counter() - start
                )
                self.traced(None)
                self.tally.record(
                    np.array_equal(labels, offline[name][window]),
                    f"{name} predict of {size} image(s) at {offset} "
                    "differs from the pool predict",
                )

        share = seconds / len(PREDICT_SIZES)
        for size in PREDICT_SIZES:
            repeat_for(share, lambda: once(size))

    def agreement(self):
        labels = {name: self.reference[("offline", name)] for name in TENANTS}
        agreement = float((labels["float"] == labels["int"]).mean())
        self.tally.record(
            agreement >= self.workload.agreement_floor,
            f"int/float label agreement {agreement:.3f} below "
            f"{self.workload.agreement_floor}",
        )

    def serve(self, dep, offline, seconds):
        """Open loop of request bursts at a fixed rate.

        Every ``TICK`` seconds a burst of ``BURST`` requests for one
        tenant is due, the tenants alternating; each request is sent by
        its own sender thread whether or not earlier ones finished.
        Latency runs from when a request was due, so a stalled daemon
        (or a sender that fell behind) shows up in every later request.
        """
        from spans import ServeClock

        pool = self.pool
        serve_clock = (
            ServeClock(dep.daemon, TENANTS) if self.tracer is not None
            else None
        )
        rng = np.random.default_rng([self.seed, self.rounds])
        schedule = []
        for tick in range(max(1, int(seconds / TICK))):
            tenant = TENANTS[tick % len(TENANTS)]
            for _ in range(BURST):
                offset = int(rng.integers(len(pool) - REQUEST_IMAGES + 1))
                schedule.append((tick * TICK, tenant, offset))
        before = dep.daemon.batcher.stats()
        lock = threading.Lock()

        def send(start, due_at, tenant, offset):
            sent = time.perf_counter()
            window = slice(offset, offset + REQUEST_IMAGES)
            try:
                labels = dep.client.predict(tenant, pool[window])
                ok = np.array_equal(labels, offline[tenant][window])
                message = f"{tenant} response differs from offline predict"
            except Exception as error:  # any failed request is a miss
                ok, message = False, f"{tenant} request failed: {error!r}"
            done = time.perf_counter()
            with lock:
                self.tally.record(ok, message)
                self.samples[f"serve_{tenant}_s"].append(
                    done - (start + due_at) if ok else MISSED_S
                )
                self.samples["serve.send_lag"].append(sent - (start + due_at))

        with ThreadPoolExecutor(max_workers=SENDERS) as senders:
            futures = []
            start = time.perf_counter()
            for due_at, tenant, offset in schedule:
                delay = start + due_at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                futures.append(
                    senders.submit(send, start, due_at, tenant, offset)
                )
            for future in futures:
                future.result()
        after = dep.daemon.batcher.stats()
        for key in ("requests", "batches", "coalesced_requests"):
            self.counters[f"serve.{key}"].append(after[key] - before[key])
        if serve_clock is not None:
            for name in ("queue", "server", "service"):
                self.samples[f"serve.{name}"].extend(
                    getattr(serve_clock, f"{name}_s")
                )

    def coalesced_share(self):
        c = self.counters
        return sum(c["serve.coalesced_requests"]) / max(
            1, sum(c["serve.requests"])
        )

    # ------------------------------------------------------------------
    def end_to_end(self):
        s = self.samples
        metrics = {
            "setup_s": (median(s["setup_s"]), "s"),
            "search_s": (min(s["search_s"]), "s"),
            "lower_ms": (1e3 * min(s["lower_s"]), "ms"),
        }
        for size in PREDICT_SIZES:
            for name in TENANTS:
                metrics[f"{name}_predict_b{size}_ms"] = (
                    1e3 * min(s[f"{name}_predict_b{size}"]), "ms"
                )
        for name in TENANTS:
            for q in (50, 90):
                metrics[f"serve_{name}_p{q}_ms"] = (
                    1e3 * percentile(s[f"serve_{name}_s"], q / 100), "ms"
                )
        return metrics

    def per_layer(self):
        from spans import PARTS, ROLES

        s, c, tracer = self.samples, self.counters, self.tracer
        layers = {}
        for name in Deployment.STEPS:
            layers[f"setup.{name}_ms"] = (
                1e3 * median(s[f"setup.{name}"]), "ms"
            )
        searches = len(s["search_s"])
        for phase, runs in (
            ("search", searches),
            ("float", len(s[f"float_predict_b{PREDICT_SIZES[-1]}"])),
        ):
            for group in ROLES:
                total, _ = tracer.take(phase, group)
                layers[f"{phase}.{group}_ms"] = (1e3 * total / runs, "ms")
            for group in ("act", "routing"):
                total, calls = tracer.take(phase, f"{group}.rounding")
                layers[f"{phase}.{group}.rounding_ms"] = (
                    1e3 * total / runs, "ms"
                )
                if phase == "search":
                    layers[f"search.{group}.rounding_calls"] = (
                        calls / runs, "count"
                    )
        for key in ("stage_runs", "cache_hits", "batches"):
            layers[f"search.{key}"] = (median(c[key]), "count")
        predicts = len(s[f"int_predict_b{PREDICT_SIZES[-1]}"])
        for group in ROLES:
            total, _ = tracer.take("int", group)
            layers[f"int.{group}_ms"] = (1e3 * total / predicts, "ms")
        for part in PARTS:
            total, _ = tracer.take("int", f"routing.{part}")
            layers[f"int.routing.{part}_ms"] = (1e3 * total / predicts, "ms")
        for name in ("queue", "service", "server", "send_lag"):
            layers[f"serve.{name}_ms"] = (
                1e3 * median(s[f"serve.{name}"]), "ms"
            )
        layers["serve.batch_requests"] = (
            sum(c["serve.requests"]) / max(1, sum(c["serve.batches"])),
            "count",
        )
        layers["serve.coalesced_pct"] = (100 * self.coalesced_share(), "%")
        return layers


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def measure(workload, seed, seconds, trace):
    from repro.api.session import build_dataset
    from spans import Tracer

    tracer = Tracer() if trace else None
    weights = train_weights(workload)
    _, split = build_dataset(DATASET, 1, POOL_SIZE, seed)
    run = Run(workload, seed, snap(split.images), tracer)
    dep = None
    try:
        if tracer is not None:
            tracer.time_rounding()
        deadline = time.perf_counter() + seconds
        while run.rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            if dep is not None:
                dep.close()
                dep = None
            dep = run.setup(weights)
            offline = run.offline(dep)
            run.search(dep, ROUND["search"])
            run.lower(dep, ROUND["lower"])
            run.predict(dep, offline, ROUND["predict"])
            run.serve(dep, offline, ROUND["serve"])
            run.rounds += 1
        run.agreement()
    finally:
        if dep is not None:
            dep.close()
        if tracer is not None:
            tracer.close()
    chosen = run.per_layer() if trace else run.end_to_end()
    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in chosen.items()
        },
    }
    notes = [
        f"{run.rounds} rounds; {100 * run.coalesced_share():.1f}% of served "
        "requests shared a forward"
    ]
    return result, run.tally.errors, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources under {SRC}; run from the root "
            "of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    result, errors, notes = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
