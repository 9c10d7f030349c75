"""Serving soak — many concurrent clients vs the serving daemon.

Fires one fixed workload at the daemon — many client threads, small
per-request image chunks, four tenants covering every rounding scheme
*including stochastic rounding* — and reports latency percentiles,
throughput and tenant fairness.

Hard assertions:

* every response is bit-identical to the offline ``Session.predict``
  for its image slice — for SR the offline reference is computed on
  exactly the request's slice, since an SR forward's draw stream is a
  function of the request images;
* micro-batching coalesces requests under the concurrent load;
* the registry's ``--max-warm`` (deliberately smaller than the tenant
  count) forces eviction churn, and every tenant still completes all
  of its requests correctly — eviction pressure may cost latency,
  never answers.

Run directly for CI smoke coverage::

    PYTHONPATH=src python benchmarks/bench_serving.py --quick \
        --requests 48 --threads 8 --json serving_quick.json
"""

import argparse
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # conftest/harness as a script

import numpy as np

from conftest import emit

from repro.api import ModelArtifact, QuantSpec, ServingModel
from repro.quant import (
    QuantizationConfig,
    QuantizedCapsNet,
    calibrate_scales,
    get_rounding_scheme,
)
from repro.serve import Client, ModelRegistry, ServingDaemon

#: (tenant, scheme, qw, qa) — all four schemes, SR non-coalescable.
TENANTS = (
    ("rtn", "RTN", 4, 5),
    ("trn", "TRN", 5, 6),
    ("rtne", "RTNE", 4, 5),
    ("sr", "SR", 4, 5),
)


def make_artifacts(model, images, spec):
    """Four tenants over one trained model, one per rounding scheme."""
    scales = calibrate_scales(model, images[:64])
    artifacts = {}
    for name, scheme, qw, qa in TENANTS:
        config = QuantizationConfig.uniform(
            list(model.quant_layers), qw=qw, qa=qa
        )
        quantized = QuantizedCapsNet(
            model, config, get_rounding_scheme(scheme, seed=0),
            act_scales=scales, seed=0,
        )
        artifacts[name] = ModelArtifact.from_quantized(
            quantized, report={"label": name, "accuracy": 0.0},
            spec=spec.to_dict(),
        )
    return artifacts


def offline_references(model, artifacts, images, batch_size, jobs):
    """Per-job offline predictions.

    Deterministic tenants: one full-pool prediction, sliced per job
    (per-sample independence).  SR: the draw stream restarts per
    predict call, so each job's reference is computed on exactly that
    job's slice.
    """
    serving = {
        name: ServingModel(artifact.bind(model), batch_size=batch_size)
        for name, artifact in artifacts.items()
    }
    full = {
        name: model_.predict(images)
        for name, model_ in serving.items()
        if name != "sr"
    }
    expected = {}
    for tenant, lo, hi in jobs:
        key = (tenant, lo, hi)
        if key in expected:
            continue
        if tenant == "sr":
            expected[key] = serving["sr"].predict(images[lo:hi])
        else:
            expected[key] = full[tenant][lo:hi]
    return expected


def make_jobs(num_requests, chunk, tenants, total_images):
    """Round-robin (tenant, lo, hi) slices over the image pool."""
    jobs = []
    for index in range(num_requests):
        lo = (index * chunk) % (total_images - chunk + 1)
        jobs.append((tenants[index % len(tenants)], lo, lo + chunk))
    return jobs


def _percentile_ms(latencies, q):
    return round(float(np.percentile(np.asarray(latencies), q)) * 1000.0, 3)


def run_soak(
    model, images, spec, num_requests, chunk, threads,
    max_batch, max_wait_ms, batch_size, max_warm,
):
    """The concurrent client soak against one daemon."""
    artifacts = make_artifacts(model, images, spec)
    jobs = make_jobs(num_requests, chunk, sorted(artifacts), len(images))
    expected = offline_references(model, artifacts, images, batch_size, jobs)
    registry = ModelRegistry(max_warm=max_warm, batch_size=batch_size)
    for name, artifact in artifacts.items():
        registry.register(name, artifact=artifact, model=model)
    daemon = ServingDaemon(
        registry, port=0, max_batch=max_batch, max_wait_ms=max_wait_ms
    )
    with daemon, Client(daemon.url, timeout=600.0) as client:
        for name in artifacts:  # warm every tenant before timing
            client.predict(name, images[:1])
        results = [None] * len(jobs)
        latencies = [None] * len(jobs)
        errors = []
        barrier = threading.Barrier(threads + 1)

        def worker(worker_index):
            barrier.wait()
            for job_index in range(worker_index, len(jobs), threads):
                tenant, lo, hi = jobs[job_index]
                try:
                    t0 = time.perf_counter()
                    results[job_index] = client.predict(tenant, images[lo:hi])
                    latencies[job_index] = time.perf_counter() - t0
                except Exception as error:  # pragma: no cover
                    errors.append((job_index, error))

        clients = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for thread in clients:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in clients:
            thread.join()
        elapsed = time.perf_counter() - started
        stats = daemon.batcher.stats()
        registry_stats = daemon.registry.stats()
    if errors:
        raise AssertionError(f"{len(errors)} requests failed: {errors[0]}")
    for (tenant, lo, hi), result in zip(jobs, results):
        assert np.array_equal(result, expected[(tenant, lo, hi)]), (
            f"served predictions diverge from offline Session.predict "
            f"for {tenant}[{lo}:{hi}]"
        )
    if max_wait_ms > 0 and threads > 1:
        assert stats["coalesced_requests"] > 0, (
            f"micro-batching never coalesced under {threads} concurrent "
            f"clients"
        )
    per_tenant = {}
    for name in artifacts:
        tenant_lat = [
            latency for (tenant, _, _), latency in zip(jobs, latencies)
            if tenant == name
        ]
        per_tenant[name] = {
            "requests": len(tenant_lat),
            "p50_ms": _percentile_ms(tenant_lat, 50),
            "p99_ms": _percentile_ms(tenant_lat, 99),
        }
    samples = sum(hi - lo for _, lo, hi in jobs)
    return {
        "tenants": sorted(artifacts),
        "threads": threads,
        "chunk": chunk,
        "requests": len(jobs),
        "max_warm": max_warm,
        "max_batch": max_batch,
        "max_wait_ms": max_wait_ms,
        "identical": True,  # asserted against the offline refs above
        "samples": samples,
        "seconds": round(elapsed, 4),
        "images_per_s": round(samples / elapsed, 2),
        "requests_per_s": round(len(jobs) / elapsed, 2),
        "latency_ms": {
            "p50": _percentile_ms(latencies, 50),
            "p99": _percentile_ms(latencies, 99),
            "max": _percentile_ms(latencies, 100),
        },
        "per_tenant": per_tenant,
        "batcher": stats,
        "registry": registry_stats,
    }


def format_report(report):
    slowest = max(
        report["per_tenant"].items(), key=lambda item: item[1]["p99_ms"]
    )
    return "\n".join([
        f"soak: {report['requests']} requests x {report['chunk']} images, "
        f"{report['threads']} client threads, tenants "
        f"{report['tenants']} (max_warm={report['max_warm']})",
        f"{'s':>8} {'img/s':>9} {'req/s':>8} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'forwards':>9} {'coalesced':>10}",
        f"{report['seconds']:>8.3f} {report['images_per_s']:>9.1f} "
        f"{report['requests_per_s']:>8.1f} "
        f"{report['latency_ms']['p50']:>8.2f} "
        f"{report['latency_ms']['p99']:>8.2f} "
        f"{report['batcher']['batches']:>9} "
        f"{report['batcher']['coalesced_requests']:>10}",
        f"fairness: slowest tenant p99 {slowest[0]}="
        f"{slowest[1]['p99_ms']:.2f}ms; every tenant bit-identical to "
        f"offline",
    ])


# ----------------------------------------------------------------------
# Pytest entry (runs on the cached trained ShallowCaps)
# ----------------------------------------------------------------------
def test_serving_soak(shallow_digits, digits_data):
    model, _ = shallow_digits
    _, test = digits_data
    spec = QuantSpec(model="shallow-small", dataset="digits", seed=0,
                     batch_size=64)
    # Jobs go round-robin over the 4 tenants and client thread i takes
    # every threads-th job, so 8 threads put two concurrent clients on
    # each tenant: with only 4, each tenant had one closed-loop client
    # and nothing could ever coalesce.
    report = run_soak(
        model, test.images[:192], spec, num_requests=32, chunk=6,
        threads=8, max_batch=64, max_wait_ms=10.0, batch_size=64,
        max_warm=3,
    )
    emit("serving_soak", format_report(report))


# ----------------------------------------------------------------------
# Script entry (self-contained; used by the CI smoke job)
# ----------------------------------------------------------------------
def _train_model(quick):
    from repro.capsnet import ShallowCaps, presets
    from repro.data import synth_digits
    from repro.nn import Adam, Trainer

    if quick:
        train, test = synth_digits(
            train_size=600, test_size=192, image_size=14, seed=1
        )
        model = ShallowCaps(presets.shallowcaps_tiny())
        epochs = 6
        spec = QuantSpec(model="shallow-tiny", dataset="digits", seed=1,
                         batch_size=64)
    else:
        train, test = synth_digits(train_size=2000, test_size=256, seed=0)
        model = ShallowCaps(presets.shallowcaps_small())
        epochs = 8
        spec = QuantSpec(model="shallow-small", dataset="digits", seed=0,
                         batch_size=64)
    Trainer(model, Adam(model.parameters(), lr=0.005), seed=0).fit(
        train.images, train.labels, epochs=epochs, batch_size=32
    )
    return model, test, spec


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny model + short training (CI smoke mode)",
    )
    parser.add_argument("--json", type=Path, default=None,
                        help="write the report as JSON to this path")
    parser.add_argument("--requests", type=int, default=None,
                        help="total predict requests "
                             "(default: 32 quick, 96 full)")
    parser.add_argument("--chunk", type=int, default=4,
                        help="images per request (default: 4 — micro-"
                             "batching pays off for small requests)")
    parser.add_argument("--threads", type=int, default=8,
                        help="concurrent client threads (default: 8)")
    parser.add_argument("--max-warm", type=int, default=3,
                        help="warm-tenant cap — below the 4 tenants, so "
                             "the soak runs under eviction pressure "
                             "(default: 3)")
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--max-wait-ms", type=float, default=4.0)
    args = parser.parse_args(argv)

    model, test, spec = _train_model(args.quick)
    num_requests = (
        args.requests if args.requests is not None
        else (32 if args.quick else 96)
    )
    report = run_soak(
        model, test.images, spec, num_requests=num_requests,
        chunk=args.chunk, threads=args.threads,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        batch_size=64, max_warm=args.max_warm,
    )
    report["quick"] = args.quick
    print(format_report(report))
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2))
        print(f"wrote {args.json}")
    print("OK: every response bit-identical to offline Session.predict")
    return 0


if __name__ == "__main__":
    sys.exit(main())
