"""Sec. III-B — full rounding-scheme library search and selection.

Runs Algorithm 1 once per scheme in the library on the trained
ShallowCaps and applies the paper's selection criteria, in two arms:

* **sequential** — the branches run in-process, sharing one staged
  prefix-reuse executor: the ``accFP32`` baseline pass is computed by
  the first branch and resumed by every later one (scheme-free
  prefixes; the recorded *cross-scheme* cache hits), while quantized
  prefixes stay isolated per scheme;
* **parallel** — the branches fan across ``--workers`` forked worker
  processes (the paper runs them in parallel), each owning its
  evaluator and RNG stream, results merged by scheme name.

Hard assertion: the two arms produce **bit-identical**
``SelectionOutcome``\\ s — path, winner, per-scheme model configs and
accuracies.  Wall-clock for both arms and the speedup are reported;
``--min-speedup`` turns the speedup into an assertion (left off in CI,
whose 1-2 shared cores cannot promise parallel wins).  Run directly
for CI smoke coverage::

    PYTHONPATH=src python benchmarks/bench_scheme_selection.py --quick \\
        --workers 2 --json scheme_selection_quick.json
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # conftest/harness as a script

from conftest import emit
from harness import fp32_weight_mbit

from repro.engine import (
    StagedExecutor,
    config_signature,
    drain_stats,
    fork_available,
)
from repro.framework import QCapsNets, scheme_search

TOLERANCE = 0.02
BATCH_SIZE = 32
SCHEMES = ("TRN", "RTN", "SR")


def make_factory(model, test, budget_mbit, tolerance=TOLERANCE,
                 batch_size=BATCH_SIZE):
    """Per-scheme framework factory; fresh evaluator per branch, all
    branches sharing one fresh staged executor (as ``Session.select``
    does)."""
    executor = StagedExecutor(model)

    def make_framework(scheme_name: str) -> QCapsNets:
        return QCapsNets.build(
            model, test.images, test.labels,
            accuracy_tolerance=tolerance,
            memory_budget_mbit=budget_mbit,
            scheme=scheme_name,
            batch_size=batch_size,
            staged_executor=executor,
        )
    return make_framework


def outcome_fingerprint(outcome):
    """Everything the selection decided, as comparable plain data."""
    def model_key(model):
        if model is None:
            return None
        return (model.scheme_name, config_signature(model.config),
                model.accuracy)

    return (
        outcome.path,
        model_key(outcome.best),
        model_key(outcome.best_memory_model),
        model_key(outcome.best_accuracy_model),
        tuple(
            (name, tuple(
                (label, m.accuracy, config_signature(m.config))
                for label, m in result.models().items()
            ))
            for name, result in outcome.per_scheme.items()
        ),
    )


def run_sequential_shared(make_framework, schemes):
    """Sequential arm; returns (outcome, seconds, executor stats)."""
    executors = []

    def spying(scheme_name):
        framework = make_framework(scheme_name)
        executors.append(framework.evaluator.executor)
        return framework

    started = time.perf_counter()
    outcome = scheme_search(spying, schemes=schemes)
    elapsed = time.perf_counter() - started
    shared = executors[0] if executors else None
    stats = shared.stats() if shared is not None else {}
    return outcome, elapsed, stats


def run_parallel(make_framework, schemes, workers):
    drain_before = drain_stats()
    started = time.perf_counter()
    outcome = scheme_search(
        make_framework, schemes=schemes, workers=workers
    )
    elapsed = time.perf_counter() - started
    drain_after = drain_stats()
    # Busy-wait guard: the ForkPool drain is a blocking Queue.get, so a
    # healthy run sees (virtually) no liveness timeouts — a timeout per
    # result would mean the drain regressed to a short-poll loop.
    timeouts = drain_after["timeouts"] - drain_before["timeouts"]
    results = drain_after["results"] - drain_before["results"]
    assert timeouts <= 1 + results // 10, (
        f"ForkPool drain hit {timeouts} liveness timeouts for {results} "
        f"results — the blocking drain is busy-waiting"
    )
    return outcome, elapsed


def compare(model, test, budget_mbit, workers, schemes=SCHEMES,
            tolerance=TOLERANCE, batch_size=BATCH_SIZE):
    """Both arms on one budget; asserts bit-identical outcomes.

    Returns ``(report, sequential_outcome)`` so callers can render the
    selection summaries without re-running the search."""
    def fresh_factory():  # one fresh shared executor per arm
        return make_factory(model, test, budget_mbit, tolerance, batch_size)

    sequential, sequential_s, shared_stats = run_sequential_shared(
        fresh_factory(), schemes
    )
    parallel, parallel_s = run_parallel(fresh_factory(), schemes, workers)

    assert outcome_fingerprint(parallel) == outcome_fingerprint(sequential), (
        "parallel SelectionOutcome diverged from the sequential run"
    )

    winner = sequential.best
    report = {
        "schemes": list(schemes),
        "workers": workers,
        "fork_available": fork_available(),
        "cpu_count": os.cpu_count(),
        "budget_mbit": budget_mbit,
        "tolerance": tolerance,
        "batch_size": batch_size,
        "path": sequential.path,
        "winner_scheme": winner.scheme_name if winner is not None else None,
        "per_scheme_accuracy": {
            name: {
                label: m.accuracy for label, m in result.models().items()
            }
            for name, result in sequential.per_scheme.items()
        },
        "identical": True,
        "wall_clock_sequential_s": round(sequential_s, 3),
        "wall_clock_parallel_s": round(parallel_s, 3),
        "speedup": round(sequential_s / parallel_s, 3) if parallel_s else None,
        "cross_scheme_prefix_hits": shared_stats.get(
            "cache_cross_scheme_hits", 0
        ),
        "shared_executor": {
            key: shared_stats.get(key)
            for key in ("runs", "resumes", "stage_executions",
                        "stages_skipped", "cache_hits", "cache_misses",
                        "cache_entries", "cache_bytes", "cache_evictions")
        },
    }
    return report, sequential


def format_report(report):
    lines = [
        f"schemes {report['schemes']}  path {report['path']}  "
        f"winner {report['winner_scheme']}",
        f"sequential (shared executor): {report['wall_clock_sequential_s']:.2f}s"
        f"  parallel ({report['workers']} workers): "
        f"{report['wall_clock_parallel_s']:.2f}s"
        f"  speedup {report['speedup']:.2f}x",
        f"cross-scheme prefix hits (FP32 baseline reuse): "
        f"{report['cross_scheme_prefix_hits']}",
        "outcome: bit-identical across arms",
    ]
    for name, models in report["per_scheme_accuracy"].items():
        rendered = ", ".join(
            f"{label}={accuracy:.2f}%" for label, accuracy in models.items()
        )
        lines.append(f"  {name}: {rendered}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Pytest entry (Fig. 11 harness: trained small ShallowCaps)
# ----------------------------------------------------------------------
def test_scheme_selection(shallow_digits, digits_data, benchmark):
    model, fp32_acc = shallow_digits
    _, test = digits_data
    budget = fp32_weight_mbit(model) / 5

    report, outcome = compare(model, test, budget, workers=2)

    lines = [format_report(report), ""]
    lines.append(outcome.summary())
    lines.append("")
    for name, result in outcome.per_scheme.items():
        lines.append(result.summary())
        lines.append("")
    emit("scheme_selection", "\n".join(lines))

    assert set(outcome.per_scheme) == set(SCHEMES)
    if outcome.path == "A":
        assert outcome.best is not None
        # The winner's weight memory is minimal among Path-A candidates.
        candidates = [
            r.model_satisfied
            for r in outcome.per_scheme.values()
            if r.model_satisfied is not None
        ]
        assert outcome.best.memory.weight_bits == min(
            c.memory.weight_bits for c in candidates
        )
    else:
        assert outcome.best_memory_model is not None
        assert outcome.best_accuracy_model is not None
    assert report["cross_scheme_prefix_hits"] > 0

    # Hot kernel: the selection logic itself over the cached results.
    from repro.framework import select_best

    results = dict(outcome.per_scheme)
    benchmark(lambda: select_best(results))


# ----------------------------------------------------------------------
# Script entry (self-contained; used by the CI smoke job)
# ----------------------------------------------------------------------
def _train_model(quick):
    from repro.capsnet import ShallowCaps, presets
    from repro.data import synth_digits
    from repro.nn import Adam, Trainer

    if quick:
        train, test = synth_digits(
            train_size=800, test_size=192, image_size=14, seed=1
        )
        model = ShallowCaps(presets.shallowcaps_tiny())
        epochs = 12
    else:
        train, test = synth_digits(train_size=2000, test_size=256, seed=0)
        model = ShallowCaps(presets.shallowcaps_small())
        epochs = 8
    Trainer(model, Adam(model.parameters(), lr=0.005), seed=0).fit(
        train.images, train.labels, epochs=epochs, batch_size=32
    )
    return model, test


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny model + short training (CI smoke mode)",
    )
    parser.add_argument(
        "--workers", type=int, default=3,
        help="forked workers for the parallel arm (default 3)",
    )
    parser.add_argument(
        "--schemes", nargs="+", default=list(SCHEMES),
        choices=["TRN", "RTN", "RTNE", "SR"],
        help="rounding-scheme library (default: the paper's TRN RTN SR)",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help="write the report as JSON to this path",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="accuracy tolerance (default: 0.03 quick, 0.02 full)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="assert the parallel arm is at least this much faster "
             "(opt-in: needs enough free cores to be meaningful)",
    )
    args = parser.parse_args(argv)

    model, test = _train_model(args.quick)
    budget = fp32_weight_mbit(model) / 5
    tolerance = (
        args.tolerance
        if args.tolerance is not None
        else (0.03 if args.quick else TOLERANCE)
    )
    report, _ = compare(
        model, test, budget, workers=args.workers,
        schemes=tuple(args.schemes), tolerance=tolerance,
    )
    report["quick"] = args.quick
    print(format_report(report))
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2))
        print(f"wrote {args.json}")
    if args.min_speedup is not None:
        assert report["speedup"] >= args.min_speedup, (
            f"expected >= {args.min_speedup:.2f}x parallel speedup, "
            f"measured {report['speedup']:.2f}x "
            f"({report['cpu_count']} cpus)"
        )
    print("OK: parallel SelectionOutcome bit-identical to sequential")


if __name__ == "__main__":
    main()
