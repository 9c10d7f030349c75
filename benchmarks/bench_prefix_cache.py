"""Prefix-cache bench — staged forward engine, prefix cache on vs off.

PR 1's early-exit engine cut the number of *batches* Algorithm 1
evaluates; this bench measures the next layer of savings: the number of
model *stages* run per batch.  The staged executor
(:mod:`repro.engine.staged`) resumes every batch from the deepest cached
boundary activation whose quantization-prefix fingerprint matches, so a
probe that differs from an already-evaluated config only from layer
``k`` down recomputes only stages ``k..L``.

The same Algorithm-1 search runs twice — prefix cache on and off
(``prefix_cache_bytes=0``), identical seed/scheme/batch size — for a Path-A and a
Path-B budget on the Fig. 11 ShallowCaps harness.  Hard assertions:

* every packaged model (configs **and** accuracies) is bit-identical
  between the two runs, and the batch counts match — only per-batch
  stage work changes;
* the layer-wise descent phases (step 3A / step 3B) execute **>= 2x**
  fewer stages with the cache on.

The report adds per-stage MAC-work avoided (stage skip counts x the
analytical per-stage MACs of :mod:`repro.analysis.arch_stats` x batch
size — the final ragged batch makes this an upper-bound estimate) and
wall-clock for both runs.  Run directly for CI smoke coverage::

    PYTHONPATH=src python benchmarks/bench_prefix_cache.py --quick \
        --json prefix_cache_quick.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # conftest/harness as a script

from conftest import emit
from harness import fp32_weight_mbit

from repro.analysis import shallowcaps_stats
from repro.engine import DEFAULT_PREFIX_CACHE_BYTES, config_signature
from repro.framework import Evaluator, QCapsNets
from repro.quant import get_rounding_scheme

TOLERANCE = 0.015
BATCH_SIZE = 32
#: Phases whose stage work the acceptance assertion covers (Algorithm 2
#: trailing-layer descents on activations and weights).
LAYERWISE_PHASES = ("step3A_layerwise", "step3B_layerwise")


def make_evaluator(model, test, scheme, prefix_cache_bytes,
                   batch_size=BATCH_SIZE):
    """One memoized evaluator per arm, shared across budget runs — the
    same sharing the Fig. 11/12 harnesses use (sweeps over budgets keep
    one accuracy cache), applied identically to both arms.  The cache-off
    arm passes ``prefix_cache_bytes=0``."""
    return Evaluator(
        model, test.images, test.labels,
        get_rounding_scheme(scheme, seed=0), batch_size=batch_size,
        prefix_cache_bytes=prefix_cache_bytes,
    )


def run_search(model, test, budget_mbit, fp32_acc, evaluator,
               tolerance=TOLERANCE):
    framework = QCapsNets.build(
        model, test.images, test.labels,
        accuracy_tolerance=tolerance,
        memory_budget_mbit=budget_mbit,
        accuracy_fp32=fp32_acc,
        evaluator=evaluator,
    )
    started = time.perf_counter()
    result = framework.run()
    elapsed = time.perf_counter() - started
    return result, elapsed


def assert_identical(cached, plain):
    """Cache on/off must produce bit-identical search outputs."""
    assert cached.path == plain.path
    assert set(cached.models()) == set(plain.models())
    pairs = list(plain.models().items())
    if plain.model_uniform is not None:
        pairs.append(("model_uniform", plain.model_uniform))
    for name, model in pairs:
        other = (
            cached.model_uniform
            if name == "model_uniform"
            else cached.models()[name]
        )
        assert config_signature(other.config) == config_signature(
            model.config
        ), name
        assert other.accuracy == model.accuracy, name
    assert cached.batches_evaluated == plain.batches_evaluated


def phase_totals(result, phases, key):
    return sum(result.phase_stats[p][key] for p in phases if p in result.phase_stats)


def macs_avoided(skipped_by_stage, macs_by_stage, batch_size):
    """Upper-bound MAC-work skipped via prefix reuse, per stage."""
    return {
        name: count * macs_by_stage.get(name, 0) * batch_size
        for name, count in skipped_by_stage.items()
    }


def compare(model, test, fp32_acc, scheme, budgets, tolerance=TOLERANCE,
            batch_size=BATCH_SIZE):
    """Run every budget cache-on and cache-off; return the report dict."""
    macs_by_stage = {
        layer.name: layer.macs for layer in shallowcaps_stats(model.config).layers
    }
    report = {
        "scheme": scheme,
        "batch_size": batch_size,
        "tolerance": tolerance,
        "cases": [],
    }
    evaluator_on = make_evaluator(
        model, test, scheme, DEFAULT_PREFIX_CACHE_BYTES, batch_size
    )
    evaluator_off = make_evaluator(model, test, scheme, 0, batch_size)
    executor = evaluator_on.executor
    layerwise = {"cached": 0, "plain": 0}
    for label, budget in budgets:
        skipped_before = dict(executor.skipped_by_stage)
        cached, cached_s = run_search(
            model, test, budget, fp32_acc, evaluator_on, tolerance=tolerance
        )
        plain, plain_s = run_search(
            model, test, budget, fp32_acc, evaluator_off, tolerance=tolerance
        )
        assert_identical(cached, plain)
        phases = sorted(cached.phase_stats)
        skipped_delta = {
            name: executor.skipped_by_stage[name] - skipped_before[name]
            for name in executor.stage_names
        }
        avoided = macs_avoided(skipped_delta, macs_by_stage, batch_size)
        case = {
            "label": label,
            "path": cached.path,
            "budget_mbit": budget,
            "batches": cached.batches_evaluated,
            "stage_executions_cached": phase_totals(
                cached, cached.phase_stats, "stage_executions"
            ),
            "stage_executions_plain": phase_totals(
                plain, plain.phase_stats, "stage_executions"
            ),
            "layerwise_cached": phase_totals(
                cached, LAYERWISE_PHASES, "stage_executions"
            ),
            "layerwise_plain": phase_totals(
                plain, LAYERWISE_PHASES, "stage_executions"
            ),
            "phases": {p: cached.phase_stats[p] for p in phases},
            "macs_avoided_by_stage": avoided,
            "macs_avoided_total": sum(avoided.values()),
            "wall_clock_cached_s": round(cached_s, 3),
            "wall_clock_plain_s": round(plain_s, 3),
            "cache": {
                "entries": len(executor.cache),
                "bytes": executor.cache.current_bytes,
                "evictions": executor.cache.evictions,
                "hits": executor.cache.hits,
                "misses": executor.cache.misses,
            },
        }
        layerwise["cached"] += case["layerwise_cached"]
        layerwise["plain"] += case["layerwise_plain"]
        report["cases"].append(case)
    report["layerwise_descent"] = {
        "stage_executions_cached": layerwise["cached"],
        "stage_executions_plain": layerwise["plain"],
        "reduction": (
            layerwise["plain"] / layerwise["cached"]
            if layerwise["cached"]
            else float("inf")
        ),
    }
    return report


def format_report(report):
    lines = [
        f"{'case':>18} {'path':>4} {'stages(off)':>12} {'stages(on)':>11} "
        f"{'layerwise off/on':>17} {'M-MACs avoided':>15} {'off s':>7} {'on s':>7}"
    ]
    for case in report["cases"]:
        lines.append(
            f"{case['label']:>18} {case['path']:>4} "
            f"{case['stage_executions_plain']:>12} "
            f"{case['stage_executions_cached']:>11} "
            f"{case['layerwise_plain']:>8}/{case['layerwise_cached']:<8} "
            f"{case['macs_avoided_total'] / 1e6:>15.1f} "
            f"{case['wall_clock_plain_s']:>7.2f} {case['wall_clock_cached_s']:>7.2f}"
        )
    descent = report["layerwise_descent"]
    lines.append(
        f"layer-wise descent: {descent['stage_executions_plain']} -> "
        f"{descent['stage_executions_cached']} stage executions "
        f"({descent['reduction']:.2f}x fewer)"
    )
    return "\n".join(lines)


def check_acceptance(report):
    descent = report["layerwise_descent"]
    assert descent["reduction"] >= 2.0, (
        "layer-wise descent phase must run >= 2x fewer stages with the "
        f"prefix cache, measured {descent['reduction']:.2f}x"
    )


# ----------------------------------------------------------------------
# Pytest entry (Fig. 11 harness: trained small ShallowCaps)
# ----------------------------------------------------------------------
def test_prefix_cache_speedup(shallow_digits, digits_data, benchmark):
    model, fp32_acc = shallow_digits
    _, test = digits_data
    fp32_mbit = fp32_weight_mbit(model)
    budgets = [
        ("path A (FP32/5)", fp32_mbit / 5),
        ("path B (FP32/25)", fp32_mbit / 25),
    ]
    report = compare(model, test, fp32_acc, "RTN", budgets)
    emit("prefix_cache", format_report(report))
    check_acceptance(report)

    # Hot kernel: one cached Path-A search with a fresh evaluator.
    benchmark.pedantic(
        lambda: run_search(
            model, test, fp32_mbit / 5, fp32_acc,
            make_evaluator(model, test, "RTN", DEFAULT_PREFIX_CACHE_BYTES),
        ),
        rounds=2,
        iterations=1,
    )


# ----------------------------------------------------------------------
# Script entry (self-contained; used by the CI smoke job)
# ----------------------------------------------------------------------
def _train_model(quick):
    from repro.capsnet import ShallowCaps, presets
    from repro.data import synth_digits
    from repro.nn import Adam, Trainer, evaluate_accuracy

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
    return model, test, evaluate_accuracy(model, test.images, test.labels)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny model + short training (CI smoke mode)",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help="write the report as JSON to this path",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="accuracy tolerance (default: 0.03 quick, 0.015 full)",
    )
    args = parser.parse_args(argv)

    model, test, fp32_acc = _train_model(args.quick)
    fp32_mbit = fp32_weight_mbit(model)
    budgets = [
        ("path A (FP32/5)", fp32_mbit / 5),
        ("path B (FP32/25)", fp32_mbit / 25),
    ]
    tolerance = (
        args.tolerance
        if args.tolerance is not None
        else (0.03 if args.quick else TOLERANCE)
    )
    report = compare(model, test, fp32_acc, "RTN", budgets, tolerance=tolerance)
    report["quick"] = args.quick
    report["accuracy_fp32"] = fp32_acc
    print(format_report(report))
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=2))
        print(f"wrote {args.json}")
    check_acceptance(report)
    print("OK: outputs bit-identical, layer-wise descent reduction >= 2x")


if __name__ == "__main__":
    main()
