"""Rounding-scheme library search (paper Sec. III-B).

Runs the complete Q-CapsNets flow once per rounding scheme in the
library {TRN, RTN, SR} and applies the paper's selection criteria:
Path-A models win over Path-B; ties break on weight memory, then
activation bits, then scheme hardware simplicity.

The branches are independent Algorithm-1 runs, so ``--workers N`` fans
them across forked worker processes (bit-identical outcome, merged by
scheme name).  Their evaluators share one staged executor, so the
scheme-free FP32 prefix activations are computed once for the library.

Usage::

    python examples/rounding_scheme_selection.py [--epochs N] [--workers N]
"""

import argparse

from repro.capsnet import ShallowCaps, presets
from repro.data import synth_digits
from repro.engine import StagedExecutor
from repro.framework import QCapsNets, scheme_search
from repro.nn import Adam, Trainer, evaluate_accuracy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--tolerance", type=float, default=0.015)
    parser.add_argument("--budget-divisor", type=float, default=6.0)
    parser.add_argument("--workers", type=int, default=1,
                        help="forked workers running the scheme branches "
                             "in parallel")
    args = parser.parse_args()

    train, test = synth_digits(train_size=2000, test_size=256, seed=0)
    model = ShallowCaps(presets.shallowcaps_small())
    print("training ShallowCaps ...")
    Trainer(model, Adam(model.parameters(), lr=0.005)).fit(
        train.images, train.labels, epochs=args.epochs, batch_size=64
    )
    fp32_accuracy = evaluate_accuracy(model, test.images, test.labels)
    print(f"FP32 accuracy: {fp32_accuracy:.2f}%")

    fp32_mbit = sum(model.layer_param_counts().values()) * 32 / 1e6
    budget = fp32_mbit / args.budget_divisor
    executor = StagedExecutor(model)

    def make_framework(scheme_name: str) -> QCapsNets:
        print(f"running Algorithm 1 with {scheme_name} ...")
        return QCapsNets.build(
            model,
            test.images,
            test.labels,
            accuracy_tolerance=args.tolerance,
            memory_budget_mbit=budget,
            scheme=scheme_name,
            accuracy_fp32=fp32_accuracy,
            staged_executor=executor,
        )

    outcome = scheme_search(
        make_framework, schemes=("TRN", "RTN", "SR"), workers=args.workers
    )

    print("\nper-scheme results:")
    for name, result in outcome.per_scheme.items():
        print(f"  --- {name} ---")
        print("  " + result.summary().replace("\n", "\n  "))
    print()
    print(outcome.summary())


if __name__ == "__main__":
    main()
