"""Rounding-scheme selection (paper Sec. III-B).

The framework runs Algorithm 1 once per rounding scheme in the library.
Each run may take Path A (both constraints met) or Path B (trade-off
pair returned).  The selection criteria:

**A) at least one scheme took Path A** — Path-B results are discarded;
among the Path-A models pick (1) lowest weight memory, then (2) fewest
activation bits, then (3) the simplest rounding scheme
(TRN < RTN ≈ RTNE < SR — truncation only deletes LSBs, stochastic
rounding needs a hardware RNG).

**B) every scheme took Path B** — return two models: the
``model_memory`` with the highest accuracy, and the ``model_accuracy``
with the lowest memory; ties again break toward the simplest scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.engine.parallel import run_branches
from repro.framework.qcapsnets import QCapsNets
from repro.framework.results import QCapsNetsResult, QuantizedModelResult
from repro.quant.rounding import get_rounding_scheme


@dataclass
class SelectionOutcome:
    """Winner(s) of the cross-scheme selection."""

    path: str  # "A" or "B"
    #: Path A: the single best model.  Path B: None.
    best: Optional[QuantizedModelResult] = None
    #: Path B: best-accuracy memory model and lowest-memory accuracy model.
    best_memory_model: Optional[QuantizedModelResult] = None
    best_accuracy_model: Optional[QuantizedModelResult] = None
    per_scheme: Dict[str, QCapsNetsResult] = field(default_factory=dict)
    rationale: List[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"Rounding-scheme selection: path {self.path}"]
        lines.extend(f"  {line}" for line in self.rationale)
        if self.best is not None:
            lines.append("  winner: " + self.best.summary().splitlines()[0])
        if self.best_memory_model is not None:
            lines.append(
                "  best model_memory: "
                + self.best_memory_model.summary().splitlines()[0]
            )
        if self.best_accuracy_model is not None:
            lines.append(
                "  best model_accuracy: "
                + self.best_accuracy_model.summary().splitlines()[0]
            )
        return "\n".join(lines)


def _scheme_complexity(model: QuantizedModelResult) -> int:
    return get_rounding_scheme(model.scheme_name).complexity


def select_best(results: Dict[str, QCapsNetsResult]) -> SelectionOutcome:
    """Apply the Sec. III-B criteria to per-scheme framework results."""
    if not results:
        raise ValueError("no framework results to select from")

    path_a = {
        name: res for name, res in results.items() if res.model_satisfied is not None
    }
    outcome = SelectionOutcome(path="A" if path_a else "B", per_scheme=dict(results))

    if path_a:
        candidates = [res.model_satisfied for res in path_a.values()]
        outcome.rationale.append(
            f"criterion A1: {len(candidates)} Path-A model(s), Path-B discarded"
        )
        # A2: lower weight memory; A3: fewer activation bits; A4: simpler scheme.
        best = min(
            candidates,
            key=lambda m: (
                m.memory.weight_bits,
                m.config.max_activation_bits(),
                _scheme_complexity(m),
            ),
        )
        outcome.rationale.append(
            f"criteria A2-A4: picked {best.scheme_name} "
            f"({best.memory.weight_bits / 1e6:.3f} Mbit weights, "
            f"max Qa={best.config.max_activation_bits()})"
        )
        outcome.best = best
        return outcome

    memory_models = [
        res.model_memory for res in results.values() if res.model_memory is not None
    ]
    accuracy_models = [
        res.model_accuracy
        for res in results.values()
        if res.model_accuracy is not None
    ]
    if memory_models:
        # B1: highest accuracy among memory models; tie → simpler scheme.
        outcome.best_memory_model = min(
            memory_models, key=lambda m: (-m.accuracy, _scheme_complexity(m))
        )
        outcome.rationale.append(
            f"criterion B1: model_memory from {outcome.best_memory_model.scheme_name} "
            f"(acc {outcome.best_memory_model.accuracy:.2f}%)"
        )
    if accuracy_models:
        # B2: lowest memory among accuracy models; tie → simpler scheme.
        outcome.best_accuracy_model = min(
            accuracy_models,
            key=lambda m: (m.memory.weight_bits, _scheme_complexity(m)),
        )
        outcome.rationale.append(
            f"criterion B2: model_accuracy from "
            f"{outcome.best_accuracy_model.scheme_name} "
            f"({outcome.best_accuracy_model.memory.weight_bits / 1e6:.3f} Mbit)"
        )
    return outcome


def scheme_search(
    make_framework: Callable[[str], QCapsNets],
    schemes: Sequence[str] = ("TRN", "RTN", "SR"),
    workers: int = 1,
) -> SelectionOutcome:
    """Run Algorithm 1 per scheme and select per Sec. III-B.

    Parameters
    ----------
    make_framework:
        Factory mapping a scheme name to a configured :class:`QCapsNets`
        instance.  Frameworks whose evaluators were built with one
        shared ``staged_executor`` (as :meth:`repro.api.Session.select`
        does) share its prefix cache: scheme-free (FP32) prefix
        activations — notably the whole ``accFP32`` baseline pass — are
        then computed once and resumed by every later branch, while
        quantized prefixes stay isolated per scheme (and per SR stream)
        by their fingerprints.  Bit-identical either way.
    schemes:
        Library of rounding schemes, default the paper's {TRN, RTN, SR}.
        Duplicate names are rejected: each duplicate would rerun the
        full Algorithm-1 search only to overwrite the earlier entry in
        the name-keyed results.
    workers:
        Fan the per-scheme branches across this many forked worker
        processes (the paper runs the branches in parallel).  Every
        branch owns its evaluator, weight caches and RNG stream, and
        results are merged by scheme name, so the outcome — whatever
        the worker scheduling — is bit-identical to the sequential run.
        ``1`` (default) runs the branches sequentially in-process.
        Forked branches inherit whatever is in the parent's cache at
        fork time but cannot share entries made afterwards.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    names = list(schemes)
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(
            f"duplicate rounding schemes in library: {duplicates}; each "
            "duplicate would redo the full search and overwrite the "
            "earlier result"
        )

    results: Dict[str, QCapsNetsResult]
    if workers > 1:
        results = run_branches(
            [(name, lambda name=name: make_framework(name).run())
             for name in names],
            workers=workers,
        )
    else:
        results = {name: make_framework(name).run() for name in names}
    return select_best(results)
